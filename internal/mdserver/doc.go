// Package mdserver is the multidatabase coordinator server: it exposes a
// shared core.Federation to many concurrent clients over the wire
// protocol. The server is a script handler on wire.Serve, and Client a
// wire.Conn plus its tenant. Each accepted connection gets its own
// core.Session — USE
// scope, LET bindings, and the pending transaction unit are per
// connection, while the directories, LAM clients, DOL engine, and the
// coordinator journal are shared — so independent
// clients run independent multitransactions in parallel.
//
// The server enforces two capacity boundaries. MaxSessions caps live
// connections: a client beyond it is answered wire.CodeOverload on its
// first request and disconnected, never silently queued. Statement-level
// admission control and timeouts come from the federation itself
// (core.Federation.SetAdmission / StmtTimeout) and surface to clients as
// wire errors per script.
//
// A client that disconnects mid-script cancels the connection context
// (wire.Serve's reader sees the hang-up while the script runs):
// the in-flight statement's subqueries fail promptly, and the engine's
// termination protocol drives any prepared participant to a clean
// presumed-abort or completed commit on its own recovery budget — an
// abandoned session is never left parked.
package mdserver
