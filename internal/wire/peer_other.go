//go:build !unix

package wire

import "net"

type peerState struct{}

// check has no non-blocking read to look with here, so it reports every
// idle connection as closed: a session's first request, which is never
// replayed, always goes out on a fresh dial, and pooling is given up on
// these platforms.
func (*peerState) check(net.Conn) bool { return false }
