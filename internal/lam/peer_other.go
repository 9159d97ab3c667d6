//go:build !unix

package lam

import "net"

// peerOpen has no non-blocking read to look with here, so it reports
// every idle connection as closed: a session's first request, which is
// never replayed, always goes out on a fresh dial, and pooling is given
// up on these platforms.
func peerOpen(net.Conn) bool { return false }
