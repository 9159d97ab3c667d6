//go:build unix

package wire

import (
	"net"
	"syscall"
)

// peerState keeps what the idle check needs across calls, the socket's
// raw handle and the read callback, so a check allocates nothing.
type peerState struct {
	raw  syscall.RawConn
	read func(fd uintptr) bool
	open bool
}

// check reports whether the peer of an idle connection has not closed
// it, with a read that never blocks: finding nothing to read is the one
// healthy answer. End of stream or a reset mean the peer is gone; a byte
// means the stream is out of step with the protocol.
func (p *peerState) check(conn net.Conn) bool {
	if p.raw == nil {
		sc, ok := conn.(syscall.Conn)
		if !ok {
			return false
		}
		raw, err := sc.SyscallConn()
		if err != nil {
			return false
		}
		p.raw = raw
		p.read = func(fd uintptr) bool {
			var b [1]byte
			_, rerr := syscall.Read(int(fd), b[:])
			p.open = rerr == syscall.EAGAIN
			return true
		}
	}
	p.open = false
	return p.raw.Read(p.read) == nil && p.open
}
