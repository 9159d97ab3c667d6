//go:build unix

package lam

import (
	"net"
	"syscall"
)

// peerOpen reports whether the peer of an idle connection has not closed
// it, with a read that never blocks: finding nothing to read is the one
// healthy answer. End of stream or a reset mean the peer is gone; a byte
// means the stream is out of step with the protocol.
func peerOpen(conn net.Conn) bool {
	sc, ok := conn.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	open := false
	err = rc.Read(func(fd uintptr) bool {
		var b [1]byte
		_, rerr := syscall.Read(int(fd), b[:])
		open = rerr == syscall.EAGAIN
		return true
	})
	return err == nil && open
}
