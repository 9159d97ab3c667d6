// Package netfault is a TCP fault-injection proxy for exercising the
// federation's failure paths under realistic network conditions. It sits
// between a LAM client and a LAM TCP server and can, per proxy:
//
//   - Delay: add latency before forwarding each chunk;
//   - Blackhole: accept connections and read nothing — bytes sit in
//     kernel buffers and the peer blocks until its deadline fires;
//   - Sever: abruptly close every active connection (a network partition
//     or LAM crash), while continuing to accept new ones — the window the
//     in-doubt protocol exists for;
//   - Refuse: reject new connections (site unreachable).
//
// It complements ldbms.FaultInjector, which injects failures *inside* the
// server: netfault injects them *between* coordinator and server, where
// the outcome of an in-flight operation is unknowable — e.g. killing a
// LAM between PREPARE and COMMIT.
package netfault

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Proxy is one forwarding listener in front of a backend address.
type Proxy struct {
	backend string
	ln      net.Listener

	mu        sync.Mutex
	cond      *sync.Cond
	delay     time.Duration
	blackhole bool
	refuse    bool
	closed    bool
	conns     map[net.Conn]struct{}
	wg        sync.WaitGroup
	// reads counts the chunks read from clients, whether or not they
	// have been forwarded yet (see ClientReads).
	reads atomic.Int64
}

// New starts a proxy on an ephemeral loopback port forwarding to backend.
func New(backend string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{backend: backend, ln: ln, conns: make(map[net.Conn]struct{})}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the proxy's listen address; clients dial this instead of
// the backend.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// SetDelay adds d of latency before each forwarded chunk (0 disables).
func (p *Proxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// ClientReads reports how many chunks the proxy has read from its
// clients so far. A chunk counts as soon as it is read, before any
// delay holds it back: a test can wait for it to know that a request
// has left the client and is in the proxy's hands.
func (p *Proxy) ClientReads() int64 { return p.reads.Load() }

// SetBlackhole stops (true) or resumes (false) forwarding on all current
// and future connections. Black-holed peers see an open connection that
// never answers — the failure mode deadlines exist for.
func (p *Proxy) SetBlackhole(on bool) {
	p.mu.Lock()
	p.blackhole = on
	p.mu.Unlock()
	p.cond.Broadcast()
}

// SetRefuse makes the proxy close new connections immediately (true) or
// accept them again (false). Active connections are unaffected.
func (p *Proxy) SetRefuse(on bool) {
	p.mu.Lock()
	p.refuse = on
	p.mu.Unlock()
}

// Sever abruptly closes every active connection, like a partition or LAM
// crash. New connections are still accepted, so a recovering coordinator
// can reconnect — use SetRefuse or Close for a permanent outage.
func (p *Proxy) Sever() {
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// Close shuts the proxy down: the listener stops and all connections die.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	err := p.ln.Close()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	return err
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.closed || p.refuse {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		p.conns[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.serve(conn)
	}
}

func (p *Proxy) serve(client net.Conn) {
	defer p.wg.Done()
	drop := func(c net.Conn) {
		p.mu.Lock()
		delete(p.conns, c)
		p.mu.Unlock()
		c.Close()
	}
	defer drop(client)

	// Wait out an initial blackhole before even contacting the backend:
	// the client sees an accepted-but-silent connection.
	if !p.waitForward() {
		return
	}
	backend, err := net.DialTimeout("tcp", p.backend, 5*time.Second)
	if err != nil {
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		backend.Close()
		return
	}
	p.conns[backend] = struct{}{}
	p.mu.Unlock()
	defer drop(backend)

	done := make(chan struct{}, 2)
	pipe := func(dst, src net.Conn, reads *atomic.Int64) {
		defer func() { done <- struct{}{} }()
		buf := make([]byte, 32*1024)
		for {
			if !p.waitForward() {
				return
			}
			n, err := src.Read(buf)
			if n > 0 {
				if reads != nil {
					reads.Add(1)
				}
				if d := p.currentDelay(); d > 0 {
					time.Sleep(d)
				}
				if !p.waitForward() {
					return
				}
				if _, werr := dst.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				if err != io.EOF {
					return
				}
				// Half-close: propagate EOF but keep the other direction.
				if cw, ok := dst.(interface{ CloseWrite() error }); ok {
					_ = cw.CloseWrite()
				}
				return
			}
		}
	}
	go pipe(backend, client, &p.reads)
	go pipe(client, backend, nil)
	<-done
	<-done
}

// waitForward blocks while the proxy is black-holed; it returns false when
// the proxy is closed.
func (p *Proxy) waitForward() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.blackhole && !p.closed {
		p.cond.Wait()
	}
	return !p.closed
}

func (p *Proxy) currentDelay() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.delay
}
