package wire

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// A Handler answers the requests of one connection, one at a time and in
// the order they arrive.
type Handler interface {
	// Handle answers req. ctx ends when the peer hangs up or the server
	// closes, also while a request is being handled.
	Handle(ctx context.Context, req *Request) *Response
	// Close runs once, when the connection has ended.
	Close()
}

// Server is the one accept loop of the wire protocol: both the LAMs and
// the coordinator server run on it. It tracks every connection it
// accepts, so Close ends them all.
type Server struct {
	ln   net.Listener
	open func() (Handler, error)

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	errs   []error // non-benign failures (see ConnErrors)
	wg     sync.WaitGroup
}

// Serve listens on addr (use "127.0.0.1:0" for an ephemeral port) and
// returns at once. Each accepted connection calls open for the handler
// of its requests. An error open returns instead is the reply to the
// connection's first request, and the connection closes after it: the
// client gets a definite answer that nothing ran.
func Serve(addr string, open func() (Handler, error)) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, open: open, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Conns reports how many connections the server holds.
func (s *Server) Conns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Close closes the listener and every connection, then waits for their
// handlers to return.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// Note records a failure for ConnErrors, unless it is a peer's ordinary
// hang-up (BenignClose) or the server is closing: shutdown severs
// connections mid-frame by design.
func (s *Server) Note(err error) {
	if BenignClose(err) {
		return
	}
	s.mu.Lock()
	if !s.closed {
		s.errs = append(s.errs, err)
	}
	s.mu.Unlock()
}

// ConnErrors returns the failures noted so far: torn or undecodable
// frames, failed replies, and whatever the handlers noted. Ordinary
// disconnects never appear here.
func (s *Server) ConnErrors() []error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]error(nil), s.errs...)
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(conn)
	}
}

// serve runs one connection. A reader goroutine decodes ahead of the
// handler, so a hang-up ends the handler's context even while it works.
func (s *Server) serve(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	dec, enc := gob.NewDecoder(conn), gob.NewEncoder(conn)
	h, err := s.open()
	if err != nil {
		// A silent client is not waited for long.
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if dec.Decode(new(Request)) == nil {
			resp := &Response{}
			resp.ErrCode, resp.ErrMsg = EncodeError(err)
			_ = enc.Encode(resp)
		}
		return
	}
	defer h.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reqs := make(chan *Request)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer close(reqs)
		for {
			req := new(Request)
			if err := dec.Decode(req); err != nil {
				s.Note(err)
				cancel()
				return
			}
			select {
			case reqs <- req:
			case <-ctx.Done():
				return
			}
		}
	}()
	for req := range reqs {
		if err := enc.Encode(h.Handle(ctx, req)); err != nil {
			s.Note(err)
			return
		}
	}
}

// ErrConnBroken marks calls issued on a connection already poisoned by an
// earlier transport failure (a torn gob stream cannot be resynchronized).
var ErrConnBroken = errors.New("wire: connection broken by earlier failure")

// Conn is the client end of one connection: one request/response
// exchange at a time. The caller serializes Call; Close may come from
// any goroutine, and cuts a Call in flight short.
type Conn struct {
	conn   net.Conn
	enc    *gob.Encoder
	dec    *gob.Decoder
	broken error     // the transport failure that retired the connection
	peer   peerState // PeerOpen's
}

// Dial connects to a wire server at addr. timeout bounds the connection
// set-up (0 leaves it to ctx).
func Dial(ctx context.Context, addr string, timeout time.Duration) (*Conn, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(conn), nil
}

// NewConn speaks the wire protocol over an established connection.
func NewConn(conn net.Conn) *Conn {
	return &Conn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

// Call sends req and reads its reply. An error the server answered with
// is in the reply (Response.Err); Call's own error is the exchange's:
//   - ctx already done: nothing is sent and the error is ctx's, a
//     definite outcome;
//   - a transport failure (timeout, severed connection, torn stream):
//     the request's outcome at the server is unknown. The connection is
//     closed and every later Call fails with ErrConnBroken. When the
//     caller gave up (or its deadline passed) the error wraps ctx's
//     error too, so errors.Is sees both.
//
// The exchange must end by the earlier of ctx's deadline and now+limit
// (a limit of 0 adds none), and cancelling ctx cuts it short.
func (c *Conn) Call(ctx context.Context, req *Request, limit time.Duration) (*Response, error) {
	if c.broken != nil {
		return nil, fmt.Errorf("%w: %v", ErrConnBroken, c.broken)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	deadline := time.Time{}
	if limit > 0 {
		deadline = time.Now().Add(limit)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	_ = c.conn.SetDeadline(deadline)
	// Cancellation cuts the blocking write or read short with a past
	// deadline. A callback that has started by the time the exchange
	// ends may still set it at any later moment, under the connection's
	// next call, so that connection is retired.
	stop := context.AfterFunc(ctx, func() { _ = c.conn.SetDeadline(time.Unix(1, 0)) })
	resp := new(Response)
	err := c.enc.Encode(req)
	if err == nil {
		err = c.dec.Decode(resp)
	}
	if !stop() && err == nil {
		c.broken = fmt.Errorf("call canceled as its reply arrived: %w", context.Cause(ctx))
	}
	if err != nil {
		c.broken = err
		_ = c.conn.Close()
		// Both errors stay visible to errors.Is: the written request's
		// outcome is unknown whether or not the caller gave up on it, so
		// Transient must still see the transport failure.
		if ctxErr := ctx.Err(); ctxErr != nil {
			err = fmt.Errorf("%w (%w)", ctxErr, err)
		} else if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
			// The conn deadline derived from the context fired before the
			// context's own timer did; report the caller's deadline anyway.
			err = fmt.Errorf("%w (%w)", context.DeadlineExceeded, err)
		}
		return nil, err
	}
	_ = c.conn.SetDeadline(time.Time{})
	return resp, nil
}

// Healthy reports whether no transport failure has retired the
// connection. Like Call, it is the caller's to serialize.
func (c *Conn) Healthy() bool { return c.broken == nil }

// PeerOpen reports whether the peer of an idle connection has not closed
// it, without blocking. Like Call, it is the caller's to serialize.
func (c *Conn) PeerOpen() bool { return c.peer.check(c.conn) }

// Close closes the connection.
func (c *Conn) Close() error { return c.conn.Close() }
