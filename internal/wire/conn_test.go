package wire

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"msql/internal/admit"
)

// handlerFunc answers with f and does nothing on Close.
type handlerFunc func(ctx context.Context, req *Request) *Response

func (f handlerFunc) Handle(ctx context.Context, req *Request) *Response { return f(ctx, req) }
func (handlerFunc) Close()                                               {}

func serve(t *testing.T, open func() (Handler, error)) *Server {
	t.Helper()
	s, err := Serve("127.0.0.1:0", open)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dial(t *testing.T, s *Server) *Conn {
	t.Helper()
	c, err := Dial(context.Background(), s.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestOpenErrorAnswersFirstRequest: a connection open refuses gets the
// error as its one reply, and is closed after it.
func TestOpenErrorAnswersFirstRequest(t *testing.T) {
	s := serve(t, func() (Handler, error) { return nil, admit.ErrOverload })
	c := dial(t, s)
	resp, err := c.Call(context.Background(), &Request{Kind: ReqHello}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(resp.Err(), admit.ErrOverload) {
		t.Fatalf("reply error = %v, want ErrOverload", resp.Err())
	}
	if _, err := c.Call(context.Background(), &Request{Kind: ReqHello}, time.Second); !Transient(err) {
		t.Fatalf("second call = %v, want a transport failure", err)
	}
}

// TestHangUpEndsHandlerContext: the handler's context ends when the
// client gives up mid-call, and the cut call poisons the connection.
func TestHangUpEndsHandlerContext(t *testing.T) {
	ended := make(chan struct{})
	s := serve(t, func() (Handler, error) {
		return handlerFunc(func(ctx context.Context, req *Request) *Response {
			if req.Kind == ReqHello {
				return &Response{ServiceNm: "test"}
			}
			<-ctx.Done()
			close(ended)
			return &Response{}
		}), nil
	})
	c := dial(t, s)
	if resp, err := c.Call(context.Background(), &Request{Kind: ReqHello}, time.Second); err != nil || resp.ServiceNm != "test" {
		t.Fatalf("hello = %+v, %v", resp, err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := c.Call(ctx, &Request{Kind: ReqExec}, 0)
	if !errors.Is(err, context.DeadlineExceeded) || !Transient(err) {
		t.Fatalf("cut call = %v, want the deadline and a transport failure", err)
	}
	select {
	case <-ended:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler's context never ended")
	}
	if _, err := c.Call(context.Background(), &Request{Kind: ReqHello}, 0); !errors.Is(err, ErrConnBroken) {
		t.Fatalf("call after a cut = %v, want ErrConnBroken", err)
	}
	if c.Healthy() {
		t.Fatal("a cut connection reports healthy")
	}
}

// TestCallOnDoneContextSendsNothing: a context already done is a
// definite outcome: nothing is written and the connection stays usable.
func TestCallOnDoneContextSendsNothing(t *testing.T) {
	var served atomic.Int32
	s := serve(t, func() (Handler, error) {
		return handlerFunc(func(context.Context, *Request) *Response { served.Add(1); return &Response{} }), nil
	})
	c := dial(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Call(ctx, &Request{Kind: ReqHello}, 0); err != context.Canceled {
		t.Fatalf("call on a canceled context = %v, want context.Canceled as it is", err)
	}
	if _, err := c.Call(context.Background(), &Request{Kind: ReqHello}, 0); err != nil {
		t.Fatal(err)
	}
	if n := served.Load(); n != 1 {
		t.Fatalf("served %d requests, want 1", n)
	}
}

// TestCloseEndsEveryConnection: Close returns once every accepted
// connection is closed and its handler done, also one that never sent
// a request.
func TestCloseEndsEveryConnection(t *testing.T) {
	s, err := Serve("127.0.0.1:0", func() (Handler, error) {
		return handlerFunc(func(context.Context, *Request) *Response { return &Response{} }), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	c := dial(t, s)
	if _, err := c.Call(context.Background(), &Request{Kind: ReqHello}, 0); err != nil {
		t.Fatal(err)
	}
	silent := dial(t, s)
	for deadline := time.Now().Add(5 * time.Second); s.Conns() < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("%d connections accepted, want 2", s.Conns())
		}
		time.Sleep(time.Millisecond)
	}
	start := time.Now()
	s.Close()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Close took %v", took)
	}
	if n := s.Conns(); n != 0 {
		t.Fatalf("%d connections after Close", n)
	}
	if _, err := silent.Call(context.Background(), &Request{Kind: ReqHello}, time.Second); err == nil {
		t.Fatal("a call on a connection the server closed succeeded")
	}
	if errs := s.ConnErrors(); len(errs) != 0 {
		t.Fatalf("connection errors %v, want none", errs)
	}
}
