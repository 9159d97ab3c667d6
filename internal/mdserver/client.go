package mdserver

import (
	"context"
	"time"

	"msql/internal/wire"
)

// Client is one connection to a coordinator server. Sequential Script
// calls share server-side session state (USE scope, LET bindings, the
// open unit); concurrent multitransactions come from concurrent Clients.
// A Client must be used from one goroutine at a time, except Close,
// which may be called concurrently to abandon an in-flight Script (the
// soak tests do this deliberately to exercise mid-2PC disconnects).
type Client struct {
	conn   *wire.Conn
	tenant string
}

// Dial connects to a coordinator server. The tenant string is this
// client's admission-control identity; empty means anonymous.
func Dial(addr, tenant string) (*Client, error) {
	conn, err := wire.Dial(context.Background(), addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{conn: conn, tenant: tenant}, nil
}

// Script executes an MSQL script in the connection's session and
// returns the per-statement outcomes. Script-level failures (parse
// error, admission shed, statement timeout) come back as the error —
// errors.Is works for sentinels the wire preserves, admit.ErrOverload
// among them — alongside whatever statements completed first. The
// context deadline bounds the whole round trip; a canceled context or
// transport failure leaves the connection unusable (the gob stream
// cannot be resynchronized, see wire.Conn.Call) and the client must be
// discarded.
func (c *Client) Script(ctx context.Context, src string) ([]wire.ScriptResult, error) {
	resp, err := c.conn.Call(ctx, &wire.Request{Kind: wire.ReqScript, SQL: src, Tenant: c.tenant}, 0)
	if err != nil {
		return nil, err
	}
	return resp.Script, resp.Err()
}

// Close severs the connection. Safe to call while a Script is in
// flight: the in-flight call fails and the server treats the session as
// disconnected.
func (c *Client) Close() error { return c.conn.Close() }
