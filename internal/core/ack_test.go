package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msql/internal/catalog"
	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/mtlog"
	"msql/internal/wire"
)

// TestLazyDialKeepsRefusalTransient: a site that refuses connections
// while it restarts must stay a transient failure through the directory,
// so the termination protocol retries it instead of giving up.
func TestLazyDialKeepsRefusalTransient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	_, err = New().Resolve(addr)
	if !errors.Is(err, ErrNoClient) || !wire.Transient(err) {
		t.Fatalf("Resolve(%s) = %v, want ErrNoClient wrapping a transient dial error", addr, err)
	}
}

// TestRecoverBoundsSilentSiteDial: a site that accepts TCP but never
// answers the hello must not hold Recover's orphan sweep past the
// engine's RecoverTimeout: the lazy dial through the directory takes the
// round's deadline.
func TestRecoverBoundsSilentSiteDial(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var held []net.Conn
	var mu sync.Mutex
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, c := range held {
			c.Close()
		}
		mu.Unlock()
	})

	fed := New()
	j, err := mtlog.Open(filepath.Join(t.TempDir(), "coord.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fed.SetJournal(j)
	fed.SetRecovery(lam.RetryPolicy{}, 200*time.Millisecond)
	fed.AD.Incorporate(catalog.ServiceEntry{Name: "svc_silent", Site: ln.Addr().String()})

	done := make(chan error, 1)
	go func() {
		_, err := fed.Recover(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Recover reached a site that never answered")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recover still dialling a silent site after 5s; RecoverTimeout is 200ms")
	}
}

// countingProxy forwards TCP connections to a backend and counts the ones
// it accepts.
type countingProxy struct {
	ln      net.Listener
	accepts atomic.Int64
	mu      sync.Mutex
	conns   []net.Conn
}

func newCountingProxy(t *testing.T, backend string) *countingProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &countingProxy{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			p.accepts.Add(1)
			b, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, b)
			p.mu.Unlock()
			go func() { io.Copy(b, c); b.Close() }()
			go func() { io.Copy(c, b); c.Close() }()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			c.Close()
		}
		p.mu.Unlock()
	})
	return p
}

// TestEndAcksRideThePooledClient: the END acknowledgment of a clean 2PC
// unit rides the next request of the site's pooled client, so once the
// first unit has warmed the pool, further units open no connection at
// all — while every participant still gets acknowledged and drops its
// tombstone as soon as the site hears from the coordinator again.
func TestEndAcksRideThePooledClient(t *testing.T) {
	srv := openSite(t, ldbms.Spec{Service: "svc_ack", DB: "ackdb", Boot: []string{
		"CREATE TABLE acct (id INTEGER, bal FLOAT)", "INSERT INTO acct VALUES (1, 0.0)",
	}})
	ts := serveLAM(t, srv)
	proxy := newCountingProxy(t, ts.Addr())

	fed := New()
	j, err := mtlog.Open(filepath.Join(t.TempDir(), "coord.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	fed.SetJournal(j)
	setup := fmt.Sprintf(`
INCORPORATE SERVICE svc_ack SITE '%s' CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
IMPORT DATABASE ackdb FROM SERVICE svc_ack;
`, proxy.ln.Addr())
	if _, err := fed.ExecScript(setup); err != nil {
		t.Fatal(err)
	}
	unit := func() {
		t.Helper()
		res, err := fed.ExecScript("USE ackdb VITAL\nUPDATE acct SET bal = bal + 1 WHERE id = 1")
		if err != nil {
			t.Fatal(err)
		}
		if st := res[len(res)-1].State; st != StateSuccess {
			t.Fatalf("unit state = %s, want success", st)
		}
		// The site's next request carries the ack.
		if _, err := fed.ExecScript("USE ackdb\nSELECT id FROM acct"); err != nil {
			t.Fatal(err)
		}
		if n := ts.Tombstones(); n != 0 {
			t.Fatalf("%d tombstones after a clean unit: the END ack did not arrive", n)
		}
	}
	unit() // warms the session pool
	warm := proxy.accepts.Load()
	const n = 8
	for i := 0; i < n; i++ {
		unit()
	}
	if p := srv.Stats().Prepares; p != n+1 {
		t.Fatalf("prepares = %d, want %d: the units were not two-phase", p, n+1)
	}
	if extra := proxy.accepts.Load() - warm; extra != 0 {
		t.Fatalf("%d clean units opened %d connections beyond the warm pool, want 0", n, extra)
	}
}

// TestUnjournaledUnitsAcknowledgeTheirParticipants: a coordinator
// without a journal still ends every fully terminal unit with its END
// acknowledgments, so a LAM keeps no outcome tombstone per vote until
// its TTL (by default, forever). The last unit's acks ride the read
// that follows it.
func TestUnjournaledUnitsAcknowledgeTheirParticipants(t *testing.T) {
	fed, _, _, _, lams := faultFederation(t)
	const units = 20
	for i := 0; i < units; i++ {
		res, err := fed.ExecScript(vitalUpdate)
		if err != nil {
			t.Fatal(err)
		}
		if st := res[len(res)-1].State; st != StateSuccess {
			t.Fatalf("unit %d: state = %s, want success", i, st)
		}
	}
	if _, err := fed.ExecScript("USE continental united\nSELECT rate% FROM flight%"); err != nil {
		t.Fatal(err)
	}
	for db, ts := range lams {
		if n := ts.Tombstones(); n != 0 {
			t.Errorf("%s: %d tombstones after %d clean units, want 0", db, n, units)
		}
	}
}

// TestLoopbackParticipantsRecoverAsAborted: a LAM the federation serves
// on an ephemeral loopback port without a participant journal dies with
// the coordinator, and its prepared sessions with it. The decision names
// those branches without an address, so a restarted coordinator records
// them aborted instead of dialing a port nobody listens on any more.
func TestLoopbackParticipantsRecoverAsAborted(t *testing.T) {
	dir := t.TempDir()
	a := paperFederation(t, false)
	ja, err := mtlog.Open(filepath.Join(dir, "a.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer ja.Close()
	a.SetJournal(ja)
	res, err := a.ExecScript("USE continental VITAL delta VITAL\nUPDATE flight% SET rate% = rate% * 1.1")
	if err != nil {
		t.Fatal(err)
	}
	if st := res[len(res)-1].State; st != StateSuccess {
		t.Fatalf("state = %s, want success", st)
	}
	recs, err := ja.Records()
	if err != nil {
		t.Fatal(err)
	}
	var open []mtlog.Record // the unit as a crash right after its decision leaves it
	votes := 0
	for _, r := range recs {
		switch r.Type {
		case mtlog.TDecision:
			for _, b := range r.Branches {
				votes++
				if b.Addr != "" {
					t.Errorf("task %s journaled at %q, want no address", b.Task, b.Addr)
				}
			}
			fallthrough
		case mtlog.TBegin:
			open = append(open, r)
		}
	}
	if votes != 2 {
		t.Fatalf("%d branches in the decision, want 2", votes)
	}
	a.CloseServers() // the coordinator's process, and its LAMs, are gone

	b := paperFederation(t, false)
	b.SetRecovery(lam.RetryPolicy{Attempts: 1, BaseDelay: time.Millisecond}, 100*time.Millisecond)
	jb, err := mtlog.Open(filepath.Join(dir, "b.journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jb.Close()
	for i := range open {
		if err := jb.Append(&open[i]); err != nil {
			t.Fatal(err)
		}
	}
	b.SetJournal(jb)
	rep, err := b.Recover(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Multitransactions != 1 || len(rep.Unreachable) != 0 {
		t.Fatalf("recovery examined %d units, unreachable %+v; want 1 unit and nothing unreachable",
			rep.Multitransactions, rep.Unreachable)
	}
}

// TestCloseServersSendsQueuedAcks: the last unit's END acknowledgments
// wait for the site's next request; a federation shutting down sends
// them as it closes its clients, the lazily dialed ones included, so a
// clean exit leaves no tombstone (and no unacknowledged session for a
// participant journal to replay).
func TestCloseServersSendsQueuedAcks(t *testing.T) {
	ts := serveLAM(t, openSite(t, ldbms.Spec{Service: "svc_ack", DB: "ackdb", Boot: []string{
		"CREATE TABLE acct (id INTEGER, bal FLOAT)", "INSERT INTO acct VALUES (1, 0.0)",
	}}))
	fed := New()
	if _, err := fed.ExecScript(fmt.Sprintf(`
INCORPORATE SERVICE svc_ack SITE '%s' CONNECTMODE CONNECT COMMITMODE NOCOMMIT;
IMPORT DATABASE ackdb FROM SERVICE svc_ack;
`, ts.Addr())); err != nil {
		t.Fatal(err)
	}
	res, err := fed.ExecScript("USE ackdb VITAL\nUPDATE acct SET bal = bal + 1 WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if st := res[len(res)-1].State; st != StateSuccess {
		t.Fatalf("unit state = %s, want success", st)
	}
	if n := ts.Tombstones(); n != 1 {
		t.Fatalf("%d tombstones before the shutdown, want the queued ack's 1", n)
	}
	if err := fed.CloseServers(); err != nil {
		t.Fatal(err)
	}
	if n := ts.Tombstones(); n != 0 {
		t.Fatalf("%d tombstones after CloseServers, want 0", n)
	}
}
