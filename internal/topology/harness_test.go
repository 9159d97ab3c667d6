package topology

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"msql/internal/admit"
	"msql/internal/core"
	"msql/internal/lam"
	"msql/internal/mdserver"
	"msql/internal/mtlog"
	"msql/internal/obs"
	"msql/internal/sqlengine"
	"msql/internal/wire"
)

// The crash-test harness's test half: the coordinator child, the kill
// wrapper, journal readers and artifact saving. Only tests use them, and
// the coordinator child needs core and mdserver, which the package
// proper must not import (mdserver's tests build the demo federation,
// and the demo builds its sites here).

// TestMain routes child processes — site LAM servers and coordinator
// servers — before any test runs; the parent proceeds normally.
func TestMain(m *testing.M) {
	if os.Getenv(envCoord) != "" {
		coordMain() // never returns
	}
	if IsChild() {
		ChildMain() // never returns
	}
	os.Exit(m.Run())
}

var bg = context.Background()

// envArtifacts names a directory where a failed crash test copies its
// journals and child logs, and where the soaks always leave their
// incident journal and slow-query logs (CI uploads it).
const envArtifacts = "MSQL_CHAOS_ARTIFACTS"

// saveOnFailure copies every file of dir into
// $MSQL_CHAOS_ARTIFACTS/<test> when the test fails, and returns the
// artifact directory ("" when unset).
func saveOnFailure(t *testing.T, dir string) string {
	dst := os.Getenv(envArtifacts)
	if dst != "" {
		t.Cleanup(func() {
			if t.Failed() {
				_ = copyDir(dir, filepath.Join(dst, t.Name()))
			}
		})
	}
	return dst
}

// copyDir copies every regular file under src into dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	data, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, data, 0o644)
}

// incident is one injected fault, recorded into the incident journal
// artifact.
type incident struct {
	AtMS   int64  `json:"at_ms"`
	Kind   string `json:"kind"`
	Target string `json:"target"`
}

// incidentLog records injected faults; a nil log records nothing.
type incidentLog struct {
	mu    sync.Mutex
	start time.Time
	list  []incident
}

func (l *incidentLog) add(kind, target string) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.list = append(l.list, incident{
		AtMS: time.Since(l.start).Milliseconds(), Kind: kind, Target: target})
	l.mu.Unlock()
}

func (l *incidentLog) dump(path string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return
	}
	defer f.Close()
	enc := json.NewEncoder(f)
	for _, in := range l.list {
		_ = enc.Encode(in)
	}
}

// killClient wraps a child site's LAM client so a test can SIGKILL the
// server at exact 2PC phase boundaries — the process-level analog of
// the netfault sever wrappers. Each trigger fires once.
type killClient struct {
	lam.Client
	proc *Proc
	log  *incidentLog
	name string

	// killBeforePrepare crashes the server before the task's last exec
	// can reach it, so before the vote that exec carries or precedes;
	// killAfterPrepare crashes it after the vote is durable and
	// acknowledged but before any decision arrives; killAfterCommit lets
	// the commit succeed server-side, then crashes and reports a lost
	// reply.
	killBeforePrepare atomic.Bool
	killAfterPrepare  atomic.Bool
	killAfterCommit   atomic.Bool
	// killOnExecPrefix crashes the site just before it receives a
	// statement with this SQL prefix (aimed at a compensation's DELETE).
	killOnExecPrefix atomic.Value // string
}

// killWrap dials the child p and registers the wrapped client with fed
// under p's address.
func killWrap(t *testing.T, fed *core.Federation, p *Proc, log *incidentLog, name string) *killClient {
	t.Helper()
	inner, err := lam.DialWith(bg, p.Addr(), lam.DialOptions{
		CallTimeout: 2 * time.Second,
		Retry:       lam.RetryPolicy{Attempts: 1, BaseDelay: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	kc := &killClient{Client: inner, proc: p, log: log, name: name}
	fed.RegisterClient(p.Addr(), kc)
	return kc
}

func (c *killClient) Open(ctx context.Context, db string) (lam.Session, error) {
	s, err := c.Client.Open(ctx, db)
	if err != nil {
		return nil, err
	}
	return &killSession{Session: s, c: c}, nil
}

func (c *killClient) fire(kind string) {
	c.log.add(kind, c.name)
	_ = c.proc.Kill()
}

type killSession struct {
	lam.Session
	c *killClient
}

func (s *killSession) Exec(ctx context.Context, sql string) (*sqlengine.Result, error) {
	if pfx, _ := s.c.killOnExecPrefix.Load().(string); pfx != "" && strings.HasPrefix(sql, pfx) {
		s.c.killOnExecPrefix.Store("")
		// The site dies before the statement lands: the caller sees a
		// transport failure and the statement never executed.
		s.c.fire("sigkill-before-exec:" + pfx)
	}
	if lam.EndingFrom(ctx) == wire.ReqPrepare && s.c.killBeforePrepare.CompareAndSwap(true, false) {
		s.c.fire("sigkill-before-prepare")
	}
	return s.Session.Exec(ctx, sql)
}

func (s *killSession) Prepare(ctx context.Context) error {
	err := s.Session.Prepare(ctx)
	if err == nil && s.c.killAfterPrepare.CompareAndSwap(true, false) {
		s.c.fire("sigkill-after-prepare")
	}
	return err
}

// Commit reports the reply lost in the crash as the connection reset a
// real client sees: an error the engine takes for an unanswered commit,
// leaving the task in doubt rather than failed.
func (s *killSession) Commit(ctx context.Context) error {
	err := s.Session.Commit(ctx)
	if err == nil && s.c.killAfterCommit.CompareAndSwap(true, false) {
		s.c.fire("sigkill-after-commit")
		return fmt.Errorf("topology: commit reply lost in crash: %w", syscall.ECONNRESET)
	}
	return err
}

// queryAt runs sql on db at the LAM at addr through a client of its own
// — the out-of-process ground truth of what a child site holds.
func queryAt(t *testing.T, addr, db, sql string) *sqlengine.Result {
	t.Helper()
	c, err := lam.Dial(addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer c.Close()
	sess, err := c.Open(bg, db)
	if err != nil {
		t.Fatalf("open %s at %s: %v", db, addr, err)
	}
	defer sess.Close()
	res, err := sess.Exec(bg, sql)
	if err != nil {
		t.Fatalf("%q at %s: %v", sql, addr, err)
	}
	return res
}

// participantSessions reads a participant journal read-only (no
// truncation, no repair); a missing file holds no session.
func participantSessions(t *testing.T, path string) []*mtlog.PSession {
	t.Helper()
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _ := mtlog.DecodeAll(data)
	return mtlog.ReconstructParticipant(recs)
}

// waitDrained polls until the coordinator journal at coord ("" for
// none) holds no open multitransaction and no participant journal an
// unacknowledged session. Compaction swaps a journal by rename, so a
// read sees a consistent before-or-after image.
func waitDrained(t *testing.T, coord string, participants ...string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		open, unacked := 0, 0
		if coord != "" {
			data, err := os.ReadFile(coord)
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			recs, _, _ := mtlog.DecodeAll(data)
			for _, s := range mtlog.Reconstruct(recs) {
				if !s.Ended {
					open++
				}
			}
		}
		for _, path := range participants {
			for _, s := range participantSessions(t, path) {
				if !s.Acked {
					unacked++
				}
			}
		}
		if open == 0 && unacked == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("journals never drained: %d open multitransactions, %d unacked participant sessions",
				open, unacked)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// envCoord carries a coordinator child's JSON configuration; its
// presence turns the test binary into a coordinator server process.
const envCoord = "MSQL_CHAOS_COORD"

// coordConfig is what a coordinator child runs from: the sites it
// federates, their listen addresses by service, and its own paths.
type coordConfig struct {
	paths
	Sites []SiteSpec
	Addrs map[string]string
}

// The coordinator child's settings: a connection cap, statement
// admission tight enough that 36 soak clients over 4 tenants overflow
// the queues (so sheds are guaranteed) yet loose enough that admitted
// work flows under -race, a statement timeout, and a 1ms slow-query
// threshold that a synchronized unit's TCP 2PC rounds and journal
// fsyncs always cross.
const (
	coordMaxSessions = 64
	coordSlowQuery   = time.Millisecond
	coordStmtTimeout = 5 * time.Second
)

var coordAdmission = admit.Config{MaxConcurrent: 8, MaxQueuePerTenant: 4, MaxWait: 150 * time.Millisecond}

// coordSlowLog is the coordinator child's slow-query log in dir; every
// incarnation appends to it.
func coordSlowLog(dir string) string { return filepath.Join(dir, "slow-query.log") }

// launchCoord starts a coordinator child under dir over already-running
// site children and waits until its recovery has finished and it
// accepts connections.
func launchCoord(dir string, sites []SiteSpec, addrs map[string]string) (*Proc, error) {
	ps, err := newPaths(dir, "coord")
	if err != nil {
		return nil, err
	}
	return startProc(dir, "coord", envCoord, ps, coordConfig{paths: ps, Sites: sites, Addrs: addrs})
}

// coordMain runs the coordinator child: federate the configured sites,
// open the journal, run crash recovery — the journal-driven pass, then
// the participant-side orphan sweep — and only then serve clients and
// write the readiness file, so a parent that sees the file knows the
// in-doubt backlog is gone. It never returns.
func coordMain() {
	var cfg coordConfig
	if err := json.Unmarshal([]byte(os.Getenv(envCoord)), &cfg); err != nil {
		fatal("coord child", "bad config: %v", err)
	}
	fed := core.New()
	fed.SetRecovery(lam.RetryPolicy{Attempts: 10, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 100 * time.Millisecond}, 2*time.Second)
	for _, s := range cfg.Sites {
		addr := cfg.Addrs[s.Service]
		client, err := lam.DialWith(bg, addr, lam.DialOptions{CallTimeout: 5 * time.Second})
		if err != nil {
			fatal("coord child", "dial %s at %s: %v", s.Service, addr, err)
		}
		fed.RegisterClient(addr, client)
	}
	plan := &Plan{Sites: cfg.Sites}
	if _, err := fed.ExecScript(plan.Script(func(s SiteSpec) string { return cfg.Addrs[s.Service] })); err != nil {
		fatal("coord child", "federate: %v", err)
	}
	j, err := mtlog.Open(cfg.Journal)
	if err != nil {
		fatal("coord child", "open journal: %v", err)
	}
	fed.SetJournal(j)
	rep, err := fed.Recover(bg)
	if err != nil {
		fatal("coord child", "recover: %v", err)
	}
	if len(rep.Unreachable) > 0 {
		fatal("coord child", "recover left %d unreachable participants: %+v", len(rep.Unreachable), rep.Unreachable)
	}

	fed.SetAdmission(admit.New(coordAdmission))
	fed.StmtTimeout = coordStmtTimeout
	slow, err := os.OpenFile(coordSlowLog(filepath.Dir(cfg.Journal)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fatal("coord child", "slow-query log: %v", err)
	}
	obs.SetSlowQueryLog(obs.NewSlowQueryLog(slow, coordSlowQuery))

	srv, err := mdserver.Serve(cfg.Addr, fed, mdserver.Options{MaxSessions: coordMaxSessions})
	if err != nil {
		fatal("coord child", "serve: %v", err)
	}
	if err := cfg.ready(srv.Addr()); err != nil {
		fatal("coord child", "addr file: %v", err)
	}
	fmt.Fprintf(os.Stderr, "coord child: serving %d sites on %s (journal %s, recovered %d mts, swept %d orphans)\n",
		len(cfg.Sites), srv.Addr(), cfg.Journal, rep.Multitransactions, len(rep.Orphans))
	select {} // serve until SIGKILLed
}
