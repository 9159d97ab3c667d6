package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"msql/internal/admit"
	"msql/internal/core"
	"msql/internal/lam"
	"msql/internal/mdserver"
	"msql/internal/mtlog"
	"msql/internal/obs"
)

// EnvCoordConfig carries a coordinator child's JSON configuration; its
// presence turns the test binary into a coordinator server process
// (mdserver over a journaled federation of already-running LAM
// children).
const EnvCoordConfig = "MSQL_CHAOS_COORD"

// CoordSite names one participant the coordinator child federates:
// a LAM child (see Config) serving DB at a fixed Addr.
type CoordSite struct {
	Service string
	DB      string
	Addr    string
	// AutoCommitOnly marks a site without a prepare interface (the csv
	// backend, or any !TwoPC profile): the coordinator incorporates it
	// COMMITMODE COMMIT — the federation rejects NOCOMMIT declarations
	// for such products at INCORPORATE time.
	AutoCommitOnly bool
}

// CoordConfig describes one coordinator child process.
type CoordConfig struct {
	// Addr is the fixed mdserver listen address, stable across restarts
	// so soak clients can redial through a crash.
	Addr string
	// Journal is the coordinator multitransaction journal, shared by
	// every incarnation.
	Journal string
	// AddrFile is the readiness handshake; the address lands there only
	// after crash recovery (Recover plus the orphan sweep) completes, so
	// a parent that sees the file knows the in-doubt backlog is gone.
	AddrFile string
	// Sites are the participants; their LAM children must already be
	// running when the coordinator starts.
	Sites []CoordSite
	// MaxSessions, MaxConcurrent, MaxQueuePerTenant, MaxWaitMS configure
	// the connection cap and statement admission control (zero
	// MaxConcurrent runs ungated).
	MaxSessions       int
	MaxConcurrent     int
	MaxQueuePerTenant int
	MaxWaitMS         int
	// StmtTimeoutMS bounds each statement (zero = unbounded).
	StmtTimeoutMS int
	// SlowQueryMS enables the slow-query log at this threshold.
	// Entries append to SlowQueryLog, so the file accumulates across
	// crash-restart incarnations of the child.
	SlowQueryMS  int
	SlowQueryLog string
}

// IsCoordChild reports whether this process was launched as a chaos
// coordinator child.
func IsCoordChild() bool { return os.Getenv(EnvCoordConfig) != "" }

// CoordMain runs the coordinator child: federate the configured sites,
// open the journal, run crash recovery — the
// journal-driven pass first, then the participant-side orphan sweep —
// and only then serve clients and write the readiness file. It never
// returns.
func CoordMain() {
	cfg := CoordConfig{}
	if err := json.Unmarshal([]byte(os.Getenv(EnvCoordConfig)), &cfg); err != nil {
		fatalCoord("bad config: %v", err)
	}
	fed := core.New()
	fed.SetRecovery(lam.RetryPolicy{Attempts: 10, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 100 * time.Millisecond}, 2*time.Second)

	var setup strings.Builder
	for _, s := range cfg.Sites {
		client, err := lam.DialWith(context.Background(), s.Addr, lam.DialOptions{
			CallTimeout: 5 * time.Second,
		})
		if err != nil {
			fatalCoord("dial %s at %s: %v", s.Service, s.Addr, err)
		}
		mode := "NOCOMMIT"
		if s.AutoCommitOnly {
			mode = "COMMIT"
		}
		fmt.Fprintf(&setup, "INCORPORATE SERVICE %s SITE '%s' CONNECTMODE CONNECT COMMITMODE %s;\n",
			s.Service, s.Addr, mode)
		fmt.Fprintf(&setup, "IMPORT DATABASE %s FROM SERVICE %s;\n", s.DB, s.Service)
		fed.RegisterClient(s.Addr, client)
	}
	if _, err := fed.ExecScript(setup.String()); err != nil {
		fatalCoord("federate: %v", err)
	}

	j, err := mtlog.Open(cfg.Journal)
	if err != nil {
		fatalCoord("open journal: %v", err)
	}
	fed.SetJournal(j)

	// Crash recovery before the first client. Recover drives every
	// journaled in-doubt participant to its logged decision, then sweeps
	// participant-side prepared sessions the journal never heard of (the
	// vote-vs-journal-write crash window).
	rep, err := fed.Recover(context.Background())
	if err != nil {
		fatalCoord("recover: %v", err)
	}
	if len(rep.Unreachable) > 0 {
		fatalCoord("recover left %d unreachable participants: %+v", len(rep.Unreachable), rep.Unreachable)
	}

	if cfg.MaxConcurrent > 0 {
		fed.SetAdmission(admit.New(admit.Config{
			MaxConcurrent:     cfg.MaxConcurrent,
			MaxQueuePerTenant: cfg.MaxQueuePerTenant,
			MaxWait:           time.Duration(cfg.MaxWaitMS) * time.Millisecond,
		}))
	}
	if cfg.StmtTimeoutMS > 0 {
		fed.StmtTimeout = time.Duration(cfg.StmtTimeoutMS) * time.Millisecond
	}
	if cfg.SlowQueryMS > 0 && cfg.SlowQueryLog != "" {
		slow, err := os.OpenFile(cfg.SlowQueryLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatalCoord("slow-query log: %v", err)
		}
		obs.SetSlowQueryLog(obs.NewSlowQueryLog(slow, time.Duration(cfg.SlowQueryMS)*time.Millisecond))
	}

	srv, err := mdserver.Serve(cfg.Addr, fed, mdserver.Options{MaxSessions: cfg.MaxSessions})
	if err != nil {
		fatalCoord("serve: %v", err)
	}
	tmp := cfg.AddrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(srv.Addr()), 0o644); err != nil {
		fatalCoord("addr file: %v", err)
	}
	if err := os.Rename(tmp, cfg.AddrFile); err != nil {
		fatalCoord("addr file rename: %v", err)
	}
	fmt.Fprintf(os.Stderr, "chaos coord: serving %d sites on %s (journal %s, recovered %d mts, swept %d orphans)\n",
		len(cfg.Sites), srv.Addr(), cfg.Journal, rep.Multitransactions, len(rep.Orphans))
	select {} // serve until SIGKILLed
}

func fatalCoord(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chaos coord: "+format+"\n", args...)
	os.Exit(1)
}

// CoordProc is one coordinator child process and its relaunch state,
// the coordinator-tier sibling of Proc.
type CoordProc struct {
	Cfg CoordConfig
	Dir string

	mu     sync.Mutex
	cmd    *childCmd
	addr   string
	launch int
}

// LaunchCoord starts a coordinator child for cfg (filling in Addr,
// Journal, and AddrFile under dir when empty) and waits until recovery
// has finished and it accepts connections.
func LaunchCoord(dir string, cfg CoordConfig) (*CoordProc, error) {
	if cfg.Addr == "" {
		a, err := PickAddr()
		if err != nil {
			return nil, err
		}
		cfg.Addr = a
	}
	if cfg.Journal == "" {
		cfg.Journal = filepath.Join(dir, "coord.journal")
	}
	if cfg.AddrFile == "" {
		cfg.AddrFile = filepath.Join(dir, "coord.addr")
	}
	if cfg.SlowQueryMS > 0 && cfg.SlowQueryLog == "" {
		cfg.SlowQueryLog = filepath.Join(dir, "slow-query.log")
	}
	p := &CoordProc{Cfg: cfg, Dir: dir}
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, nil
}

// Addr returns the coordinator's listen address.
func (p *CoordProc) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

func (p *CoordProc) start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.startLocked()
}

func (p *CoordProc) startLocked() error {
	cfgJSON, err := json.Marshal(p.Cfg)
	if err != nil {
		return err
	}
	p.launch++
	cmd, addr, err := launchChildProcess(p.Dir, "coord", p.launch,
		EnvCoordConfig+"="+string(cfgJSON), p.Cfg.AddrFile)
	if err != nil {
		return err
	}
	p.cmd, p.addr = cmd, addr
	return nil
}

// Kill delivers SIGKILL and reaps the process — a coordinator crash,
// stranding whatever 2PC windows were open.
func (p *CoordProc) Kill() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd == nil {
		return nil
	}
	err := p.cmd.kill()
	p.cmd = nil
	return err
}

// Restart relaunches the coordinator on the same address and journal.
// It returns only after the child's recovery pass finished (the
// readiness file is written after Recover and the orphan sweep).
func (p *CoordProc) Restart() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd != nil {
		if err := p.cmd.kill(); err != nil {
			return err
		}
		p.cmd = nil
	}
	return p.startLocked()
}

// Stop kills the coordinator if it is still running (for cleanups).
func (p *CoordProc) Stop() { _ = p.Kill() }

// JournalStates reads and reconstructs the coordinator journal from
// outside the process (read-only). Compaction swaps the file by rename,
// so a concurrent read sees a consistent before-or-after image.
func (p *CoordProc) JournalStates() ([]*mtlog.TxState, error) {
	data, err := os.ReadFile(p.Cfg.Journal)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	recs, _, _ := mtlog.DecodeAll(data)
	return mtlog.Reconstruct(recs), nil
}

// SaveArtifacts copies the shared scratch directory (journals, child
// logs) into dst for post-mortem inspection.
func (p *CoordProc) SaveArtifacts(dst string) error {
	return saveDir(p.Dir, dst)
}
