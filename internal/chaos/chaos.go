// Package chaos is a process-level crash-test harness for participant
// durability: it launches a real LAM TCP server as a child process
// (re-executing the test binary), kills it with SIGKILL at chosen 2PC
// phase boundaries, and relaunches it on the same participant journal.
// Tests drive a coordinator against the child and assert the §3.2.2
// guarantees across the crash: no lost commits, no double-applied
// effects, clean journal compaction.
//
// The child half runs when the test binary finds MSQL_CHAOS_CONFIG in
// its environment: TestMain must call IsChild/ChildMain before running
// tests. The child builds an ldbms server from the configured bootstrap
// (modeling the deterministic base state a real site would reload),
// opens the participant journal — replaying any prepared state a
// previous incarnation left — serves it on the configured fixed
// address, writes the address to a readiness file, and blocks until
// killed.
package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"msql/internal/csvstore"
	"msql/internal/lam"
	"msql/internal/ldbms"
	"msql/internal/mtlog"
	"msql/internal/schema"
)

const (
	// EnvConfig carries the child's JSON configuration; its presence turns
	// the test binary into a LAM server process.
	EnvConfig = "MSQL_CHAOS_CONFIG"
	// EnvArtifacts names a directory where SaveArtifacts copies journals
	// and child logs for post-mortem (CI uploads it on failure).
	EnvArtifacts = "MSQL_CHAOS_ARTIFACTS"
)

// Config describes one child LAM server.
type Config struct {
	// Service and DB name the ldbms server and its database.
	Service string
	DB      string
	// Addr is the fixed listen address. It must be stable across restarts:
	// the coordinator's journal records it at prepare time and recovery
	// re-dials it.
	Addr string
	// Journal is the participant journal path, shared by every
	// incarnation of the child.
	Journal string
	// AddrFile is the readiness handshake: the child writes its listen
	// address there (atomically) once it is accepting connections.
	AddrFile string
	// Boot is the bootstrap SQL establishing the deterministic base state,
	// executed and committed before the journal is replayed.
	Boot []string
	// Backend selects the storage engine: "rel" (default — the full
	// relstore engine, prepared-state replay and all) or "csv" (the
	// flat-file store: write-through, no prepare interface).
	Backend string
	// Profile selects the ldbms capability profile: "oracle" (default),
	// "ingres", "sybase", or "autocommit". A "csv" backend is normally
	// paired with "autocommit" — the store cannot hold a prepared state.
	Profile string
	// Dir is the data directory for the "csv" backend; table files there
	// survive SIGKILL and are reloaded by the next incarnation. Empty
	// keeps the store in memory (state dies with the process).
	Dir string
	// TombstoneTTLMS and CompactEvery configure the server's tombstone
	// eviction and journal compaction (zero = server defaults).
	TombstoneTTLMS int
	CompactEvery   int
}

// IsChild reports whether this process was launched as a chaos child.
func IsChild() bool { return os.Getenv(EnvConfig) != "" }

// ChildMain runs the child LAM server. It never returns: the process
// serves until killed (exit code 1 on startup failure).
func ChildMain() {
	cfg := Config{}
	if err := json.Unmarshal([]byte(os.Getenv(EnvConfig)), &cfg); err != nil {
		fatal("bad config: %v", err)
	}
	var profile ldbms.Profile
	switch cfg.Profile {
	case "", "oracle":
		profile = ldbms.ProfileOracleLike()
	case "ingres":
		profile = ldbms.ProfileIngresLike()
	case "sybase":
		profile = ldbms.ProfileSybaseLike()
	case "autocommit":
		profile = ldbms.ProfileAutoCommitOnly()
	default:
		fatal("unknown profile %q", cfg.Profile)
	}
	var srv *ldbms.Server
	switch cfg.Backend {
	case "", "rel":
		srv = ldbms.NewServer(cfg.Service, profile, 1)
	case "csv":
		cs, err := csvstore.Open(cfg.Dir)
		if err != nil {
			fatal("open csv store: %v", err)
		}
		srv = ldbms.NewServerOn(cfg.Service, profile, 1, cs)
	default:
		fatal("unknown backend %q", cfg.Backend)
	}
	// A durable csv child relaunched on its data directory already holds
	// the database — and its bootstrapped tables — on disk; only a fresh
	// database runs the bootstrap SQL.
	fresh := true
	if err := srv.CreateDatabase(cfg.DB); err != nil {
		if !errors.Is(err, schema.ErrDBExists) {
			fatal("create database: %v", err)
		}
		fresh = false
	}
	if fresh {
		sess, err := srv.OpenSession(cfg.DB)
		if err != nil {
			fatal("open session: %v", err)
		}
		for _, q := range cfg.Boot {
			if _, err := sess.Exec(q); err != nil {
				fatal("boot %q: %v", q, err)
			}
		}
		if err := sess.Commit(); err != nil {
			fatal("boot commit: %v", err)
		}
		sess.Close()
	}

	j, err := mtlog.OpenParticipant(cfg.Journal)
	if err != nil {
		fatal("open journal: %v", err)
	}
	ts, err := lam.ServeWith(cfg.Addr, srv, lam.ServeOptions{
		Journal:      j,
		TombstoneTTL: time.Duration(cfg.TombstoneTTLMS) * time.Millisecond,
		CompactEvery: cfg.CompactEvery,
	})
	if err != nil {
		fatal("serve: %v", err)
	}
	// Readiness: the address lands atomically so the parent never reads a
	// torn file.
	tmp := cfg.AddrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(ts.Addr()), 0o644); err != nil {
		fatal("addr file: %v", err)
	}
	if err := os.Rename(tmp, cfg.AddrFile); err != nil {
		fatal("addr file rename: %v", err)
	}
	fmt.Fprintf(os.Stderr, "chaos child: %s serving %s on %s (journal %s)\n",
		cfg.Service, cfg.DB, ts.Addr(), cfg.Journal)
	select {} // serve until SIGKILLed
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chaos child: "+format+"\n", args...)
	os.Exit(1)
}

// PickAddr reserves a fixed loopback address by binding an ephemeral
// port and releasing it. The brief gap before the child binds it is a
// test-only race, acceptable here and unavoidable without fd passing.
func PickAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// childCmd wraps one launched child process for kill-and-reap.
type childCmd struct{ cmd *exec.Cmd }

func (c *childCmd) kill() error {
	if c.cmd == nil || c.cmd.Process == nil {
		return nil
	}
	if err := c.cmd.Process.Kill(); err != nil {
		return err
	}
	_, _ = c.cmd.Process.Wait()
	return nil
}

// launchChildProcess re-executes the test binary as a child carrying
// env, logging to <name>-run<launch>.log under dir, and waits up to 10s
// for the readiness address file. TestMain's IsChild/IsCoordChild hooks
// route the child before any test runs.
func launchChildProcess(dir, name string, launch int, env, addrFile string) (*childCmd, string, error) {
	_ = os.Remove(addrFile)
	logPath := filepath.Join(dir, fmt.Sprintf("%s-run%d.log", name, launch))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, "", err
	}
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), env)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, "", err
	}
	logf.Close() // the child holds its own descriptor

	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			return &childCmd{cmd: cmd}, string(b), nil
		}
		if st := cmd.ProcessState; st != nil || time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
			log, _ := os.ReadFile(logPath)
			return nil, "", fmt.Errorf("chaos child %s never became ready; log:\n%s", name, log)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Proc is one child server process and its relaunch state. Kill and
// Restart are safe to call from different goroutines (a test's fault
// injector kills from the engine's path while a timer restarts).
type Proc struct {
	Cfg Config
	Dir string // scratch dir: addr file, child logs

	mu     sync.Mutex
	cmd    *childCmd
	addr   string
	launch int
}

// Launch starts a child LAM server for cfg (filling in Addr, Journal,
// and AddrFile under dir when empty) and waits until it accepts
// connections.
func Launch(dir string, cfg Config) (*Proc, error) {
	if cfg.Addr == "" {
		a, err := PickAddr()
		if err != nil {
			return nil, err
		}
		cfg.Addr = a
	}
	if cfg.Journal == "" {
		cfg.Journal = filepath.Join(dir, cfg.Service+".journal")
	}
	if cfg.AddrFile == "" {
		cfg.AddrFile = filepath.Join(dir, cfg.Service+".addr")
	}
	p := &Proc{Cfg: cfg, Dir: dir}
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, nil
}

// Addr returns the child's listen address.
func (p *Proc) Addr() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.addr
}

func (p *Proc) start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.startLocked()
}

func (p *Proc) startLocked() error {
	cfgJSON, err := json.Marshal(p.Cfg)
	if err != nil {
		return err
	}
	p.launch++
	cmd, addr, err := launchChildProcess(p.Dir, p.Cfg.Service, p.launch,
		EnvConfig+"="+string(cfgJSON), p.Cfg.AddrFile)
	if err != nil {
		return err
	}
	p.cmd, p.addr = cmd, addr
	return nil
}

// Kill delivers SIGKILL — a crash, not a shutdown: no deferred
// rollbacks, no journal close, no flushes beyond what fsync already
// forced — and reaps the process.
func (p *Proc) Kill() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.killLocked()
}

func (p *Proc) killLocked() error {
	if p.cmd == nil {
		return nil
	}
	err := p.cmd.kill()
	p.cmd = nil
	return err
}

// Restart relaunches the child on the same address and journal,
// triggering its replay of the prepared state the crash left behind.
func (p *Proc) Restart() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cmd != nil {
		if err := p.killLocked(); err != nil {
			return err
		}
	}
	return p.startLocked()
}

// Stop kills the child if it is still running (for cleanups).
func (p *Proc) Stop() { _ = p.Kill() }

// SaveArtifacts copies the child's journal and logs into dst for
// post-mortem inspection (CI uploads this directory when a crash test
// fails). A missing dst disables saving.
func (p *Proc) SaveArtifacts(dst string) error {
	return saveDir(p.Dir, dst)
}

// saveDir copies every regular file under src into dst (creating it);
// an empty dst disables saving.
func saveDir(src, dst string) error {
	if dst == "" {
		return nil
	}
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
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// JournalSessions reads and reconstructs the child's participant journal
// from outside the process (read-only: no truncation, no repair).
func (p *Proc) JournalSessions() ([]*mtlog.PSession, error) {
	data, err := os.ReadFile(p.Cfg.Journal)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	recs, _, _ := mtlog.DecodeAll(data)
	return mtlog.ReconstructParticipant(recs), nil
}
