package topology

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"
)

// envSite carries a site child's JSON configuration; its presence turns
// the test binary into a LAM server process (see ChildMain).
const envSite = "MSQL_CHAOS_CONFIG"

// paths are where a child process listens, journals and announces its
// readiness. They stay fixed across restarts: the coordinator's journal
// records the address at prepare time and recovery re-dials it.
type paths struct {
	Addr    string
	Journal string
	// AddrFile receives the listen address, atomically, once the child
	// accepts connections.
	AddrFile string
}

// newPaths reserves a loopback address and names the journal and
// readiness file <dir>/<name>.journal and <dir>/<name>.addr. The
// address is picked by binding an ephemeral port and releasing it; the
// brief gap before the child binds it is a test-only race, unavoidable
// without fd passing.
func newPaths(dir, name string) (paths, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return paths{}, err
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return paths{}, err
	}
	return paths{
		Addr:     addr,
		Journal:  filepath.Join(dir, name+".journal"),
		AddrFile: filepath.Join(dir, name+".addr"),
	}, nil
}

// ready writes addr to the readiness file atomically, so the parent
// never reads a torn address.
func (p paths) ready(addr string) error {
	tmp := p.AddrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(addr), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, p.AddrFile)
}

// siteConfig is what a site child runs from: the site, its paths and
// the server's tombstone TTL.
type siteConfig struct {
	paths
	Site           SiteSpec
	TombstoneTTLMS int
}

// IsChild reports whether this process was launched as a site child.
// TestMain must route it to ChildMain before running tests.
func IsChild() bool { return os.Getenv(envSite) != "" }

// ChildMain runs a site child: build the site (a disk or csv site
// relaunched on its Dir keeps its data and skips Boot), open the
// participant journal — replaying any prepared state a previous
// incarnation left — and serve it on the fixed address. It never
// returns: the process serves until killed (exit code 1 on startup
// failure).
func ChildMain() {
	var cfg siteConfig
	if err := json.Unmarshal([]byte(os.Getenv(envSite)), &cfg); err != nil {
		fatal("site child", "bad config: %v", err)
	}
	srv, err := cfg.Site.Build()
	if err != nil {
		fatal("site child", "%v", err)
	}
	ts, err := serve(cfg.Addr, srv, cfg.Journal, time.Duration(cfg.TombstoneTTLMS)*time.Millisecond)
	if err != nil {
		fatal("site child", "serve: %v", err)
	}
	if err := cfg.ready(ts.Addr()); err != nil {
		fatal("site child", "addr file: %v", err)
	}
	fmt.Fprintf(os.Stderr, "site child: %s serving %s on %s (journal %s)\n",
		cfg.Site.Service, cfg.Site.DB, ts.Addr(), cfg.Journal)
	select {} // serve until SIGKILLed
}

// fatal reports a child's startup failure on stderr (its log file) and
// exits 1.
func fatal(who, format string, args ...any) {
	fmt.Fprintf(os.Stderr, who+": "+format+"\n", args...)
	os.Exit(1)
}

// Proc is one crash-test child process: the test binary re-executed
// with its configuration in the environment. Kill and Restart are safe
// to call from different goroutines (a test's fault injector kills from
// the engine's path while a timer restarts).
type Proc struct {
	paths paths
	dir   string // logs land here as <name>-run<launch>.log
	name  string
	env   string

	mu     sync.Mutex
	cmd    *exec.Cmd
	launch int
}

// LaunchSite starts site as a child LAM server under dir, with its
// journal at <dir>/<service>.journal, and waits until it accepts
// connections.
func LaunchSite(dir string, site SiteSpec, tombstoneTTL time.Duration) (*Proc, error) {
	ps, err := newPaths(dir, site.Service)
	if err != nil {
		return nil, err
	}
	return startProc(dir, site.Service, envSite, ps, siteConfig{
		paths: ps, Site: site, TombstoneTTLMS: int(tombstoneTTL / time.Millisecond),
	})
}

// startProc launches a child serving on ps that finds cfg, as JSON, in
// the environment variable env, and waits for its readiness file.
func startProc(dir, name, env string, ps paths, cfg any) (*Proc, error) {
	b, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	p := &Proc{paths: ps, dir: dir, name: name, env: env + "=" + string(b)}
	if err := p.Restart(); err != nil {
		return nil, err
	}
	return p, nil
}

// Addr returns the child's listen address, the same for every
// incarnation.
func (p *Proc) Addr() string { return p.paths.Addr }

// Journal is the path of the child's journal, shared by every
// incarnation.
func (p *Proc) Journal() string { return p.paths.Journal }

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
	err := p.cmd.Process.Kill()
	_, _ = p.cmd.Process.Wait()
	p.cmd = nil
	return err
}

// Restart (re)launches the child on the same address and journal,
// killing a running incarnation first, and returns once the child has
// written its readiness file: a site child has replayed its journal, a
// coordinator child has finished its recovery.
func (p *Proc) Restart() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.killLocked(); err != nil {
		return err
	}
	_ = os.Remove(p.paths.AddrFile)
	p.launch++
	logPath := filepath.Join(p.dir, fmt.Sprintf("%s-run%d.log", p.name, p.launch))
	logf, err := os.Create(logPath)
	if err != nil {
		return err
	}
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), p.env)
	cmd.Stdout = logf
	cmd.Stderr = logf
	err = cmd.Start()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return err
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(p.paths.AddrFile); err == nil && len(b) > 0 {
			p.cmd = cmd
			return nil
		}
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
			log, _ := os.ReadFile(logPath)
			return fmt.Errorf("topology: child %s never became ready; log:\n%s", p.name, log)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Stop kills the child if it is still running (for cleanups).
func (p *Proc) Stop() { _ = p.Kill() }
