// Command msql is the interactive shell and script runner for the
// extended multidatabase SQL implementation. It starts the demo
// federation of the paper's appendix (five databases on five simulated
// heterogeneous services) and executes MSQL statements against it.
//
// Usage:
//
//	msql                 # interactive shell on the demo federation
//	msql -f script.msql  # run a script
//	msql -e "USE avis national" -e "SELECT %code FROM car%"
//	msql -autocommit-cont # continental on an autocommit-only service
//	msql -journal mt.j -lam-journal lamj/  # durable 2PC on both sides
//	msql -data-dir data/ -buffer-pages 256 # disk-backed service stores
//	msql -fleet 12       # also incorporate a generated mixed-capability fleet
//	msql -serve 127.0.0.1:7940 -max-sessions 64 -max-concurrent 8 \
//	     -journal mt.j                      # concurrent coordinator
//
// In the shell, terminate statements with ';' or an empty line. The
// commands .dol on/.dol off toggle echoing the generated DOL programs,
// and .quit exits.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"msql/internal/admit"
	"msql/internal/core"
	"msql/internal/demo"
	"msql/internal/dol"
	"msql/internal/lam"
	"msql/internal/mdserver"
	"msql/internal/mtlog"
	"msql/internal/obs"
	"msql/internal/topology"
	"msql/internal/translate"
)

// main defers everything that must happen on the way out (journal and
// store close) inside realMain so a nonzero exit cannot skip it.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		file        = flag.String("f", "", "MSQL script file to run")
		autoCont    = flag.Bool("autocommit-cont", false, "put continental on an autocommit-only service")
		showDOL     = flag.Bool("dol", false, "echo generated DOL programs")
		seed        = flag.Int64("seed", 1, "fault-injection random seed")
		journalPath = flag.String("journal", "", "write-ahead multitransaction journal file: replayed at start, appended during the session, closed at exit")
		lamJournal  = flag.String("lam-journal", "", "directory of per-service participant journals: each demo service is served over TCP on a fixed loopback port with durable prepared state, replayed on the next start")
		breakerN    = flag.Int("breaker-threshold", 0, "consecutive transient failures that open a site's circuit breaker (0 disables breakers)")
		breakerCool = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open breaker waits before admitting a half-open trial")
		debugAddr   = flag.String("debug-addr", "", "serve /metrics, /debug/traces, /debug/queries, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
		showTrace   = flag.Bool("trace", false, "print the per-task timing tree of each executed script")
		slowMS      = flag.Int("slow-query-ms", 0, "log statements slower than this many milliseconds as JSON lines (0 disables the slow-query log)")
		slowPath    = flag.String("slow-query-log", "", "slow-query log destination file (default stderr); only meaningful with -slow-query-ms")

		dataDir     = flag.String("data-dir", "", "persist every service's store on disk under this directory: committed work checkpoints to slotted heap files and survives restarts")
		bufferPages = flag.Int("buffer-pages", 0, "buffer pool frames per disk-backed service store (0 = storage default); only meaningful with -data-dir")

		fleetN    = flag.Int("fleet", 0, "stand up an in-process mixed-capability LAM fleet of this many sites (two-phase, DDL-autocommit, and autocommit-only csv backends) and INCORPORATE them alongside the demo federation (0 disables)")
		fleetSeed = flag.Int64("fleet-seed", 1, "fleet layout seed; the same seed always generates the same site mix")
		fleetCSV  = flag.Float64("fleet-csv", 0.25, "fraction of fleet sites on the flat-file csv backend with the autocommit-only profile")
		fleetDir  = flag.String("fleet-dir", "", "directory for the fleet's participant journals and csv data (default: a temp dir removed at exit)")

		serveAddr   = flag.String("serve", "", "serve the federation to concurrent remote clients on this address instead of running a shell (SIGINT shuts down)")
		maxSessions = flag.Int("max-sessions", 0, "serve mode: connection cap; clients beyond it are answered with an overload error (0 = unlimited)")
		maxConc     = flag.Int("max-concurrent", 0, "statements executing at once before admission queues by tenant (0 = ungated)")
		tenantQueue = flag.Int("tenant-queue", 8, "queued statements allowed per tenant when -max-concurrent gates; excess is shed with an overload error")
		admitWait   = flag.Duration("admit-wait", 100*time.Millisecond, "longest a statement waits in the admission queue before being shed")
		stmtTimeout = flag.Duration("stmt-timeout", 0, "per-statement execution timeout (0 = unbounded)")
	)
	var execs multiFlag
	flag.Var(&execs, "e", "MSQL statement to execute (repeatable)")
	flag.Parse()

	fed, err := demo.Build(demo.Options{
		ContinentalAutoCommit: *autoCont,
		Seed:                  *seed,
		DataDir:               *dataDir,
		BufferPages:           *bufferPages,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bootstrap:", err)
		return 1
	}
	// Last on the way out: close the LAM clients, whose close sends the
	// last unit's END acknowledgments, stop the LAMs, then checkpoint the
	// stores, and only then stop the fleet the clients acknowledged to.
	// Commits already checkpointed; this flushes buffer pools and closes
	// the heap files (and participant journals) cleanly.
	var fleet *topology.Fleet
	defer func() {
		if err := fed.CloseServers(); err != nil {
			fmt.Fprintln(os.Stderr, "close stores:", err)
		}
		if fleet != nil {
			fleet.Close()
		}
	}()
	if *breakerN > 0 {
		fed.SetBreaker(lam.BreakerPolicy{Threshold: *breakerN, Cooldown: *breakerCool})
	}
	// The fleet comes up before any journal recovery so recovery can dial
	// its sites, and is incorporated through the same INCORPORATE SERVICE
	// / IMPORT DATABASE path a script would use.
	if *fleetN > 0 {
		dir := *fleetDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "msql-fleet-")
			if err != nil {
				fmt.Fprintln(os.Stderr, "fleet-dir:", err)
				return 1
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		} else if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "fleet-dir:", err)
			return 1
		}
		plan := topology.Generate(topology.Spec{
			Sites: *fleetN, Seed: *fleetSeed, CSVFraction: *fleetCSV,
		})
		if fleet, err = plan.Launch(dir); err != nil {
			fmt.Fprintln(os.Stderr, "fleet:", err)
			return 1
		}
		if _, err := fed.ExecScript(fleet.Script()); err != nil {
			fmt.Fprintln(os.Stderr, "fleet incorporate:", err)
			return 1
		}
		byProfile := map[string]int{}
		for _, s := range fleet.Sites {
			byProfile[s.Spec.Profile.Name]++
		}
		fmt.Fprintf(os.Stderr, "fleet: %d sites incorporated (%d oracle-like 2PC, %d ingres-like, %d autocommit-only csv), journals under %s\n",
			len(fleet.Sites), byProfile["oracle-like"], byProfile["ingres-like"],
			byProfile["autocommit-only"], dir)
	}
	if *debugAddr != "" {
		ln, err := obs.Serve(*debugAddr, obs.Default(), obs.DefaultTracer)
		if err != nil {
			fmt.Fprintln(os.Stderr, "debug-addr:", err)
			return 1
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "debug: http://%s/ — /metrics, /debug/traces, /debug/queries, /debug/vars, /debug/pprof\n", ln.Addr())
	}
	if *slowMS > 0 {
		dest := io.Writer(os.Stderr)
		if *slowPath != "" {
			f, err := os.OpenFile(*slowPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				fmt.Fprintln(os.Stderr, "slow-query-log:", err)
				return 1
			}
			defer f.Close()
			dest = f
		}
		obs.SetSlowQueryLog(obs.NewSlowQueryLog(dest, time.Duration(*slowMS)*time.Millisecond))
		defer obs.SetSlowQueryLog(nil)
	}
	// Durable participants come up before the coordinator journal is
	// replayed: Recover must be able to dial them.
	if *lamJournal != "" {
		if err := serveDurableLAMs(fed, *lamJournal); err != nil {
			fmt.Fprintln(os.Stderr, "lam-journal:", err)
			return 1
		}
	}
	if *journalPath != "" {
		j, err := mtlog.Open(*journalPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "journal:", err)
			return 1
		}
		defer j.Close()
		fed.SetJournal(j)
		rep, err := fed.Recover(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, "recover:", err)
			return 1
		}
		printRecovery(os.Stderr, rep)
	}
	if *maxConc > 0 {
		fed.SetAdmission(admit.New(admit.Config{
			MaxConcurrent:     *maxConc,
			MaxQueuePerTenant: *tenantQueue,
			MaxWait:           *admitWait,
		}))
	}
	if *stmtTimeout > 0 {
		fed.StmtTimeout = *stmtTimeout
	}

	// First SIGINT drains: execution stops at the next statement boundary,
	// the pending unit synchronizes, snapshots and the journal close
	// normally. A second SIGINT kills the process the default way.
	drain := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "\ninterrupt: draining — stopping at the next statement boundary")
		close(drain)
		signal.Stop(sigCh)
	}()
	fed.SetDrain(drain)

	// Serve mode: the federation becomes a long-running concurrent
	// coordinator; each accepted connection is an isolated session running
	// its own multitransactions in parallel with the others. The SIGINT
	// drain doubles as the shutdown signal.
	if *serveAddr != "" {
		srv, err := mdserver.Serve(*serveAddr, fed, mdserver.Options{MaxSessions: *maxSessions})
		if err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "msql: serving on %s (max-sessions %d, max-concurrent %d)\n",
			srv.Addr(), *maxSessions, *maxConc)
		<-drain
		srv.Close()
		return 0
	}

	run := func(src string) bool {
		return runSource(fed, src, *showDOL, *showTrace, os.Stdout, os.Stderr)
	}

	switch {
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if !run(string(data)) {
			return 1
		}
	case len(execs) > 0:
		if !run(strings.Join(execs, ";\n")) {
			return 1
		}
	default:
		repl(fed, *showDOL, *showTrace, drain)
	}
	return 0
}

// printRecovery reports one journal replay on startup.
func printRecovery(w io.Writer, rep *core.RecoveryReport) {
	if rep.Multitransactions == 0 {
		fmt.Fprintln(w, "journal: clean")
		return
	}
	fmt.Fprintf(w, "journal: examined %d open multitransaction(s): %d in-doubt participant(s) resolved, %d compensation(s) completed, %d participant(s) unreachable, %d compacted\n",
		rep.Multitransactions, len(rep.Resolved), len(rep.CompRuns), len(rep.Unreachable), rep.Compacted)
	for _, p := range rep.Resolved {
		decision := "rollback"
		if p.Commit {
			decision = "commit"
		}
		fmt.Fprintf(w, "  resolved: %s session %d at %s -> %s\n", p.Entry, p.SessionID, p.Addr, decision)
	}
	for _, p := range rep.Unreachable {
		fmt.Fprintf(w, "  unreachable: %s session %d at %s (left in journal for the next pass)\n", p.Entry, p.SessionID, p.Addr)
	}
	for _, name := range rep.CompRuns {
		fmt.Fprintf(w, "  compensation re-run: %s\n", name)
	}
}

// runSource executes one script and reports whether it succeeded. A
// script fails when parsing/execution errors out, or when any produced
// result is a failed outcome: an Incorrect or Unresolved global state, an
// Aborted state for a commit-mode synchronization (an explicit ROLLBACK
// aborting is the requested outcome, not a failure), or a
// multitransaction that reached no acceptable state. Script mode exits
// nonzero on failure so msql -f works in pipelines and CI.
func runSource(fed *core.Federation, src string, showDOL, showTrace bool, out, errw io.Writer) bool {
	results, err := fed.ExecScript(src)
	ok := true
	for _, r := range results {
		printResult(out, r, showDOL)
		if scriptFailed(r) {
			ok = false
		}
	}
	if showTrace {
		printTraceTree(fed, results, out)
	}
	if errors.Is(err, core.ErrDrained) {
		fmt.Fprintln(errw, "drained: remaining statements skipped")
		return false
	}
	if err != nil {
		fmt.Fprintln(errw, "error:", err)
		return false
	}
	return ok
}

// printTraceTree renders the timing tree of the trace the script's
// results belong to (every result of one ExecScript call shares one
// trace).
func printTraceTree(fed *core.Federation, results []*core.Result, w io.Writer) {
	if fed.Tracer == nil || len(results) == 0 {
		return
	}
	id := results[len(results)-1].TraceID
	if id == "" {
		return
	}
	if ts := fed.Tracer.ByID(id); ts != nil {
		fmt.Fprint(w, obs.FormatTrace(ts))
	}
}

// scriptFailed classifies one result as a failure for script-mode exit
// status purposes.
func scriptFailed(r *core.Result) bool {
	switch r.Kind {
	case core.KindSync:
		if r.State == core.StateAborted && r.Mode == translate.SyncRollback {
			return false // the script asked for the rollback
		}
		return r.State != core.StateSuccess
	case core.KindGlobalDML:
		return r.State != core.StateSuccess
	case core.KindMultiTx:
		return r.AchievedState == nil
	default:
		return false
	}
}

type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, "; ") }
func (m *multiFlag) Set(s string) error { *m = append(*m, s); return nil }

func repl(fed *core.Federation, showDOL, showTrace bool, drain <-chan struct{}) {
	fmt.Println("Extended MSQL shell — demo federation: continental delta united avis national")
	fmt.Println("End statements with ';' or an empty line; .dol on|off, .trace on|off, .gdd, .services, .quit")
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("msql> ")
		} else {
			fmt.Print("  ... ")
		}
	}
	draining := func() bool {
		select {
		case <-drain:
			return true
		default:
			return false
		}
	}
	flush := func() {
		src := strings.TrimSpace(buf.String())
		buf.Reset()
		if src == "" {
			return
		}
		results, err := fed.ExecScript(src)
		for _, r := range results {
			printResult(os.Stdout, r, showDOL)
		}
		if showTrace {
			printTraceTree(fed, results, os.Stdout)
		}
		if errors.Is(err, core.ErrDrained) {
			fmt.Fprintln(os.Stderr, "drained")
		} else if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		}
	}
	prompt()
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == ".quit" || trimmed == ".exit":
			return
		case trimmed == ".dol on":
			showDOL = true
		case trimmed == ".dol off":
			showDOL = false
		case trimmed == ".trace on":
			showTrace = true
		case trimmed == ".trace off":
			showTrace = false
		case trimmed == ".gdd":
			printGDD(os.Stdout, fed)
		case trimmed == ".services":
			printServices(os.Stdout, fed)
		case trimmed == "":
			flush()
		default:
			buf.WriteString(line)
			buf.WriteString("\n")
			if strings.HasSuffix(trimmed, ";") && !needsMore(buf.String()) {
				flush()
			}
		}
		if draining() {
			return
		}
		prompt()
	}
	flush()
}

// needsMore reports whether the buffered text is an unfinished
// multitransaction.
func needsMore(src string) bool {
	up := strings.ToUpper(src)
	return strings.Contains(up, "BEGIN MULTITRANSACTION") &&
		!strings.Contains(up, "END MULTITRANSACTION")
}

func printResult(w io.Writer, r *core.Result, showDOL bool) {
	if showDOL && r.DOL != "" {
		fmt.Fprintln(w, "-- generated DOL program:")
		fmt.Fprint(w, r.DOL)
	}
	switch r.Kind {
	case core.KindSelect:
		if r.Multitable != nil {
			fmt.Fprint(w, r.Multitable.Format())
		}
		// A partial answer is only honest when it says what is missing:
		// name each degraded entry and why its site was skipped.
		for _, d := range r.Degraded {
			fmt.Fprintf(w, "  degraded: %s omitted — %s\n", d.Entry, d.Reason)
		}
	case core.KindSync, core.KindGlobalDML:
		fmt.Fprintf(w, "global state: %s (DOLSTATUS=%d)\n", r.State, r.Status)
		for _, name := range sortedTaskNames(r) {
			fmt.Fprintf(w, "  %-14s %-10s %d row(s)\n", name, r.TaskStates[name], r.RowsAffected[name])
		}
		for _, c := range r.Compensated {
			fmt.Fprintf(w, "  %-14s compensated\n", c)
		}
		for _, d := range r.Degraded {
			fmt.Fprintf(w, "  degraded: %s — %s\n", d.Entry, d.Reason)
		}
		for _, p := range r.Unresolved {
			decision := "rollback"
			if p.Commit {
				decision = "commit"
			}
			fmt.Fprintf(w, "  in-doubt: %s (db %s) session %d at %s — resolve to %s\n", p.Entry, p.Database, p.SessionID, p.Addr, decision)
		}
	case core.KindMultiTx:
		if r.AchievedState != nil {
			fmt.Fprintf(w, "multitransaction committed acceptable state %d: %s\n",
				r.Status, strings.Join(r.AchievedState, " AND "))
		} else {
			fmt.Fprintf(w, "multitransaction failed: no acceptable state reachable (DOLSTATUS=%d)\n", r.Status)
		}
		for _, name := range sortedTaskNames(r) {
			fmt.Fprintf(w, "  %-14s %s\n", name, r.TaskStates[name])
		}
		for _, p := range r.Unresolved {
			decision := "rollback"
			if p.Commit {
				decision = "commit"
			}
			fmt.Fprintf(w, "  in-doubt: %s (db %s) session %d at %s — resolve to %s\n", p.Entry, p.Database, p.SessionID, p.Addr, decision)
		}
	case core.KindExplain:
		if r.Plan != nil {
			if r.PlanJSON {
				fmt.Fprintln(w, r.Plan.JSON())
			} else {
				fmt.Fprint(w, r.Plan.Render())
			}
		}
	case core.KindIncorporate:
		fmt.Fprintln(w, "service incorporated")
	case core.KindImport:
		fmt.Fprintln(w, "database imported")
	}
	for _, s := range r.Skipped {
		fmt.Fprintf(w, "  (skipped %s: %s)\n", s.Entry.Name, s.Reason)
	}
	for _, trig := range r.TriggersFired {
		fmt.Fprintf(w, "  (trigger %s fired)\n", trig)
	}
	for _, name := range sortedTaskNames(r) {
		if r.TaskStates[name] == dol.StatusError {
			fmt.Fprintf(w, "  warning: %s ended in engine error\n", name)
		}
	}
}

// demoServices are the services of the demo federation, used for
// per-service state snapshots.
var demoServices = []string{"svc_cont", "svc_delta", "svc_unit", "svc_avis", "svc_natl"}

// lamBasePort numbers the fixed loopback ports of -lam-journal TCP
// services. The ports must be stable across msql restarts: the
// coordinator journal records participant addresses at prepare time and
// recovery re-dials them.
const lamBasePort = 7841

// serveDurableLAMs serves every demo service on a fixed loopback port
// with a participant journal under dir, in place of its ephemeral LAM,
// and incorporates it at that address (its AD site, also the client's
// key), so synchronization points run over the wire with durable
// PREPARED votes and the coordinator journal, the directory and
// Recover's orphan sweep all name the participant the same way.
// Starting a server replays whatever prepared state the previous process
// left in its journal. Federation.CloseServers shuts the servers down
// (parked in-doubt sessions stay journaled for the next start).
func serveDurableLAMs(fed *core.Federation, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, svc := range demoServices {
		path := filepath.Join(dir, svc+".journal")
		j, err := mtlog.OpenParticipant(path)
		if err != nil {
			return fmt.Errorf("%s: %w", svc, err)
		}
		addr := fmt.Sprintf("127.0.0.1:%d", lamBasePort+i)
		ts, err := fed.ServeLocal(fed.Server(svc), addr, lam.ServeOptions{Journal: j})
		if err != nil {
			j.Close()
			return fmt.Errorf("%s on %s: %w", svc, addr, err)
		}
		entry, err := fed.AD.Lookup(svc)
		if err != nil {
			return err
		}
		entry.Site = addr
		fed.AD.Incorporate(*entry)
		if n := len(ts.InDoubt()); n > 0 {
			fmt.Fprintf(os.Stderr, "lam: %s on %s (journal %s) — %d in-doubt session(s) replayed\n", svc, addr, path, n)
		} else {
			fmt.Fprintf(os.Stderr, "lam: %s on %s (journal %s)\n", svc, addr, path)
		}
	}
	return nil
}

// printGDD lists the Global Data Dictionary contents.
func printGDD(w io.Writer, fed *core.Federation) {
	for _, dbName := range fed.GDD.DatabaseNames() {
		db, err := fed.GDD.Database(dbName)
		if err != nil {
			continue
		}
		fmt.Fprintf(w, "%s (service %s)\n", db.Name, db.Service)
		var tables []string
		for name := range db.Tables {
			tables = append(tables, name)
		}
		sort.Strings(tables)
		for _, name := range tables {
			def := db.Tables[name]
			kind := "table"
			if def.IsView {
				kind = "view"
			}
			fmt.Fprintf(w, "  %-20s %s(%s)\n", name, kind+" ", strings.Join(def.ColumnNames(), ", "))
		}
	}
	if mds := fed.GDD.MultidatabaseNames(); len(mds) > 0 {
		for _, name := range mds {
			members, _ := fed.GDD.Multidatabase(name)
			fmt.Fprintf(w, "multidatabase %s = %s\n", name, strings.Join(members, ", "))
		}
	}
}

// printServices lists the Auxiliary Directory contents.
func printServices(w io.Writer, fed *core.Federation) {
	for _, name := range fed.AD.Names() {
		entry, err := fed.AD.Lookup(name)
		if err != nil {
			continue
		}
		connect := "NOCONNECT"
		if entry.Connect {
			connect = "CONNECT"
		}
		commit := "NOCOMMIT (2PC)"
		if entry.AutoCommitOnly {
			commit = "COMMIT (autocommit only)"
		}
		site := entry.Site
		if site == "" {
			site = "(in-process)"
		}
		fmt.Fprintf(w, "%-12s site %-18s %-10s %s", name, site, connect, commit)
		for _, class := range []string{"CREATE", "INSERT", "DROP"} {
			if entry.DDLCommit[class] {
				fmt.Fprintf(w, " %s=COMMIT", class)
			}
		}
		fmt.Fprintln(w)
	}
}

func sortedTaskNames(r *core.Result) []string {
	names := make([]string, 0, len(r.TaskStates))
	for n := range r.TaskStates {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
