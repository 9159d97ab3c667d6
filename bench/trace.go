package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"msql/internal/backend"
	"msql/internal/lam"
	"msql/internal/sqlengine"
	"msql/internal/sqlparser"
)

// Span names. The root is one mdserver.Client.Script call; lam.* spans are
// recorded client side round each LAM round trip; backend.* spans are
// recorded server side round each storage-engine call.
const (
	spanRoot       = "script"
	spanLamOpen    = "lam.open"
	spanLamExec    = "lam.exec"
	spanLamPrepare = "lam.prepare"
	spanLamCommit  = "lam.commit"
	spanLamAbort   = "lam.rollback"
	spanLamClose   = "lam.close"
	spanBeExec     = "backend.exec"
	spanBePrepare  = "backend.prepare"
	spanBeCommit   = "backend.commit"
	spanBeAbort    = "backend.rollback"
	spanBeCkpt     = "backend.checkpoint"
)

// shipPrefix marks the INSERTs dolengine.execShip sends to the coordinator
// site (decompose names its temp tables mtmp_<db>).
const shipPrefix = "INSERT INTO mtmp_"

// span is one timed call. Start and End are nanoseconds since the
// recorder's epoch; Parent indexes the enclosing span (-1 for a root, -2
// for a span no enclosing span was found for).
type span struct {
	Name   string `json:"name"`
	Site   string `json:"site,omitempty"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Err    bool   `json:"err,omitempty"`
	Rows   int    `json:"rows,omitempty"`  // rows returned (backend.exec) or shipped (lam.exec)
	Bytes  int    `json:"bytes,omitempty"` // SQL text bytes of a ship INSERT
	IsShip bool   `json:"ship,omitempty"`
}

// exchange is one LAM Exec as the wire carries it, kept for the stage
// timings of sqlparser and gob.
type exchange struct {
	sql string
	res *sqlengine.Result
}

// recorder keeps spans in memory while on; the decorators pass straight
// through while it is off, so one federation serves both the untraced
// one-client baseline and the traced run.
type recorder struct {
	on    atomic.Bool
	epoch time.Time
	// captureFrom is the root count from which Exec texts and results are
	// kept too, for the stage timings.
	captureFrom int

	mu        sync.Mutex
	spans     []span
	roots     int
	exchanges []exchange
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) add(s span, start time.Time) {
	s.Start = int64(start.Sub(r.epoch))
	s.End = int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	if s.Name == spanRoot {
		r.roots++
	}
	r.mu.Unlock()
}

// timed runs call and, while the recorder is on, records it as a span.
func (r *recorder) timed(name, site string, call func() error) error {
	if !r.on.Load() {
		return call()
	}
	start := time.Now()
	err := call()
	r.add(span{Name: name, Site: site, Err: err != nil}, start)
	return err
}

// tracedClient times the LAM client seam (lam.Client as handed to
// Federation.RegisterClient).
type tracedClient struct {
	lam.Client
	rec  *recorder
	site string
}

func (c *tracedClient) Open(ctx context.Context, db string) (lam.Session, error) {
	var s lam.Session
	err := c.rec.timed(spanLamOpen, c.site, func() (err error) {
		s, err = c.Client.Open(ctx, db)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &tracedSession{Session: s, rec: c.rec, site: c.site}, nil
}

type tracedSession struct {
	lam.Session
	rec  *recorder
	site string
}

// RecoveryInfo forwards lam.Recoverable so the engine's in-doubt handling
// sees through the decorator; an empty address means not recoverable.
func (s *tracedSession) RecoveryInfo() (string, int64) {
	if r, ok := s.Session.(lam.Recoverable); ok {
		return r.RecoveryInfo()
	}
	return "", 0
}

func (s *tracedSession) Exec(ctx context.Context, sql string) (*sqlengine.Result, error) {
	if !s.rec.on.Load() {
		return s.Session.Exec(ctx, sql)
	}
	start := time.Now()
	res, err := s.Session.Exec(ctx, sql)
	sp := span{Name: spanLamExec, Site: s.site, Err: err != nil}
	if strings.HasPrefix(sql, shipPrefix) {
		sp.IsShip, sp.Bytes = true, len(sql)
		if res != nil {
			sp.Rows = res.RowsAffected
		}
	}
	s.rec.add(sp, start)
	if err == nil {
		s.rec.mu.Lock()
		if s.rec.roots >= s.rec.captureFrom {
			s.rec.exchanges = append(s.rec.exchanges, exchange{sql: sql, res: res})
		}
		s.rec.mu.Unlock()
	}
	return res, err
}

func (s *tracedSession) Prepare(ctx context.Context) error {
	return s.rec.timed(spanLamPrepare, s.site, func() error { return s.Session.Prepare(ctx) })
}

func (s *tracedSession) Commit(ctx context.Context) error {
	return s.rec.timed(spanLamCommit, s.site, func() error { return s.Session.Commit(ctx) })
}

func (s *tracedSession) Rollback(ctx context.Context) error {
	return s.rec.timed(spanLamAbort, s.site, func() error { return s.Session.Rollback(ctx) })
}

func (s *tracedSession) Close() error {
	return s.rec.timed(spanLamClose, s.site, s.Session.Close)
}

// tracedBackend times the storage seam (backend.Backend as handed to
// ldbms.NewServerOn).
type tracedBackend struct {
	backend.Backend
	rec  *recorder
	site string
}

func (b *tracedBackend) Begin() backend.Tx {
	return &tracedTx{Tx: b.Backend.Begin(), rec: b.rec, site: b.site}
}

func (b *tracedBackend) Checkpoint() error {
	return b.rec.timed(spanBeCkpt, b.site, b.Backend.Checkpoint)
}

type tracedTx struct {
	backend.Tx
	rec  *recorder
	site string
}

func (t *tracedTx) Exec(db, sql string, stmt sqlparser.Statement) (*sqlengine.Result, error) {
	if !t.rec.on.Load() {
		return t.Tx.Exec(db, sql, stmt)
	}
	start := time.Now()
	res, err := t.Tx.Exec(db, sql, stmt)
	sp := span{Name: spanBeExec, Site: t.site, Err: err != nil}
	if res != nil {
		sp.Rows = len(res.Rows)
	}
	t.rec.add(sp, start)
	return res, err
}

func (t *tracedTx) Prepare() error  { return t.rec.timed(spanBePrepare, t.site, t.Tx.Prepare) }
func (t *tracedTx) Commit() error   { return t.rec.timed(spanBeCommit, t.site, t.Tx.Commit) }
func (t *tracedTx) Rollback() error { return t.rec.timed(spanBeAbort, t.site, t.Tx.Rollback) }

// interval is a half-open [lo, hi) stretch of the recorder's clock.
type interval struct{ lo, hi int64 }

// unionLen returns the total length covered by ivs, clipped to within.
func unionLen(ivs []interval, within interval) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total int64
	end := within.lo
	for _, iv := range ivs {
		lo, hi := max(iv.lo, end), min(iv.hi, within.hi)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return total
}

// traceSummary is what the spans of one traced run add up to. Durations
// are nanosecond totals over all roots; divide by Roots for per-statement
// figures.
type traceSummary struct {
	Roots   int
	Orphans int // spans outside every root or, for backend spans, every lam span at their site

	RootNS int64
	// The wall partition of the roots: at every instant a root is charged
	// to the deepest layer active anywhere (backend, else lam, else core),
	// so the three add up to RootNS exactly even though sites run in
	// parallel.
	CoreSelfNS, LamWallNS, BackendWallNS int64
	// LamSelfNS sums, per lam span, its duration minus the backend spans
	// under it: busy time, which parallel sites make larger than wall.
	LamSelfNS int64

	LamCalls int              // lam spans of every kind: LAM round trips
	Count    map[string]int   // spans by name
	Busy     map[string]int64 // summed durations by name
	// BusyBySite splits Busy by site for the README's per-site breakdown.
	BusyBySite map[string]map[string]int64

	LamErrors    int
	RowsReturned int
	ShipExecs    int
	ShipBytes    int
	ShipRows     int
}

// summarize nests the spans by interval (one client, so at most one root
// is open at a time and at most one lam span per site), fills in Parent,
// and totals them.
func summarize(spans []span) *traceSummary {
	sum := &traceSummary{
		Count:      map[string]int{},
		Busy:       map[string]int64{},
		BusyBySite: map[string]map[string]int64{},
	}
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].Start < spans[order[b]].Start })

	var roots []int
	for _, i := range order {
		if spans[i].Name == spanRoot {
			spans[i].Parent = -1
			roots = append(roots, i)
		} else {
			spans[i].Parent = -2
		}
	}
	sum.Roots = len(roots)

	// children of each root, by layer
	lamOf := make(map[int][]int, len(roots))
	beOf := make(map[int][]int, len(roots))
	ri := 0
	for _, i := range order {
		s := &spans[i]
		if s.Name == spanRoot {
			continue
		}
		for ri < len(roots) && spans[roots[ri]].End <= s.Start {
			ri++
		}
		if ri == len(roots) || s.Start < spans[roots[ri]].Start {
			sum.Orphans++
			continue
		}
		root := roots[ri]
		if strings.HasPrefix(s.Name, "lam.") {
			s.Parent = root
			lamOf[root] = append(lamOf[root], i)
		} else {
			beOf[root] = append(beOf[root], i)
		}
	}

	for _, root := range roots {
		r := interval{spans[root].Start, spans[root].End}
		sum.RootNS += r.hi - r.lo
		var lamIv, beIv, both []interval
		under := map[int][]interval{} // backend intervals per lam span
		for _, i := range lamOf[root] {
			lamIv = append(lamIv, interval{spans[i].Start, spans[i].End})
		}
		for _, b := range beOf[root] {
			s := &spans[b]
			for _, l := range lamOf[root] {
				if spans[l].Site == s.Site && spans[l].Start <= s.Start && s.Start < spans[l].End {
					s.Parent = l
					under[l] = append(under[l], interval{s.Start, s.End})
					break
				}
			}
			if s.Parent < 0 {
				sum.Orphans++
				continue
			}
			beIv = append(beIv, interval{s.Start, s.End})
		}
		both = append(append(both, lamIv...), beIv...)
		be := unionLen(beIv, r)
		all := unionLen(both, r)
		sum.BackendWallNS += be
		sum.LamWallNS += all - be
		sum.CoreSelfNS += (r.hi - r.lo) - all
		for _, l := range lamOf[root] {
			li := interval{spans[l].Start, spans[l].End}
			sum.LamSelfNS += (li.hi - li.lo) - unionLen(under[l], li)
		}
	}

	for i := range spans {
		s := &spans[i]
		if s.Parent == -2 {
			continue
		}
		d := s.End - s.Start
		sum.Count[s.Name]++
		sum.Busy[s.Name] += d
		if s.Site != "" {
			if sum.BusyBySite[s.Site] == nil {
				sum.BusyBySite[s.Site] = map[string]int64{}
			}
			sum.BusyBySite[s.Site][s.Name] += d
		}
		switch {
		case strings.HasPrefix(s.Name, "lam."):
			sum.LamCalls++
			if s.Err {
				sum.LamErrors++
			}
			if s.IsShip {
				sum.ShipExecs++
				sum.ShipBytes += s.Bytes
				sum.ShipRows += s.Rows
			}
		case s.Name == spanBeExec:
			sum.RowsReturned += s.Rows
		}
	}
	return sum
}

// writeTrace stores the spans (with their parents filled in) as JSON.
func writeTrace(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
