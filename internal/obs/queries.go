package obs

import (
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// QueryRecord is one statement's entry in the live query inventory: what
// is running (or recently ran), who issued it, how it was planned, and —
// for EXPLAIN ANALYZE'd or completed statements — where the time went.
type QueryRecord struct {
	ID      uint64    `json:"id"`
	TraceID string    `json:"trace_id,omitempty"`
	MTID    uint64    `json:"mtid,omitempty"`
	Tenant  string    `json:"tenant,omitempty"`
	Verb    string    `json:"verb,omitempty"`
	SQL     string    `json:"sql"`
	Start   time.Time `json:"start"`
	// Elapsed is zero while the statement is still in flight.
	Elapsed time.Duration `json:"elapsed_ns,omitempty"`
	Digest  string        `json:"plan_digest,omitempty"`
	Plan    *PlanNode     `json:"plan,omitempty"`
	Err     string        `json:"err,omitempty"`
	Done    bool          `json:"done"`
}

// QueryInventory tracks in-flight statements and keeps a bounded ring of
// recently completed ones, served by /debug/queries. All methods are safe
// for concurrent use and nil-safe so instrumentation points need no
// branches.
type QueryInventory struct {
	mu       sync.Mutex
	nextID   uint64
	inflight map[uint64]*QueryRecord
	recent   []*QueryRecord // oldest first
	cap      int
}

// NewQueryInventory returns an inventory retaining up to capacity
// completed statements (minimum 1).
func NewQueryInventory(capacity int) *QueryInventory {
	if capacity < 1 {
		capacity = 1
	}
	return &QueryInventory{inflight: make(map[uint64]*QueryRecord), cap: capacity}
}

// DefaultQueries is the process-wide inventory behind /debug/queries.
var DefaultQueries = NewQueryInventory(128)

// Begin registers a statement as in flight and returns its inventory id.
func (q *QueryInventory) Begin(rec QueryRecord) uint64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.nextID++
	rec.ID = q.nextID
	if rec.Start.IsZero() {
		rec.Start = time.Now()
	}
	r := rec
	q.inflight[r.ID] = &r
	return r.ID
}

// Finish moves a statement from in-flight to the recent ring, recording
// its outcome. A nil plan keeps whatever Begin recorded. The completed
// record is returned (by value, safe to hold) so callers can feed it to
// the slow-query log without re-assembling the fields.
func (q *QueryInventory) Finish(id uint64, elapsed time.Duration, plan *PlanNode, errMsg string) (QueryRecord, bool) {
	if q == nil || id == 0 {
		return QueryRecord{}, false
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	r, ok := q.inflight[id]
	if !ok {
		return QueryRecord{}, false
	}
	delete(q.inflight, id)
	r.Done = true
	r.Elapsed = elapsed
	r.Err = errMsg
	if plan != nil {
		r.Plan = plan
		r.Digest = plan.Digest()
	}
	q.recent = append(q.recent, r)
	for len(q.recent) > q.cap {
		q.recent = q.recent[1:]
	}
	return *r, true
}

// SetMTID stamps the multitransaction id onto an in-flight record once the
// coordinator assigns one (after Begin, during translation).
func (q *QueryInventory) SetMTID(id, mtid uint64) {
	if q == nil || id == 0 {
		return
	}
	q.mu.Lock()
	if r, ok := q.inflight[id]; ok {
		r.MTID = mtid
	}
	q.mu.Unlock()
}

// queryIDKey carries an inventory id through a statement's context so
// deeper layers (the coordinator journal, which assigns the MTID) can
// stamp fields onto the in-flight record.
type queryIDKey struct{}

// WithQueryID attaches a query-inventory id to a context.
func WithQueryID(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, queryIDKey{}, id)
}

// QueryIDFrom returns the inventory id attached to ctx, 0 when absent.
func QueryIDFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(queryIDKey{}).(uint64)
	return id
}

// Snapshot returns the in-flight statements (oldest first) and the recent
// ring (most recent first). Records are deep-copied; callers may hold them
// across further inventory mutation.
func (q *QueryInventory) Snapshot() (inflight, recent []QueryRecord) {
	if q == nil {
		return nil, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, r := range q.inflight {
		c := *r
		c.Plan = r.Plan.Clone()
		c.Elapsed = time.Since(r.Start)
		inflight = append(inflight, c)
	}
	for i := len(q.recent) - 1; i >= 0; i-- {
		r := q.recent[i]
		c := *r
		c.Plan = r.Plan.Clone()
		recent = append(recent, c)
	}
	// Oldest in-flight first: stable output for the debug page.
	for i := 0; i < len(inflight); i++ {
		for j := i + 1; j < len(inflight); j++ {
			if inflight[j].ID < inflight[i].ID {
				inflight[i], inflight[j] = inflight[j], inflight[i]
			}
		}
	}
	return inflight, recent
}

// --- slow-query log ---

// slowEntry is the JSON-lines schema of the slow-query log. One line per
// statement whose wall time crossed the threshold.
type slowEntry struct {
	TS         string  `json:"ts"`
	Tenant     string  `json:"tenant,omitempty"`
	MTID       uint64  `json:"mtid,omitempty"`
	TraceID    string  `json:"trace_id,omitempty"`
	Verb       string  `json:"verb,omitempty"`
	SQL        string  `json:"sql"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	PlanDigest string  `json:"plan_digest,omitempty"`
	Err        string  `json:"err,omitempty"`
}

// SlowQueryLog writes one JSON line per statement slower than the
// threshold. Safe for concurrent use; nil-safe so call sites need no
// branches when the log is disabled.
type SlowQueryLog struct {
	mu        sync.Mutex
	w         io.Writer
	threshold time.Duration
}

// NewSlowQueryLog returns a log writing to w for statements at or above
// threshold. A nil writer or non-positive threshold disables the log.
func NewSlowQueryLog(w io.Writer, threshold time.Duration) *SlowQueryLog {
	if w == nil || threshold <= 0 {
		return nil
	}
	return &SlowQueryLog{w: w, threshold: threshold}
}

// Observe writes an entry when the record's elapsed time crosses the
// threshold. Returns true when a line was written.
func (l *SlowQueryLog) Observe(rec *QueryRecord) bool {
	if l == nil || rec == nil || rec.Elapsed < l.threshold {
		return false
	}
	e := slowEntry{
		TS:         rec.Start.UTC().Format(time.RFC3339Nano),
		Tenant:     rec.Tenant,
		MTID:       rec.MTID,
		TraceID:    rec.TraceID,
		Verb:       rec.Verb,
		SQL:        rec.SQL,
		ElapsedMS:  float64(rec.Elapsed.Nanoseconds()) / 1e6,
		PlanDigest: rec.Digest,
		Err:        rec.Err,
	}
	if e.PlanDigest == "" && rec.Plan != nil {
		e.PlanDigest = rec.Plan.Digest()
	}
	line, err := json.Marshal(e)
	if err != nil {
		return false
	}
	l.mu.Lock()
	_, werr := l.w.Write(append(line, '\n'))
	l.mu.Unlock()
	if werr != nil {
		return false
	}
	return true
}

// defaultSlowLog is the process-wide slow-query log, installed by the
// binary from -slow-query-ms and consulted by the coordinator session.
var defaultSlowLog atomic.Pointer[SlowQueryLog]

// SetSlowQueryLog installs (or, with nil, removes) the process-wide
// slow-query log.
func SetSlowQueryLog(l *SlowQueryLog) { defaultSlowLog.Store(l) }

// SlowLog returns the installed slow-query log, nil when disabled.
func SlowLog() *SlowQueryLog { return defaultSlowLog.Load() }
