package mtlog

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"msql/internal/obs"
	"msql/internal/wal"
)

// metrics is one journal role's instruments (DESIGN.md §8). Fsync latency
// is the write-ahead rule's price; batch is the forced records each fsync
// made durable — 1 for a lone appender, more when a flush was shared.
type metrics struct {
	appends obs.CounterVec
	fsync   *obs.Histogram
	batch   *obs.Histogram
}

var batchBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128}

var (
	coordMetrics = metrics{
		appends: obs.Default().CounterVec("msql_journal_appends_total",
			"Journal records appended, by record type.", "type"),
		fsync: obs.Default().Histogram("msql_journal_fsync_seconds",
			"Latency of the fsync forced by TDecision appends.", nil),
		batch: obs.Default().Histogram("msql_journal_group_batch_records",
			"Decisions made durable per journal fsync: above 1 only when concurrent units' decisions shared a flush.", batchBounds),
	}
	partMetrics = metrics{
		appends: obs.Default().CounterVec("msql_lam_journal_appends_total",
			"Participant-journal records appended, by record type.", "type"),
		fsync: obs.Default().Histogram("msql_lam_journal_fsync_seconds",
			"Latency of the fsync forced by prepared/commit-outcome appends.", nil),
		batch: obs.Default().Histogram("msql_lam_journal_group_batch_records",
			"Forced records made durable per participant-journal fsync.", batchBounds),
	}
)

// journal is what both 2PC journals are: Records on a wal.Log, which owns
// the file. This layer owns the record encoding, which records are
// forced, and which ones compaction may drop.
type journal struct {
	log *wal.Log
	m   *metrics
}

// open opens the log at path and decodes what it holds. A frame that
// passed its checksum but is not a record is not crash damage; rather
// than append after it, where recovery would never look, open fails.
func open(path string, m *metrics) (journal, []Record, error) {
	log, err := wal.Open(path, func(took time.Duration, covered int) {
		m.fsync.Observe(took.Seconds())
		m.batch.Observe(float64(covered))
	})
	if err != nil {
		return journal{}, nil, err
	}
	j := journal{log: log, m: m}
	recs, err := j.Records()
	if err != nil {
		log.Close()
		return journal{}, nil, fmt.Errorf("mtlog: open %s: %w", path, err)
	}
	return j, recs, nil
}

// Append writes one record. Forced records (Record.forced) are on stable
// storage before it returns, and with them every earlier record: a
// synced decision implies its begin record is on disk.
// Concurrent forced appends share fsyncs, never an early acknowledgment.
// After the first write or fsync failure every Append returns that error.
func (j journal) Append(rec *Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	err = j.log.Append(byte(rec.Type), payload, rec.forced())
	if err == nil {
		j.m.appends.With(rec.Type.String()).Inc()
	}
	return err
}

// Records returns every record currently in the journal.
func (j journal) Records() ([]Record, error) {
	frames, err := j.log.Frames()
	if err != nil {
		return nil, err
	}
	return decodeFrames(frames)
}

// compact atomically rewrites the journal without the records of any id
// that has a record of type done, and reports how many ids that dropped.
func (j journal) compact(done Type, id func(*Record) uint64) (dropped int, err error) {
	err = j.log.Rewrite(func(frames []wal.Frame) ([]wal.Frame, error) {
		recs, err := decodeFrames(frames)
		if err != nil {
			return nil, err
		}
		finished := map[uint64]bool{}
		for i := range recs {
			if recs[i].Type == done {
				finished[id(&recs[i])] = true
			}
		}
		kept := frames[:0]
		for i := range recs {
			if !finished[id(&recs[i])] {
				kept = append(kept, frames[i])
			}
		}
		dropped = len(finished)
		return kept, nil
	})
	return dropped, err
}

// Close syncs and closes the journal file.
func (j journal) Close() error { return j.log.Close() }

// Journal is the coordinator's append-only multitransaction log. One
// record per unit is forced: the decision, which names the unit's
// prepared participants. So the write-ahead rule — the decision is
// durable before the first COMMIT is delivered — holds across power
// loss, every participant a decision might strand is findable
// afterwards, and a vote no durable decision names is one the
// participant may roll back (presumed abort; Recover's orphan sweep).
type Journal struct {
	journal
	lastID atomic.Uint64 // highest multitransaction id seen or allocated
}

// Open opens (creating if needed) the journal at path, truncating a torn
// tail left by a crashed append.
func Open(path string) (*Journal, error) {
	base, recs, err := open(path, &coordMetrics)
	if err != nil {
		return nil, err
	}
	j := &Journal{journal: base}
	var last uint64
	for _, r := range recs {
		last = max(last, r.MTID)
	}
	j.lastID.Store(last)
	return j, nil
}

// NextID allocates a multitransaction id unique across restarts of this journal.
func (j *Journal) NextID() uint64 { return j.lastID.Add(1) }

// SyncStats reports the forced records (TDecision) appended and the
// fsyncs Append issued for them — fewer when appends shared flushes.
func (j *Journal) SyncStats() (syncRecords, fsyncs int64) { return j.log.Stats() }

// Compact rewrites the journal keeping only multitransactions that have
// not ended — the fully-terminal ones carry no recovery obligation.
func (j *Journal) Compact() (dropped int, err error) {
	return j.compact(TEnd, func(r *Record) uint64 { return r.MTID })
}

// TxState is the reconstructed state of one multitransaction.
type TxState struct {
	MTID  uint64
	Begin *Record
	// Branches maps task names to their prepared participants: the
	// branches the unit's decisions name, or the TPrepared records of a
	// journal written before decisions named them.
	Branches map[string]Branch
	// Decisions in append order.
	Decisions []*Record
	// Outcomes maps task names to terminal statuses.
	Outcomes map[string]uint8
	Ended    bool
	EndState string
}

// DecisionFor reports the logged synchronization-point decision for a
// task. A task no decision record covers falls under presumed abort:
// decided is false and the caller must roll it back.
func (s *TxState) DecisionFor(task string) (commit, decided bool) {
	for _, d := range s.Decisions {
		for _, t := range d.Decided {
			if t == task {
				return d.Commit, true
			}
		}
	}
	return false, false
}

// Decl returns the begin-record declaration of a task.
func (s *TxState) Decl(task string) (TaskDecl, bool) {
	if s.Begin == nil {
		return TaskDecl{}, false
	}
	for _, d := range s.Begin.Tasks {
		if d.Name == task {
			return d, true
		}
	}
	return TaskDecl{}, false
}

// Reconstruct folds a record sequence into per-multitransaction states,
// returned in first-appearance order.
func Reconstruct(recs []Record) []*TxState {
	byID := map[uint64]*TxState{}
	var order []*TxState
	get := func(id uint64) *TxState {
		if s, ok := byID[id]; ok {
			return s
		}
		s := &TxState{MTID: id, Branches: map[string]Branch{}, Outcomes: map[string]uint8{}}
		byID[id] = s
		order = append(order, s)
		return s
	}
	for i := range recs {
		r := &recs[i]
		s := get(r.MTID)
		switch r.Type {
		case TBegin:
			s.Begin = r
		case TPrepared:
			s.Branches[r.Task] = Branch{Task: r.Task, Addr: r.Addr, SessionID: r.SessionID}
		case TDecision:
			s.Decisions = append(s.Decisions, r)
			for _, b := range r.Branches {
				s.Branches[b.Task] = b
			}
		case TOutcome:
			s.Outcomes[r.Task] = r.Status
		case TEnd:
			s.Ended = true
			s.EndState = r.State
		}
	}
	return order
}

// States reads and reconstructs the journal's multitransactions.
func (j *Journal) States() ([]*TxState, error) {
	recs, err := j.Records()
	return Reconstruct(recs), err
}
