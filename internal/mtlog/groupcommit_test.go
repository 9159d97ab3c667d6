package mtlog

import (
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// role is one of the two journals with the records that open, force and
// finish one of its units, so the concurrency tests run against both.
// (That concurrent forced appends share fsyncs is asserted
// deterministically in wal's TestConcurrentAppendsShareFsyncs.)
type role struct {
	name string
	open func(path string) (roleJournal, error)
	// unit returns the records of one complete unit with the given id:
	// the last one makes compaction drop it, the middle one is forced.
	unit func(id uint64) [3]*Record
}

type roleJournal interface {
	Append(*Record) error
	Records() ([]Record, error)
	Compact() (int, error)
	Close() error
}

var roles = []role{
	{
		name: "coordinator",
		open: func(path string) (roleJournal, error) { return Open(path) },
		unit: func(id uint64) [3]*Record {
			return [3]*Record{
				{Type: TBegin, MTID: id, Kind: "dml"},
				{Type: TDecision, MTID: id, Commit: true, Decided: []string{"T1"}},
				{Type: TEnd, MTID: id, State: "success"},
			}
		},
	},
	{
		name: "participant",
		open: func(path string) (roleJournal, error) { return OpenParticipant(path) },
		unit: func(id uint64) [3]*Record {
			return [3]*Record{
				{Type: PPrepared, SessionID: int64(id), MTID: id, DB: "united", Redo: []string{"UPDATE flight SET rates = 1"}},
				{Type: POutcome, SessionID: int64(id), Status: StatusCommitted},
				{Type: PAck, SessionID: int64(id)},
			}
		},
	},
}

func eachRole(t *testing.T, f func(t *testing.T, r role, j roleJournal, path string)) {
	for _, r := range roles {
		t.Run(r.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "journal")
			j, err := r.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			f(t, r, j, path)
		})
	}
}

// TestGroupCommitDurableBeforeReturn checks the write-ahead rule: when
// Append returns for a forced record, the record is already in the file
// (re-readable by an independent open).
func TestGroupCommitDurableBeforeReturn(t *testing.T) {
	eachRole(t, func(t *testing.T, r role, j roleJournal, path string) {
		for id := uint64(1); id <= 5; id++ {
			forced := r.unit(id)[1]
			if err := j.Append(forced); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			recs, _, _ := DecodeAll(data)
			found := false
			for _, rec := range recs {
				if rec.Type == forced.Type && rec.MTID == forced.MTID && rec.SessionID == forced.SessionID {
					found = true
				}
			}
			if !found {
				t.Fatalf("forced record of unit %d acknowledged but not on disk", id)
			}
		}
	})
}

// TestGroupCommitCloseDrains races forced appends against Close: every
// append must return (durable or with an error), never hang on a flush
// nobody will perform, and a second Close is harmless.
func TestGroupCommitCloseDrains(t *testing.T) {
	eachRole(t, func(t *testing.T, r role, j roleJournal, _ string) {
		const writers = 16
		var wg sync.WaitGroup
		for i := 0; i < writers; i++ {
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				_ = j.Append(r.unit(id)[1])
			}(uint64(i + 1))
		}
		time.Sleep(time.Millisecond)
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait() // must terminate: no waiter may hang past Close
		if err := j.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
	})
}

// TestGroupCommitWithCompact interleaves forced appends with compaction;
// the race detector guards the file-handle swap, no append may fail or
// be lost across it, and finished units must still compact away.
func TestGroupCommitWithCompact(t *testing.T) {
	eachRole(t, func(t *testing.T, r role, j roleJournal, _ string) {
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				for _, rec := range r.unit(id) {
					if err := j.Append(rec); err != nil {
						t.Errorf("append unit %d: %v", id, err)
					}
				}
			}(uint64(i + 1))
		}
		compactDone := make(chan struct{})
		go func() {
			defer close(compactDone)
			for i := 0; i < 5; i++ {
				if _, err := j.Compact(); err != nil {
					t.Errorf("compact: %v", err)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
		wg.Wait()
		<-compactDone
		if _, err := j.Compact(); err != nil {
			t.Fatal(err)
		}
		recs, err := j.Records()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("%d records survived compaction of finished units, first: %+v", len(recs), recs[0])
		}
		// An unfinished unit appended after all that must survive one.
		open := r.unit(99)
		for _, rec := range open[:2] {
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		if dropped, err := j.Compact(); err != nil || dropped != 0 {
			t.Fatalf("compact = %d dropped, err %v; want 0", dropped, err)
		}
		if recs, _ := j.Records(); len(recs) != 2 {
			t.Fatalf("unfinished unit has %d records after compaction, want 2", len(recs))
		}
	})
}

// TestInlineSyncStats: sequential forced appends pay one fsync each —
// nothing to share a flush with, and no wait added.
func TestInlineSyncStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mt.log")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Append(&Record{Type: TBegin, MTID: 1, Kind: "dml"}); err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		if err := j.Append(&Record{Type: TDecision, MTID: id, Commit: true}); err != nil {
			t.Fatal(err)
		}
	}
	synced, fsyncs := j.SyncStats()
	if synced != 3 || fsyncs != 3 {
		t.Fatalf("stats = (%d, %d), want (3, 3)", synced, fsyncs)
	}
}
