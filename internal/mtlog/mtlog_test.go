package mtlog

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func sampleRecords() []*Record {
	return []*Record{
		{Type: TBegin, MTID: 1, Kind: "sync", Tasks: []TaskDecl{
			{Name: "T1", Entry: "united", Database: "united", Site: "127.0.0.1:9001", Vital: true},
			{Name: "C1", Entry: "avis", Database: "avis", Site: "svc_avis", Comp: true, ForTask: "T2", SQL: "DELETE FROM cars WHERE id = 7"},
		}},
		{Type: TPrepared, MTID: 1, Task: "T1", Addr: "127.0.0.1:9001", SessionID: 42},
		{Type: TDecision, MTID: 1, Commit: true, Decided: []string{"T1"}},
		{Type: TOutcome, MTID: 1, Task: "T1", Status: StatusCommitted},
		{Type: TEnd, MTID: 1, State: "success"},
		{Type: TBegin, MTID: 2, Kind: "dml"},
		{Type: TPrepared, MTID: 2, Task: "T1", Addr: "127.0.0.1:9002", SessionID: 7},
	}
}

func writeAll(t *testing.T, j *Journal, recs []*Record) {
	t.Helper()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mt.log")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, j, sampleRecords())
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs, err := j2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 {
		t.Fatalf("records = %d, want 7", len(recs))
	}
	if recs[0].Tasks[1].SQL != "DELETE FROM cars WHERE id = 7" {
		t.Fatalf("comp SQL lost: %+v", recs[0].Tasks[1])
	}
	if recs[1].SessionID != 42 || recs[1].Addr != "127.0.0.1:9001" {
		t.Fatalf("prepared record mangled: %+v", recs[1])
	}
	// MTIDs seen are 1 and 2, so the next allocation must be 3.
	if id := j2.NextID(); id != 3 {
		t.Fatalf("NextID = %d, want 3", id)
	}
}

func TestReconstructAndDecisions(t *testing.T) {
	states := Reconstruct(func() []Record {
		var out []Record
		for _, r := range sampleRecords() {
			out = append(out, *r)
		}
		return out
	}())
	if len(states) != 2 {
		t.Fatalf("states = %d, want 2", len(states))
	}
	s1, s2 := states[0], states[1]
	if !s1.Ended || s1.EndState != "success" {
		t.Fatalf("mt1 = %+v, want ended success", s1)
	}
	if commit, decided := s1.DecisionFor("T1"); !commit || !decided {
		t.Fatalf("mt1 T1 decision = %v %v, want commit", commit, decided)
	}
	if d, ok := s1.Decl("C1"); !ok || !d.Comp || d.ForTask != "T2" {
		t.Fatalf("mt1 C1 decl = %+v", d)
	}
	if s2.Ended {
		t.Fatal("mt2 must stay open")
	}
	// mt2's prepared task has no decision record: presumed abort.
	if commit, decided := s2.DecisionFor("T1"); commit || decided {
		t.Fatalf("mt2 T1 decision = %v %v, want presumed abort", commit, decided)
	}
}

// TestTornTailIsTruncatedOnOpen is a one-case smoke test through the
// Journal type; every cut of the file is enumerated in wal's
// TestTornTailEveryPrefix.
func TestTornTailIsTruncatedOnOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mt.log")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, j, sampleRecords()[:3])
	j.Close()

	// Simulate a crash mid-append: a torn half-record at the tail.
	data, _ := os.ReadFile(path)
	clean := len(data)
	torn := append(append([]byte{}, data...), 0xD7, byte(TOutcome), 0xff, 0x00)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := j2.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records after torn tail = %d, want 3", len(recs))
	}
	// The torn tail was truncated, so a new append lands on the valid
	// prefix and survives a re-open.
	if err := j2.Append(&Record{Type: TEnd, MTID: 1, State: "aborted"}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if fi, _ := os.Stat(path); fi.Size() <= int64(clean) {
		t.Fatalf("size = %d, want > %d (appended past truncation)", fi.Size(), clean)
	}
	j3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	recs, err = j3.Records()
	if err != nil || len(recs) != 4 || recs[3].Type != TEnd {
		t.Fatalf("records = %v (err %v), want 4 ending in TEnd", len(recs), err)
	}
}

func TestBitFlipStopsAtValidPrefix(t *testing.T) {
	buf := encodeRecords(t, sampleRecords()...)
	recs, _, derr := DecodeAll(buf)
	if derr != nil || len(recs) != 7 {
		t.Fatalf("clean decode = %d recs, err %v", len(recs), derr)
	}
	// Flip one bit in every byte position in turn: decoding must never
	// panic, never accept the flipped record, and always stop at a valid
	// prefix no longer than the record boundary before the flip.
	for pos := 0; pos < len(buf); pos++ {
		mut := append([]byte{}, buf...)
		mut[pos] ^= 0x10
		recs, end, derr := DecodeAll(mut)
		if end > len(mut) {
			t.Fatalf("pos %d: validEnd %d beyond input %d", pos, end, len(mut))
		}
		if derr == nil && len(recs) == 7 {
			// The flip landed inside a payload yet decoded identically —
			// impossible with a CRC over type+len+payload.
			t.Fatalf("pos %d: bit flip silently accepted", pos)
		}
		// Records before the flip's frame must decode intact.
		for _, r := range recs {
			if r.Type < TBegin || r.Type > TEnd {
				t.Fatalf("pos %d: invalid record type %d in valid prefix", pos, r.Type)
			}
		}
	}
}

func TestInterleavedGarbage(t *testing.T) {
	buf := encodeRecords(t, sampleRecords()[:2]...)
	garbage := append(append([]byte{}, buf...), []byte("not a journal record at all")...)
	recs, end, derr := DecodeAll(garbage)
	if len(recs) != 2 {
		t.Fatalf("records = %d, want the 2 before the garbage", len(recs))
	}
	if end != len(buf) {
		t.Fatalf("validEnd = %d, want %d", end, len(buf))
	}
	if !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", derr)
	}
}

func TestCompactDropsEndedMultitransactions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mt.log")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, j, sampleRecords()) // mt1 ended, mt2 open
	dropped, err := j.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	recs, err := j.Records()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.MTID == 1 {
			t.Fatalf("compaction kept ended mt1 record %+v", r)
		}
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d, want mt2's 2", len(recs))
	}
	// Appends keep working on the compacted file and survive re-open.
	if err := j.Append(&Record{Type: TEnd, MTID: 2, State: "recovered"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	recs, err = j2.Records()
	if err != nil || len(recs) != 3 {
		t.Fatalf("records after reopen = %d (err %v), want 3", len(recs), err)
	}
	// NextID still accounts for mt2 even after mt1 was compacted away.
	if id := j2.NextID(); id != 3 {
		t.Fatalf("NextID = %d, want 3", id)
	}
}
