package mtlog

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"msql/internal/wal"
)

// copyGolden copies a journal file written by the pre-wal encoder (the
// commit before internal/wal existed; see testdata) into a temp dir.
func copyGolden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func sameFile(t *testing.T, path, golden string) {
	t.Helper()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from testdata/%s: %d vs %d bytes", path, golden, len(got), len(want))
	}
}

// TestOldCoordinatorJournalReopens: a coordinator journal written by the
// old encoder from sampleRecords() reopens, reconstructs and compacts to
// the same bytes the old Compact produced, and what this encoder writes
// for the same records is byte-identical to the old file.
func TestOldCoordinatorJournalReopens(t *testing.T) {
	path := copyGolden(t, "coord.journal")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	states, err := j.States()
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for _, r := range sampleRecords() {
		want = append(want, *r)
	}
	if !reflect.DeepEqual(states, Reconstruct(want)) {
		t.Fatalf("reconstructed states differ from sampleRecords(): %+v", states)
	}
	if id := j.NextID(); id != 3 {
		t.Fatalf("NextID = %d, want 3", id)
	}
	if dropped, err := j.Compact(); err != nil || dropped != 1 {
		t.Fatalf("compact = %d, %v; want 1 dropped", dropped, err)
	}
	sameFile(t, path, "coord.compacted.journal")

	fresh := filepath.Join(t.TempDir(), "fresh.journal")
	j2, err := Open(fresh)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, j2, sampleRecords())
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	sameFile(t, fresh, "coord.journal")
}

// TestOldParticipantJournalReopens is the same for the LAM's journal
// (records of TestParticipantJournalRoundTrip).
func TestOldParticipantJournalReopens(t *testing.T) {
	path := copyGolden(t, "part.journal")
	j, err := OpenParticipant(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	sessions, err := j.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	want := []*PSession{
		{SID: 1, MTID: 7, DB: "united", Redo: []string{"UPDATE flight SET rates = 132.0 WHERE fn = 300"}},
		{SID: 2, MTID: 8, DB: "united", Redo: []string{"INSERT INTO flight VALUES (400, 'x', 'y', 1.0)"},
			State: StatusCommitted, Acked: true},
	}
	if !reflect.DeepEqual(sessions, want) {
		t.Fatalf("sessions = %+v %+v", sessions[0], sessions[1])
	}
	if dropped, err := j.Compact(); err != nil || dropped != 1 {
		t.Fatalf("compact = %d, %v; want 1 dropped", dropped, err)
	}
	sameFile(t, path, "part.compacted.journal")
}

// TestForcedRecords pins which record types pay for durability.
func TestForcedRecords(t *testing.T) {
	for _, c := range []struct {
		rec  Record
		want bool
	}{
		{Record{Type: TBegin}, false},
		{Record{Type: TPrepared}, false}, // no longer written; the decision names the branches
		{Record{Type: TDecision}, true},
		{Record{Type: TDecision, Commit: true}, true},
		{Record{Type: TOutcome, Status: StatusCommitted}, false},
		{Record{Type: TEnd}, false},
		{Record{Type: PPrepared}, true},
		{Record{Type: POutcome, Status: StatusCommitted}, true},
		{Record{Type: POutcome, Status: StatusAborted}, false},
		{Record{Type: PAck}, false},
	} {
		if got := c.rec.forced(); got != c.want {
			t.Errorf("%s status %d forced = %v, want %v", c.rec.Type, c.rec.Status, got, c.want)
		}
	}
}

// TestOpenRefusesFramedNonRecord: a frame that passes its checksum but
// is not a record was not left by a crash. Appending after it would put
// new decisions where recovery never looks, so Open fails instead.
func TestOpenRefusesFramedNonRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mt.log")
	good := encodeRecords(t, sampleRecords()[:2]...)
	data := wal.AppendFrame(append([]byte{}, good...), byte(TEnd), []byte("not json"))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
	if _, err := OpenParticipant(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenParticipant = %v, want ErrCorrupt", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
		t.Fatal("a refused open modified the file")
	}
	// The documented repair (DESIGN.md §7): the error names the offset of
	// the foreign frame; truncating there gives a journal that opens.
	_, err := Open(path)
	if want := fmt.Sprintf("at offset %d", len(good)); !strings.Contains(err.Error(), want) {
		t.Fatalf("Open = %v, want it to say %q", err, want)
	}
	if err := os.Truncate(path, int64(len(good))); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatalf("Open after truncating to the reported offset: %v", err)
	}
	defer j.Close()
	if recs, err := j.Records(); err != nil || len(recs) != 2 {
		t.Fatalf("repaired journal holds %d records (err %v), want 2", len(recs), err)
	}
}
