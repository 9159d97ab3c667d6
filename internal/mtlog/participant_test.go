package mtlog

import (
	"os"
	"path/filepath"
	"testing"
)

func pjPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "lam.journal")
}

func TestParticipantJournalRoundTrip(t *testing.T) {
	path := pjPath(t)
	j, err := OpenParticipant(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []*Record{
		{Type: PPrepared, SessionID: 1, MTID: 7, DB: "united",
			Redo: []string{"UPDATE flight SET rates = 132.0 WHERE fn = 300"}},
		{Type: PPrepared, SessionID: 2, MTID: 8, DB: "united",
			Redo: []string{"INSERT INTO flight VALUES (400, 'x', 'y', 1.0)"}},
		{Type: POutcome, SessionID: 2, Status: StatusCommitted},
		{Type: PAck, SessionID: 2},
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	sessions, err := j.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
	if s := sessions[0]; s.SID != 1 || s.MTID != 7 || s.State != 0 || s.Acked || len(s.Redo) != 1 {
		t.Fatalf("session 1 = %+v", s)
	}
	if s := sessions[1]; s.State != StatusCommitted || !s.Acked {
		t.Fatalf("session 2 = %+v", s)
	}

	// Compaction drops the acknowledged session, keeps the in-doubt one.
	dropped, err := j.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	sessions, err = j.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].SID != 1 {
		t.Fatalf("post-compaction sessions = %+v", sessions)
	}
	// Appends still land on the compacted file.
	if err := j.Append(&Record{Type: POutcome, SessionID: 1, Status: StatusAborted}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A reopened journal sees the full surviving state.
	j2, err := OpenParticipant(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	sessions, err = j2.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].State != StatusAborted {
		t.Fatalf("reopened sessions = %+v", sessions)
	}
}

// TestParticipantJournalTornTail is the crashed-append case: a journal
// whose last record was torn mid-write must reopen cleanly on its valid
// prefix, with the torn bytes truncated away so new appends decode. One
// case, through the ParticipantJournal type; every cut of the file is
// enumerated in wal's TestTornTailEveryPrefix.
func TestParticipantJournalTornTail(t *testing.T) {
	path := pjPath(t)
	j, err := OpenParticipant(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Record{Type: PPrepared, SessionID: 5, MTID: 3, DB: "avis",
		Redo: []string{"UPDATE cars SET carst = 'rented' WHERE code = 1"}}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(&Record{Type: POutcome, SessionID: 5, Status: StatusCommitted}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: chop the last record mid-payload.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenParticipant(path)
	if err != nil {
		t.Fatal(err)
	}
	sessions, err := j2.Sessions()
	if err != nil {
		t.Fatal(err)
	}
	// The torn outcome is gone; the prepared record survives — exactly
	// the presumed-abort-safe prefix.
	if len(sessions) != 1 || sessions[0].State != 0 {
		t.Fatalf("sessions after torn tail = %+v", sessions)
	}
	// The file was truncated to the valid prefix, and appends decode.
	if err := j2.Append(&Record{Type: PAck, SessionID: 5}); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := DecodeAll(data)
	if err != nil {
		t.Fatalf("journal not cleanly decodable after torn-tail reopen: %v", err)
	}
	if len(recs) != 2 || recs[1].Type != PAck {
		t.Fatalf("records = %+v", recs)
	}
}
