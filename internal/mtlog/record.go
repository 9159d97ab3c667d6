package mtlog

import (
	"encoding/json"
	"fmt"

	"msql/internal/wal"
)

// ErrCorrupt marks a journal whose tail failed validation (wal.ErrCorrupt).
var ErrCorrupt = wal.ErrCorrupt

// Type identifies a journal record.
type Type uint8

// Record types.
const (
	// TBegin opens a multitransaction: it carries the task topology the
	// recovery pass needs (vital entries, compensation SQL).
	TBegin Type = iota + 1
	// TPrepared recorded one participant entering the prepared-to-commit
	// window, with its re-attach coordinates. It is no longer written:
	// the decision names its branches. Journals written before that are
	// still read, and recover through it.
	TPrepared
	// TDecision is the global synchronization-point decision for a set
	// of tasks, with the prepared participants (Branches) it covers. It
	// is forced to stable storage before the first COMMIT is delivered,
	// and is the one record of a unit that is forced.
	TDecision
	// TOutcome records one task's terminal status.
	TOutcome
	// TEnd closes a multitransaction: every task is terminal and every
	// pending compensation ran. Ended multitransactions are dropped at
	// the next compaction.
	TEnd
)

// Participant-side record types (the LAM's prepared-state journal, see
// ParticipantJournal). They share the frame format and Record union with
// the coordinator records but never appear in the same file.
const (
	// PPrepared records one local session entering the prepared-to-commit
	// window: the session id a recovering coordinator re-attaches by, the
	// coordinator's multitransaction id, and the deparsed redo statements
	// needed to re-materialize the transaction on a restarted server. It
	// is forced to stable storage before the PREPARED vote goes on the
	// wire.
	PPrepared Type = iota + 16
	// POutcome records the terminal state of a once-prepared session (its
	// durable tombstone). Commit outcomes are forced to stable storage;
	// abort outcomes ride on the next sync — presumed abort covers their
	// loss.
	POutcome
	// PAck records the coordinator's end-of-multitransaction
	// acknowledgment for a session: its journal state carries no further
	// obligation and is dropped at the next compaction.
	PAck
)

var typeNames = map[Type]string{
	TBegin: "begin", TPrepared: "prepared", TDecision: "decision", TOutcome: "outcome", TEnd: "end",
	PPrepared: "p-prepared", POutcome: "p-outcome", PAck: "p-ack",
}

func (t Type) String() string {
	if name, ok := typeNames[t]; ok {
		return name
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Task statuses recorded in TOutcome records. The values are
// dol.TaskStatus's, which core writes and reads without a mapping; they
// are fixed here, and core's TestJournalStatusesAreTheEngines fails if
// the engine's enum is reordered, so journal files stay readable.
const (
	StatusCommitted uint8 = 3
	StatusAborted   uint8 = 4
	StatusError     uint8 = 5
)

// TaskDecl declares one task of a multitransaction plan in the begin
// record: enough to map journal records back to scope entries and to
// re-run a compensation from the journal alone.
type TaskDecl struct {
	Name     string `json:"name"`
	Entry    string `json:"entry,omitempty"`
	Database string `json:"db,omitempty"`
	// Site is the service site (address, or the service name its
	// client is registered under),
	// needed to reopen a connection for compensation re-runs.
	Site  string `json:"site,omitempty"`
	Vital bool   `json:"vital,omitempty"`
	// Comp marks a compensation task; ForTask names the original task it
	// undoes and SQL is the deparsed compensating statement.
	Comp    bool   `json:"comp,omitempty"`
	ForTask string `json:"for,omitempty"`
	SQL     string `json:"sql,omitempty"`
}

// Branch is one prepared participant a decision covers: its task, where
// a recovering coordinator re-attaches, and its session there. An empty
// Addr means the session's LAM was served by the coordinator's own
// process without a participant journal and died with it; it cannot be
// re-attached.
type Branch struct {
	Task      string `json:"task"`
	Addr      string `json:"addr,omitempty"`
	SessionID int64  `json:"sid"`
}

// Record is one journal entry. It is a tagged union: which fields are
// meaningful depends on Type.
type Record struct {
	Type Type   `json:"t"`
	MTID uint64 `json:"mt"`

	// TBegin
	Kind  string     `json:"kind,omitempty"` // sync | dml | multitx
	Tasks []TaskDecl `json:"tasks,omitempty"`

	// TPrepared, TOutcome
	Task string `json:"task,omitempty"`

	// TPrepared: where a recovering coordinator re-attaches (as in
	// Branch).
	Addr      string `json:"addr,omitempty"`
	SessionID int64  `json:"sid,omitempty"`

	// TDecision
	Commit  bool     `json:"commit,omitempty"`
	Decided []string `json:"decided,omitempty"`
	// Branches are the prepared participants of the decided tasks.
	Branches []Branch `json:"branches,omitempty"`
	// TOutcome, POutcome
	Status uint8 `json:"status,omitempty"`

	// TEnd
	State string `json:"state,omitempty"`

	// PPrepared: the database the session is connected to and the
	// deparsed redo statements of its open transaction, in execution
	// order. SessionID identifies the session in every P* record; MTID
	// carries the coordinator's multitransaction id (0 when the
	// coordinator runs unjournaled).
	DB   string   `json:"pdb,omitempty"`
	Redo []string `json:"redo,omitempty"`
}

// forced reports whether the record must be on stable storage before
// Append returns: the coordinator's decision (durable before the first
// COMMIT is delivered, and naming every participant it might strand),
// the participant's vote and its commit tombstone. The rest ride on the
// next sync — presumed abort makes their loss harmless: a vote no
// durable decision names is rolled back by Recover's orphan sweep.
func (r *Record) forced() bool {
	t := r.Type
	return t == TDecision || t == PPrepared || (t == POutcome && r.Status == StatusCommitted)
}

// frameBytes is the space frames occupy in a log file.
func frameBytes(frames []wal.Frame) (n int) {
	for _, fr := range frames {
		n += wal.HeaderSize + len(fr.Payload)
	}
	return n
}

// decodeFrames unmarshals the records of a frame sequence. A payload that
// is not a record of its frame's type was never written by this package:
// decoding stops there with an error wrapping ErrCorrupt that names the
// frame's byte offset (DESIGN.md §7 says what an operator does with it).
func decodeFrames(frames []wal.Frame) ([]Record, error) {
	recs := make([]Record, 0, len(frames))
	for i, fr := range frames {
		var rec Record
		if uerr := json.Unmarshal(fr.Payload, &rec); uerr != nil {
			return recs, fmt.Errorf("%w: undecodable payload at offset %d: %v", ErrCorrupt, frameBytes(frames[:i]), uerr)
		}
		if rec.Type != Type(fr.Type) {
			return recs, fmt.Errorf("%w: frame/payload type mismatch at offset %d", ErrCorrupt, frameBytes(frames[:i]))
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// DecodeAll returns the records of data's valid prefix and the offset
// where it ends. Truncation, checksum mismatch, garbage or an undecodable
// payload returns the records before it with an error wrapping
// ErrCorrupt; malformed input never panics.
func DecodeAll(data []byte) (recs []Record, validEnd int, err error) {
	frames, end, serr := wal.Scan(data)
	recs, derr := decodeFrames(frames)
	if derr != nil {
		return recs, frameBytes(frames[:len(recs)]), derr
	}
	return recs, end, serr
}
