package mtlog

// ParticipantJournal is a LAM server's durable prepared-state log: the
// participant half of the §3.2.2 in-doubt window. It records sessions
// entering the prepared-to-commit state (with the redo statements needed
// to re-materialize them after a restart), the terminal outcomes of
// once-prepared sessions (durable tombstones), and coordinator
// end-of-multitransaction acknowledgments that release both.
//
// PPrepared and committed POutcome records are forced before Append
// returns — the vote may not go on the wire before the redo state is
// durable; concurrent votes share fsyncs. Compaction drops sessions the
// coordinator has acknowledged.
type ParticipantJournal struct{ journal }

// OpenParticipant opens (creating if needed) the participant journal at
// path, truncating any torn tail so new records land on a valid prefix.
func OpenParticipant(path string) (*ParticipantJournal, error) {
	base, _, err := open(path, &partMetrics)
	if err != nil {
		return nil, err
	}
	return &ParticipantJournal{base}, nil
}

// PSession is the reconstructed journal state of one once-prepared
// session. State 0 means still prepared (in-doubt); otherwise it is the
// recorded terminal StatusCommitted/StatusAborted.
type PSession struct {
	SID   int64
	MTID  uint64
	DB    string
	Redo  []string
	State uint8
	Acked bool
}

// ReconstructParticipant folds a record sequence into per-session
// states, returned in first-appearance (prepare) order. Because a local
// session holds its locks from prepare to commit, prepare order is a
// valid replay order for re-applying redo state after a restart.
//
// A session id can prepare more than once: a DOL program with several
// synchronization points reuses its connection, so a new PPrepared over
// an already-terminal state opens a new round. Each round is returned as
// its own PSession (same SID, in order); an ack covers every round of
// the id, since acknowledgment happens after the whole multitransaction.
func ReconstructParticipant(recs []Record) []*PSession {
	byID := map[int64]*PSession{}
	var order []*PSession
	get := func(id int64) *PSession {
		if s, ok := byID[id]; ok {
			return s
		}
		s := &PSession{SID: id}
		byID[id] = s
		order = append(order, s)
		return s
	}
	for i := range recs {
		r := &recs[i]
		switch r.Type {
		case PPrepared:
			s := get(r.SessionID)
			if s.State != 0 {
				// A fresh prepare over a terminal round: start a new round
				// for the same id.
				s = &PSession{SID: r.SessionID}
				byID[r.SessionID] = s
				order = append(order, s)
			}
			s.MTID, s.DB, s.Redo = r.MTID, r.DB, r.Redo
		case POutcome:
			get(r.SessionID).State = r.Status
		case PAck:
			for _, s := range order {
				if s.SID == r.SessionID {
					s.Acked = true
				}
			}
		}
	}
	return order
}

// Sessions reads and reconstructs the journal's session states.
func (j *ParticipantJournal) Sessions() ([]*PSession, error) {
	recs, err := j.Records()
	return ReconstructParticipant(recs), err
}

// Compact rewrites the journal keeping only sessions that still carry an
// obligation: prepared sessions awaiting a decision and terminal
// sessions the coordinator has not acknowledged. Acknowledged sessions
// are dropped.
func (j *ParticipantJournal) Compact() (dropped int, err error) {
	return j.compact(PAck, func(r *Record) uint64 { return uint64(r.SessionID) })
}
