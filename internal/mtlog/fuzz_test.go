package mtlog

import (
	"encoding/json"
	"testing"

	"msql/internal/wal"
)

// encodeRecords frames records the way Journal.Append does.
func encodeRecords(t testing.TB, recs ...*Record) []byte {
	t.Helper()
	var buf []byte
	for _, r := range recs {
		payload, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf = wal.AppendFrame(buf, byte(r.Type), payload)
	}
	return buf
}

// FuzzDecodeAll throws arbitrary byte strings at the record decoder. The
// frame layer has its own target (wal.FuzzScan); this one is about the
// JSON layer on top: whatever the input — including well-framed payloads
// that are not records — the decoder must return a consistent valid
// prefix, never panic, and hand back only records that re-encode.
func FuzzDecodeAll(f *testing.F) {
	seed := encodeRecords(f, []*Record{
		{Type: TBegin, MTID: 1, Kind: "sync", Tasks: []TaskDecl{
			{Name: "T1", Entry: "united", Database: "united", Site: "127.0.0.1:9001", Vital: true},
			{Name: "C1", Entry: "avis", Comp: true, ForTask: "T1", SQL: "DELETE FROM t"},
		}},
		{Type: TPrepared, MTID: 1, Task: "T1", Addr: "127.0.0.1:9001", SessionID: 42},
		{Type: TDecision, MTID: 1, Commit: true, Decided: []string{"T1"}},
		{Type: TOutcome, MTID: 1, Task: "T1", Status: StatusCommitted},
		{Type: TEnd, MTID: 1, State: "success"},
	}...)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])              // truncated tail
	f.Add(append([]byte("junk"), seed...)) // garbage prefix
	flipped := append([]byte{}, seed...)
	flipped[len(flipped)/2] ^= 0x40 // bit flip mid-stream
	f.Add(flipped)
	f.Add([]byte{})
	f.Add(wal.AppendFrame(nil, byte(TEnd), []byte("not json")))                     // framed, undecodable
	f.Add(wal.AppendFrame(nil, byte(TEnd), []byte(`{"t":3,"mt":1,"commit":true}`))) // frame/payload type mismatch

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, end, err := DecodeAll(data)
		if end < 0 || end > len(data) {
			t.Fatalf("validEnd %d out of range [0,%d]", end, len(data))
		}
		if err == nil && end != len(data) {
			t.Fatalf("nil error but validEnd %d != len %d", end, len(data))
		}
		// The valid prefix must re-decode to the same records cleanly:
		// recovery truncates to validEnd and must not lose or invent
		// records doing so.
		again, end2, err2 := DecodeAll(data[:end])
		if err2 != nil {
			t.Fatalf("valid prefix failed to re-decode: %v", err2)
		}
		if end2 != end || len(again) != len(recs) {
			t.Fatalf("re-decode mismatch: %d/%d records, %d/%d bytes", len(again), len(recs), end2, end)
		}
		// Round-trip: every decoded record must survive re-encoding and
		// re-decoding — what recovery reads, compaction can rewrite.
		var ptrs []*Record
		for i := range again {
			ptrs = append(ptrs, &again[i])
		}
		final, _, ferr := DecodeAll(encodeRecords(t, ptrs...))
		if ferr != nil || len(final) != len(again) {
			t.Fatalf("re-encoded records failed to decode: %d/%d (%v)", len(final), len(again), ferr)
		}
	})
}
