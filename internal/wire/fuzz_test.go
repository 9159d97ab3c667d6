package wire

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"msql/internal/sqlval"
)

// fuzzSeedRequests covers every request kind plus the durability fields
// (MTID, trace correlation), the session fields a server acts on
// before dispatch (Open, CloseFirst) and the ending an exec carries
// (Then, including the shapes a server refuses), so the corpus exercises
// the full frame vocabulary.
func fuzzSeedRequests() []Request {
	return []Request{
		{Kind: ReqHello},
		{Kind: ReqOpen, Database: "united"},
		{Kind: ReqExec, SessionID: 7, SQL: "UPDATE flight SET rates = 132.0 WHERE fn = 300"},
		{Kind: ReqExec, Open: true, Database: "united", CloseFirst: 6, SQL: "SELECT fn FROM flight"},
		{Kind: ReqCommit, SessionID: 7, CloseFirst: 1<<62 + 5},
		{Kind: ReqCloseSession, Open: true, CloseFirst: -3},
		{Kind: ReqPrepare, SessionID: 7, MTID: 42, TraceID: "t1", ParentSpan: 9},
		{Kind: ReqCommit, SessionID: 7},
		{Kind: ReqAttach, SessionID: 7},
		{Kind: ReqForget, SessionID: 7},
		{Kind: ReqDescribe, Database: "avis", Name: "cars"},
		{Kind: ReqInDoubt},
		{Kind: ReqLoad, SessionID: 7, Name: "mtmp_united", Rows: [][]sqlval.Value{
			{sqlval.Int(300), sqlval.Str("O'Hare\nç"), sqlval.Float(1e-5), sqlval.Null(), sqlval.Bool(true)},
			{sqlval.Int(-1), sqlval.Str(""), sqlval.Float(1.7976931348623157e308), sqlval.Null(), sqlval.Bool(false)},
		}},
		{Kind: ReqLoad, SessionID: 7, Name: "mtmp_empty"},
		{Kind: ReqExec, SessionID: 7, SQL: "SELECT fn FROM flight", Then: ReqCommit},
		{Kind: ReqExec, Open: true, Database: "united", SQL: "DELETE FROM flight WHERE fn = 300",
			Then: ReqPrepare, MTID: 42},
		{Kind: ReqLoad, SessionID: 7, Name: "mtmp_united", Then: ReqCommit,
			Rows: [][]sqlval.Value{{sqlval.Int(1)}}},
		{Kind: ReqExec, SessionID: 7, SQL: "SELECT 1", Then: ReqKind(200)},
	}
}

// FuzzRequestDecode throws arbitrary byte strings at the server side of
// the wire protocol: a gob decode of a Request must either fail with an
// error or yield a value — never panic, whatever a malicious or torn
// client stream contains. Valid frames must round-trip unchanged
// (mirrors the mtlog decoder fuzzer for the journal framing).
func FuzzRequestDecode(f *testing.F) {
	for _, req := range fuzzSeedRequests() {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&req); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		f.Add(b)
		f.Add(b[:len(b)/2])                 // torn frame
		f.Add(append([]byte("junk"), b...)) // garbage prefix
		if len(b) > 8 {
			flipped := append([]byte{}, b...)
			flipped[len(flipped)/2] ^= 0x40
			f.Add(flipped)
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return // rejected, as it should be for garbage
		}
		// Whatever decoded must re-encode and re-decode to the same frame:
		// the request loop forwards decoded values into dispatch verbatim.
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&req); err != nil {
			t.Fatalf("decoded request failed to re-encode: %+v: %v", req, err)
		}
		var again Request
		if err := gob.NewDecoder(&buf).Decode(&again); err != nil {
			t.Fatalf("re-encoded request failed to decode: %v", err)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip mismatch: %+v != %+v", again, req)
		}
	})
}

// FuzzResponseDecode is the client half: arbitrary bytes fed to the
// Response decoder must never panic, and decodable responses must
// round-trip (including nested results, columns, and error codes).
func FuzzResponseDecode(f *testing.F) {
	seeds := []Response{
		{ServiceNm: "svc_unit"},
		{SessionID: 7, ServerNS: 1234},
		{ErrCode: CodeNoSession, ErrMsg: "wire: unknown session: 7"},
		{State: 2},
		{Result: &Result{
			Columns:      []Column{{Name: "fn", Type: 1}, {Name: "rates", Type: 2, Width: 8}},
			Rows:         [][]sqlval.Value{{sqlval.Int(300), sqlval.Float(132)}},
			RowsAffected: 1,
		}},
		{Names: []string{"flight", "fn727"}},
		{Profile: Profile{Name: "ORACLE-like", TwoPC: true, MultiDatabase: true, AutoCommitClasses: []uint8{1}}},
	}
	for _, resp := range seeds {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&resp); err != nil {
			f.Fatal(err)
		}
		b := buf.Bytes()
		f.Add(b)
		f.Add(b[:len(b)/2])
		if len(b) > 8 {
			flipped := append([]byte{}, b...)
			flipped[len(flipped)/3] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var resp Response
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&resp); err != nil {
			return
		}
		// The decoded error path must behave: Err() never panics and
		// DecodeError(EncodeError(e)) keeps the code stable.
		if err := resp.Err(); err != nil {
			code, _ := EncodeError(err)
			if code == CodeNone {
				t.Fatalf("non-nil decoded error re-encoded to no code: %v", err)
			}
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&resp); err != nil {
			t.Fatalf("decoded response failed to re-encode: %v", err)
		}
		var again Response
		if err := gob.NewDecoder(&buf).Decode(&again); err != nil {
			t.Fatalf("re-encoded response failed to decode: %v", err)
		}
	})
}
