package wire

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"msql/internal/ldbms"
	"msql/internal/schema"
	"msql/internal/sqlval"
)

func TestErrorCodesRoundTrip(t *testing.T) {
	cases := []error{
		ldbms.ErrNoTwoPC,
		ldbms.ErrInjected,
		ldbms.ErrSessionState,
		schema.ErrLockTimeout,
		schema.ErrNoTable,
		schema.ErrNoDatabase,
	}
	for _, sentinel := range cases {
		code, msg := EncodeError(sentinel)
		back := DecodeError(code, msg)
		if !errors.Is(back, sentinel) {
			t.Errorf("sentinel %v lost across the wire: %v", sentinel, back)
		}
	}
	code, msg := EncodeError(errors.New("plain failure"))
	if code != CodeOther {
		t.Fatalf("code = %s", code)
	}
	if DecodeError(code, msg).Error() != "plain failure" {
		t.Fatal("message lost")
	}
	if DecodeError(CodeNone, "") != nil {
		t.Fatal("empty code should be nil error")
	}
	if c, _ := EncodeError(nil); c != CodeNone {
		t.Fatal("nil error should encode to CodeNone")
	}
}

func TestProfileRoundTrip(t *testing.T) {
	p := ldbms.ProfileIngresLike()
	w := FromProfile(p)
	back := w.ToProfile()
	if back.Name != p.Name || back.TwoPC != p.TwoPC || back.MultiDatabase != p.MultiDatabase {
		t.Fatalf("profile = %+v", back)
	}
	if !back.AutoCommits(ldbms.ClassCreate) || back.AutoCommits(ldbms.ClassUpdate) {
		t.Fatalf("autocommit classes lost: %+v", back.AutoCommitClasses)
	}
}

func TestColumnsRoundTrip(t *testing.T) {
	cols := []schema.Column{
		{Name: "code", Type: sqlval.KindInt},
		{Name: "cartype", Type: sqlval.KindString, Width: 20},
	}
	back := ToColumns(FromColumns(cols))
	if len(back) != 2 || back[1].Width != 20 || back[0].Type != sqlval.KindInt {
		t.Fatalf("cols = %+v", back)
	}
}

func TestGobEncodableMessages(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	dec := gob.NewDecoder(&buf)
	req := Request{Kind: ReqExec, SessionID: 7, SQL: "SELECT 1"}
	if err := enc.Encode(&req); err != nil {
		t.Fatal(err)
	}
	var gotReq Request
	if err := dec.Decode(&gotReq); err != nil {
		t.Fatal(err)
	}
	if gotReq.SQL != "SELECT 1" || gotReq.SessionID != 7 {
		t.Fatalf("req = %+v", gotReq)
	}

	resp := Response{
		Result: &Result{
			Columns: []Column{{Name: "a", Type: uint8(sqlval.KindInt)}},
			Rows:    [][]sqlval.Value{{sqlval.Int(1)}, {sqlval.Null()}},
		},
	}
	if err := enc.Encode(&resp); err != nil {
		t.Fatal(err)
	}
	var gotResp Response
	if err := dec.Decode(&gotResp); err != nil {
		t.Fatal(err)
	}
	if len(gotResp.Result.Rows) != 2 || !gotResp.Result.Rows[1][0].IsNull() {
		t.Fatalf("resp = %+v", gotResp.Result)
	}
}

func TestReqKindStrings(t *testing.T) {
	if ReqExec.String() != "exec" || ReqOpen.String() != "open" {
		t.Fatal("kind names wrong")
	}
	if ReqKind(200).String() == "" {
		t.Fatal("unknown kind should still format")
	}
	// Every declared kind has a name of its own: the names are metric
	// labels and OpError text. ReqLoad is the last kind.
	seen := map[string]ReqKind{}
	for k := ReqHello; k <= ReqLoad; k++ {
		name := k.String()
		if strings.HasPrefix(name, "ReqKind(") {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d are both %q", prev, k, name)
		}
		seen[name] = k
	}
	if ReqLoad.String() != "load" || ReqInDoubt.String() != "in-doubt" {
		t.Fatalf("load = %q, in-doubt = %q", ReqLoad, ReqInDoubt)
	}
	if got := (ReqLoad + 1).String(); got != "ReqKind(17)" {
		t.Fatalf("kind after the last = %q", got)
	}
}

// TestRowsCodec: rows cross the wire in the storage tuple encoding, one
// opaque gob value per row set. Every value kind survives a request and
// a response, an absent row set stays absent, and a damaged payload is an
// error, not a panic.
func TestRowsCodec(t *testing.T) {
	rows := Rows{
		{sqlval.Int(-7), sqlval.Str("O'Hare\nç ✈"), sqlval.Float(1e-5), sqlval.Null(), sqlval.Bool(true)},
		{sqlval.Int(1 << 62), sqlval.Str(""), sqlval.Float(-1.7976931348623157e308), sqlval.Bool(false), sqlval.Null()},
		{},
	}
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	if err := enc.Encode(&Request{Kind: ReqLoad, Name: "t", Rows: rows}); err != nil {
		t.Fatal(err)
	}
	var req Request
	if err := dec.Decode(&req); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Rows, rows) {
		t.Fatalf("request rows = %v, want %v", req.Rows, rows)
	}
	if err := enc.Encode(&Response{Result: &Result{Rows: rows, RowsAffected: 3}}); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resp.Result.Rows, rows) {
		t.Fatalf("response rows = %v, want %v", resp.Result.Rows, rows)
	}

	// No rows, no field: gob leaves a nil row set out of the frame, so
	// every request but ReqLoad decodes as it always did.
	if err := enc.Encode(&Request{Kind: ReqExec, SessionID: 7, SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	req = Request{}
	if err := dec.Decode(&req); err != nil || req.Rows != nil || req.SQL != "SELECT 1" {
		t.Fatalf("request without rows = %+v, %v", req, err)
	}

	payload, err := rows.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		var r Rows
		if err := r.GobDecode(payload[:cut]); err == nil {
			t.Fatalf("payload cut to %d of %d bytes decoded to %v", cut, len(payload), r)
		}
	}
	var r Rows
	if err := r.GobDecode(append(append([]byte{}, payload...), 0)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	if err := r.GobDecode([]byte{0xff, 0xff, 0xff, 0xff, 0x0f}); err == nil {
		t.Fatal("a row count beyond the payload accepted")
	}
}

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"net-closed", net.ErrClosed, true},
		{"deadline", context.DeadlineExceeded, true},
		{"conn-reset", syscall.ECONNRESET, true},
		{"conn-refused", syscall.ECONNREFUSED, true},
		{"wrapped-eof", fmt.Errorf("exec: %w", io.EOF), true},
		{"op-error-dial", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, true},
		// Definite: the server answered.
		{"server-answered", DecodeError(CodeNoTable, "no such table"), false},
		{"injected", DecodeError(CodeInjected, "fault"), false},
		{"plain", errors.New("syntax error"), false},
		// A canceled context is the caller's own decision, not a fault.
		{"canceled", context.Canceled, false},
	}
	for _, c := range cases {
		if got := Transient(c.err); got != c.want {
			t.Errorf("Transient(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBenignCloseClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		// The ways a peer hanging up cleanly (or our own shutdown racing a
		// reader) surfaces on a server loop.
		{"nil", nil, true},
		{"eof", io.EOF, true},
		{"net-closed", net.ErrClosed, true},
		{"conn-reset", syscall.ECONNRESET, true},
		{"conn-aborted", syscall.ECONNABORTED, true},
		{"epipe", syscall.EPIPE, true},
		{"wrapped-reset", fmt.Errorf("read: %w", syscall.ECONNRESET), true},
		{"op-error-reset", &net.OpError{Op: "read", Err: syscall.ECONNRESET}, true},
		// A stream cut mid-message is data loss, never benign.
		{"unexpected-eof", io.ErrUnexpectedEOF, false},
		{"wrapped-unexpected-eof", fmt.Errorf("decode: %w", io.ErrUnexpectedEOF), false},
		{"deadline", context.DeadlineExceeded, false},
		{"plain", errors.New("gob: type mismatch"), false},
	}
	for _, c := range cases {
		if got := BenignClose(c.err); got != c.want {
			t.Errorf("BenignClose(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTransientTimeoutInterface(t *testing.T) {
	// Any net.Error reporting Timeout() is transient, e.g. the error an
	// expired conn deadline produces.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	_, rerr := c.Read(make([]byte, 1))
	if rerr == nil {
		t.Fatal("read should have timed out")
	}
	if !Transient(rerr) {
		t.Fatalf("deadline error %v should be transient", rerr)
	}
}

func TestTruncatedStreamDecodeIsTransient(t *testing.T) {
	// A gob stream cut mid-message decodes to an EOF-family error, which
	// must classify as transient (outcome unknown).
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&Response{ServiceNm: "svc", ErrMsg: "x"}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	var resp Response
	err := gob.NewDecoder(bytes.NewReader(cut)).Decode(&resp)
	if err == nil {
		t.Fatal("truncated stream should fail to decode")
	}
	if !Transient(err) {
		t.Fatalf("truncated-stream error %v should be transient", err)
	}
}

func TestAttachKindString(t *testing.T) {
	if ReqAttach.String() != "attach" {
		t.Fatalf("attach kind = %q", ReqAttach.String())
	}
}
