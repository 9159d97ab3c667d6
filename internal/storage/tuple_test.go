package storage

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"msql/internal/sqlval"
)

func TestRowCodecRoundtrip(t *testing.T) {
	rows := [][]sqlval.Value{
		{},
		{sqlval.Null()},
		{sqlval.Int(0), sqlval.Int(-1), sqlval.Int(math.MaxInt64), sqlval.Int(math.MinInt64)},
		{sqlval.Float(0), sqlval.Float(-3.25), sqlval.Float(math.Inf(1))},
		{sqlval.Str(""), sqlval.Str("hello"), sqlval.Str("emb\x00edded")},
		{sqlval.Bool(true), sqlval.Bool(false), sqlval.Null(), sqlval.Int(42), sqlval.Str("mix")},
	}
	for _, row := range rows {
		enc := EncodeRow(nil, row)
		dec, err := DecodeRow(enc)
		if err != nil {
			t.Fatalf("decode %v: %v", row, err)
		}
		if len(dec) != len(row) {
			t.Fatalf("len %d, want %d", len(dec), len(row))
		}
		if len(row) > 0 && !reflect.DeepEqual(dec, row) {
			t.Fatalf("roundtrip mismatch: got %v want %v", dec, row)
		}
	}
}

func TestRowCodecRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, // huge count
		{2, tagInt},                  // truncated varint
		{1, tagFloat, 1, 2, 3},       // short float
		{1, tagString, 10, 'a', 'b'}, // string length past end
		{1, 99},                      // unknown tag
	}
	for i, c := range cases {
		if _, err := DecodeRow(c); err == nil {
			t.Fatalf("case %d: garbage decoded without error", i)
		}
	}
}

func TestEncodeKeyOrdering(t *testing.T) {
	// Values listed in their expected SQL order. bytes.Compare on the
	// encodings must agree for every pair.
	ordered := []sqlval.Value{
		sqlval.Null(),
		sqlval.Bool(false),
		sqlval.Bool(true),
		sqlval.Int(math.MinInt64),
		sqlval.Int(-7),
		sqlval.Int(0),
		sqlval.Int(7),
		sqlval.Int(math.MaxInt64),
		sqlval.Float(math.Inf(-1)),
		sqlval.Float(-2.5),
		sqlval.Float(0),
		sqlval.Float(1e-10),
		sqlval.Float(3.25),
		sqlval.Float(math.Inf(1)),
		sqlval.Str(""),
		sqlval.Str("a"),
		sqlval.Str("a\x00b"),
		sqlval.Str("aa"),
		sqlval.Str("ab"),
		sqlval.Str("b"),
	}
	for i := 0; i < len(ordered); i++ {
		for j := i + 1; j < len(ordered); j++ {
			// Only compare within a kind (plus NULL vs anything): key
			// columns are single-kinded, cross-kind order is unspecified
			// beyond NULL-first.
			ki, kj := ordered[i].K, ordered[j].K
			if ki != kj && ki != sqlval.KindNull {
				continue
			}
			a := EncodeKey(nil, []sqlval.Value{ordered[i]})
			b := EncodeKey(nil, []sqlval.Value{ordered[j]})
			if bytes.Compare(a, b) >= 0 {
				t.Errorf("enc(%v) >= enc(%v), want <", ordered[i], ordered[j])
			}
		}
	}
}

func TestEncodeKeyCompositeNoPrefixConfusion(t *testing.T) {
	// ("a","b") vs ("ab","") — a naive concatenation would collide or
	// misorder; the terminator keeps components distinct.
	ab := EncodeKey(nil, []sqlval.Value{sqlval.Str("a"), sqlval.Str("b")})
	ab2 := EncodeKey(nil, []sqlval.Value{sqlval.Str("ab"), sqlval.Str("")})
	if bytes.Equal(ab, ab2) {
		t.Fatal("composite keys collided")
	}
	if bytes.Compare(ab, ab2) >= 0 {
		t.Fatal(`("a","b") should sort before ("ab","")`)
	}
	// Embedded NUL in a component still orders correctly against its
	// extension.
	k1 := EncodeKey(nil, []sqlval.Value{sqlval.Str("a\x00")})
	k2 := EncodeKey(nil, []sqlval.Value{sqlval.Str("a\x00\x00")})
	if bytes.Compare(k1, k2) >= 0 {
		t.Fatal("NUL-embedded key misordered against its extension")
	}
}

// TestDecodeRowIntoAppends decodes two tuples into one buffer: the second
// lands after the first, a zero-column tuple decodes to an empty non-nil
// row, and a malformed tuple leaves the buffer at its old length.
func TestDecodeRowIntoAppends(t *testing.T) {
	a := []sqlval.Value{sqlval.Int(1), sqlval.Str("one")}
	b := []sqlval.Value{sqlval.Null(), sqlval.Float(2.5), sqlval.Bool(true)}
	buf, err := DecodeRowInto(nil, EncodeRow(nil, a))
	if err != nil {
		t.Fatal(err)
	}
	buf, err = DecodeRowInto(buf, EncodeRow(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]sqlval.Value(nil), a...), b...)
	if len(buf) != len(want) {
		t.Fatalf("buffer holds %d values, want %d", len(buf), len(want))
	}
	for i := range want {
		if buf[i] != want[i] {
			t.Fatalf("value %d = %v, want %v", i, buf[i], want[i])
		}
	}
	bad := EncodeRow(nil, a)
	if out, err := DecodeRowInto(buf, bad[:len(bad)-2]); err == nil || len(out) != len(want) {
		t.Fatalf("truncated tuple: err %v, buffer %d values (want %d)", err, len(out), len(want))
	}
	empty, err := DecodeRow(EncodeRow(nil, nil))
	if err != nil || empty == nil || len(empty) != 0 {
		t.Fatalf("zero-column tuple decoded to %#v, %v", empty, err)
	}
}
