package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"msql/internal/sqlval"
)

// ErrBadTuple reports a tuple that cannot be decoded (corruption that a
// page CRC cannot catch, e.g. a software bug writing short rows).
var ErrBadTuple = errors.New("storage: malformed tuple")

// Tuple value tags. The codec is self-describing so a heap file can be
// decoded knowing only that it holds rows of sqlval values; schema
// checking stays in relstore.
const (
	tagNull byte = iota
	tagInt
	tagFloat
	tagString
	tagBoolFalse
	tagBoolTrue
)

// EncodeRow appends the compact encoding of a row of values to dst and
// returns the extended slice: a uvarint column count, then one tagged
// value per column (varint for ints, 8 fixed bytes for floats, uvarint
// length + bytes for strings).
func EncodeRow(dst []byte, row []sqlval.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(row)))
	for _, v := range row {
		switch v.K {
		case sqlval.KindNull:
			dst = append(dst, tagNull)
		case sqlval.KindInt:
			dst = append(dst, tagInt)
			dst = binary.AppendVarint(dst, v.I)
		case sqlval.KindFloat:
			dst = append(dst, tagFloat)
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
		case sqlval.KindString:
			dst = append(dst, tagString)
			dst = binary.AppendUvarint(dst, uint64(len(v.S)))
			dst = append(dst, v.S...)
		case sqlval.KindBool:
			if v.B {
				dst = append(dst, tagBoolTrue)
			} else {
				dst = append(dst, tagBoolFalse)
			}
		default:
			// Unknown kinds cannot reach storage: relstore validates rows
			// against the schema first. Store NULL to stay decodable.
			dst = append(dst, tagNull)
		}
	}
	return dst
}

// DecodeRow decodes a tuple previously written by EncodeRow into a new
// row. A zero-column tuple decodes to an empty, non-nil row.
func DecodeRow(b []byte) ([]sqlval.Value, error) {
	row, err := DecodeRowInto(nil, b)
	if err != nil {
		return nil, err
	}
	if row == nil {
		row = []sqlval.Value{}
	}
	return row, nil
}

// DecodeRowInto decodes a tuple previously written by EncodeRow,
// appending its values to dst and returning the extended slice, so a
// caller decoding many tuples can reuse one buffer. String values are
// copied out of b, so the result never aliases it. On error dst is
// returned at its original length. MatchSargs walks tuples the same way
// and must fail on exactly the tuples this rejects, with the same error.
func DecodeRowInto(dst []sqlval.Value, b []byte) ([]sqlval.Value, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)) {
		return dst, ErrBadTuple
	}
	b = b[sz:]
	start := len(dst)
	dst = slices.Grow(dst, int(n))
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return dst[:start], ErrBadTuple
		}
		tag := b[0]
		b = b[1:]
		var v sqlval.Value
		switch tag {
		case tagNull:
			v = sqlval.Null()
		case tagInt:
			x, sz := binary.Varint(b)
			if sz <= 0 {
				return dst[:start], ErrBadTuple
			}
			b = b[sz:]
			v = sqlval.Int(x)
		case tagFloat:
			if len(b) < 8 {
				return dst[:start], ErrBadTuple
			}
			v = sqlval.Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		case tagString:
			ln, sz := binary.Uvarint(b)
			if sz <= 0 || uint64(len(b)-sz) < ln {
				return dst[:start], ErrBadTuple
			}
			b = b[sz:]
			v = sqlval.Str(string(b[:ln]))
			b = b[ln:]
		case tagBoolFalse:
			v = sqlval.Bool(false)
		case tagBoolTrue:
			v = sqlval.Bool(true)
		default:
			return dst[:start], fmt.Errorf("%w: tag %d", ErrBadTuple, tag)
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// EncodeKey encodes a composite key so that bytes.Compare on encodings
// orders the same way SQL orders the values: NULL first, then by value
// within a kind. Each component is a kind byte followed by an
// order-preserving payload:
//
//	int    — 8 bytes big-endian of the value with the sign bit flipped
//	float  — IEEE bits, negated for negatives, sign bit set for
//	         non-negatives (the standard total-order transform)
//	string — the bytes with 0x00 escaped as 0x00 0xFF, terminated by
//	         0x00 0x00, so no key is a prefix of another
//	bool   — one byte, FALSE < TRUE
//
// Key columns hold one kind per column (relstore normalizes on insert),
// so cross-kind ordering only decides NULL placement in practice.
func EncodeKey(dst []byte, vals []sqlval.Value) []byte {
	for _, v := range vals {
		switch v.K {
		case sqlval.KindNull:
			dst = append(dst, 0x00)
		case sqlval.KindBool:
			if v.B {
				dst = append(dst, 0x01, 1)
			} else {
				dst = append(dst, 0x01, 0)
			}
		case sqlval.KindInt:
			dst = append(dst, 0x02)
			dst = binary.BigEndian.AppendUint64(dst, uint64(v.I)^(1<<63))
		case sqlval.KindFloat:
			bits := math.Float64bits(v.F)
			if bits&(1<<63) != 0 {
				bits = ^bits
			} else {
				bits |= 1 << 63
			}
			dst = append(dst, 0x03)
			dst = binary.BigEndian.AppendUint64(dst, bits)
		case sqlval.KindString:
			dst = append(dst, 0x04)
			for i := 0; i < len(v.S); i++ {
				if v.S[i] == 0x00 {
					dst = append(dst, 0x00, 0xFF)
				} else {
					dst = append(dst, v.S[i])
				}
			}
			dst = append(dst, 0x00, 0x00)
		}
	}
	return dst
}
