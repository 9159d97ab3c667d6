package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"msql/internal/sqlval"
)

// CmpOp is the comparison of a search argument.
type CmpOp uint8

// The six comparisons a search argument can make.
const (
	OpEq CmpOp = iota // =
	OpNe              // <>
	OpLt              // <
	OpLe              // <=
	OpGt              // >
	OpGe              // >=
)

var cmpOpNames = [...]string{OpEq: "=", OpNe: "<>", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">="}

func (op CmpOp) String() string {
	if int(op) < len(cmpOpNames) {
		return cmpOpNames[op]
	}
	return fmt.Sprintf("CmpOp(%d)", uint8(op))
}

// Flip returns the comparison with its operands swapped: "v < col" is
// "col > v".
func (op CmpOp) Flip() CmpOp {
	switch op {
	case OpLt:
		return OpGt
	case OpLe:
		return OpGe
	case OpGt:
		return OpLt
	case OpGe:
		return OpLe
	}
	return op
}

// holds reports whether an ordering result c (as sqlval.Compare returns
// it) satisfies the comparison.
func (op CmpOp) holds(c int) bool {
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return false
}

// Sarg is a search argument, "column Col Op Val" with Val a constant: a
// predicate a scan checks on a stored tuple before it decodes it, so a
// tuple that fails costs no allocation (System R's SARGs).
type Sarg struct {
	Col int
	Op  CmpOp
	Val sqlval.Value
}

func (s Sarg) String() string {
	return fmt.Sprintf("#%d %s %s", s.Col, s.Op, s.Val.SQL())
}

// match gives the sarg's verdict on one column value as MatchSargs reads
// it: a string column's v carries only its kind, its bytes are str. The
// verdict is sqlval.Compare's: a NULL on either side, or kinds Compare
// cannot order, fail every comparison, <> included. Only string against
// string is decided on the raw bytes, which order as strings.Compare
// orders the strings.
func (s Sarg) match(v sqlval.Value, str []byte) bool {
	if v.K == sqlval.KindString && s.Val.K == sqlval.KindString {
		return s.Op.holds(compareBytes(str, s.Val.S))
	}
	// Against a literal of another kind Compare looks only at the kinds.
	c, ok := sqlval.Compare(v, s.Val)
	return ok && s.Op.holds(c)
}

// compareBytes is strings.Compare(string(b), s) without copying b: the
// compiler converts in place for a comparison operand.
func compareBytes(b []byte, s string) int {
	switch {
	case string(b) == s:
		return 0
	case string(b) < s:
		return -1
	}
	return 1
}

// MatchSargs reports whether the tuple b, as EncodeRow wrote it,
// satisfies every sarg, without allocating. It walks the tuple as
// DecodeRowInto does and reads all of it even once a sarg has failed, so
// a tuple DecodeRowInto would reject fails here with the same error
// instead of being skipped unseen; a sarg on a column the tuple does not
// hold is an error too.
func MatchSargs(b []byte, sargs []Sarg) (bool, error) {
	n, sz := binary.Uvarint(b)
	if sz <= 0 || n > uint64(len(b)) {
		return false, ErrBadTuple
	}
	b = b[sz:]
	pass := true
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return false, ErrBadTuple
		}
		tag := b[0]
		b = b[1:]
		var v sqlval.Value // a string's value stays in b, as str
		var str []byte
		switch tag {
		case tagNull:
		case tagInt:
			x, sz := binary.Varint(b)
			if sz <= 0 {
				return false, ErrBadTuple
			}
			b = b[sz:]
			v = sqlval.Int(x)
		case tagFloat:
			if len(b) < 8 {
				return false, ErrBadTuple
			}
			v = sqlval.Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
			b = b[8:]
		case tagString:
			ln, sz := binary.Uvarint(b)
			if sz <= 0 || uint64(len(b)-sz) < ln {
				return false, ErrBadTuple
			}
			b = b[sz:]
			v.K = sqlval.KindString
			str, b = b[:ln], b[ln:]
		case tagBoolFalse:
			v = sqlval.Bool(false)
		case tagBoolTrue:
			v = sqlval.Bool(true)
		default:
			return false, fmt.Errorf("%w: tag %d", ErrBadTuple, tag)
		}
		if !pass {
			continue
		}
		for _, s := range sargs {
			if uint64(s.Col) == i && !s.match(v, str) {
				pass = false
				break
			}
		}
	}
	for _, s := range sargs {
		if s.Col < 0 || uint64(s.Col) >= n {
			return false, fmt.Errorf("%w: %d columns, search argument on column %d", ErrBadTuple, n, s.Col)
		}
	}
	return pass, nil
}
