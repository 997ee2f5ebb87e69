package tuple

import (
	"encoding/binary"
	"math"
	"strings"
)

// Normalized keys are the one definition of key equality and key order
// for every column type: a one-pass, memcmp-able byte encoding of a
// tuple's join/sort/dedup columns. bytes.Compare over two tuples'
// normalized keys returns exactly Compare(a, b, cols, cols), and equal
// keys identify equal column value lists — so the sampled executors
// (sort, merge, dedup over cached keys) and the exact evaluator (hash
// keys) agree with CompareValues by construction.
//
// Encoding, per column:
//
//   - Int: 8 bytes big-endian with the sign bit flipped, so unsigned
//     byte order equals signed integer order.
//   - Float: the IEEE-754 bits, big-endian, with the sign bit flipped
//     for non-negative values and every bit flipped for negative ones;
//     −0 encodes as +0 and every NaN as eight zero bytes, below −Inf
//     (cmp.Compare's order: −0 ≡ +0, NaN ≡ NaN and lowest).
//   - String: the raw bytes with every 0x00 escaped as 0x00 0xFF,
//     terminated by 0x00 0x00. The terminator sorts below any escaped
//     or plain content byte, which preserves lexicographic order across
//     column boundaries even for values that are prefixes of each other
//     or contain embedded NULs.
//
// An Int column joined to a Float column compares as float64 on both
// sides (CompareValues' promotion); JoinWiden marks those positions and
// the encoders widen them.

// JoinWiden reports which key positions of a join pair an Int column
// with a Float column: widen[i] is set when colsA[i] of a and colsB[i]
// of b differ in numeric type, and both sides must then encode position
// i as a float. It returns nil when no position is mixed.
func JoinWiden(a *Schema, colsA []int, b *Schema, colsB []int) []bool {
	var widen []bool
	for i := range colsA {
		ta, tb := a.cols[colsA[i]].Type, b.cols[colsB[i]].Type
		if ta != tb && ta != String && tb != String {
			if widen == nil {
				widen = make([]bool, len(colsA))
			}
			widen[i] = true
		}
	}
	return widen
}

// AppendNormKey appends the normalized key of t's values on the given
// columns (all columns when cols is nil) to dst and returns the
// extended slice. widen is nil or JoinWiden's result for cols.
func AppendNormKey(dst []byte, t Tuple, cols []int, widen []bool) []byte {
	if cols == nil {
		for i := range t {
			dst = appendNormValue(dst, t[i], false)
		}
		return dst
	}
	for k, i := range cols {
		dst = appendNormValue(dst, t[i], widen != nil && widen[k])
	}
	return dst
}

func appendNormValue(dst []byte, v Value, widen bool) []byte {
	switch x := v.(type) {
	case int64:
		if widen {
			return appendNormFloat(dst, float64(x))
		}
		return appendNormInt(dst, x)
	case float64:
		return appendNormFloat(dst, x)
	case string:
		return appendNormString(dst, x)
	default:
		panic("tuple: AppendNormKey on unsupported value type")
	}
}

func appendNormInt(dst []byte, x int64) []byte {
	return binary.BigEndian.AppendUint64(dst, uint64(x)^(1<<63))
}

func appendNormFloat(dst []byte, x float64) []byte {
	var bits uint64
	switch {
	case x != x: // NaN: lowest
	case x == 0: // −0 ≡ +0
		bits = 1 << 63
	case x < 0:
		bits = ^math.Float64bits(x)
	default:
		bits = math.Float64bits(x) | 1<<63
	}
	return binary.BigEndian.AppendUint64(dst, bits)
}

func appendNormString(dst []byte, x string) []byte {
	for {
		j := strings.IndexByte(x, 0)
		if j < 0 {
			dst = append(dst, x...)
			break
		}
		dst = append(dst, x[:j]...)
		dst = append(dst, 0x00, 0xFF)
		x = x[j+1:]
	}
	return append(dst, 0x00, 0x00)
}
