// Package codec implements the wire encoding GRAPHITE uses for interval
// messages (Sec. VI "Interval Messages"): time-points are variable
// byte-length numbers, unit-length intervals and intervals extending to ∞
// are flagged in a header byte so only the start point is transmitted.
// The paper reports 59–78% message-size reductions from this encoding; the
// MsgSize experiment reproduces that measurement.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	ival "graphite/internal/interval"
)

// Header flags for interval encoding.
const (
	flagUnit      = 0x01 // [t, t+1): only start encoded
	flagUnbounded = 0x02 // [t, ∞): only start encoded
	flagEmpty     = 0x04 // empty interval: nothing else encoded
)

// ErrCorrupt is returned when a buffer cannot be decoded.
var ErrCorrupt = errors.New("codec: corrupt buffer")

// intervalFlag is the header AppendInterval writes for iv.
func intervalFlag(iv ival.Interval) byte {
	switch {
	case iv.IsEmpty():
		return flagEmpty
	case iv.IsUnit():
		return flagUnit
	case iv.IsUnbounded():
		return flagUnbounded
	}
	return 0
}

// AppendInterval appends the variable-length encoding of iv to buf.
func AppendInterval(buf []byte, iv ival.Interval) []byte {
	f := intervalFlag(iv)
	buf = append(buf, f)
	switch f {
	case flagEmpty:
		return buf
	case flagUnit, flagUnbounded:
		return binary.AppendUvarint(buf, uint64(iv.Start))
	}
	buf = binary.AppendUvarint(buf, uint64(iv.Start))
	// Length, not end: deltas are small for typical intervals.
	return binary.AppendUvarint(buf, uint64(iv.End-iv.Start))
}

// Interval decodes an interval from buf, returning it and the bytes consumed.
// It accepts only the encoding AppendInterval writes — one known header,
// minimal varints, and the header AppendInterval would pick for the decoded
// interval — so every accepted encoding re-encodes to the same bytes.
func Interval(buf []byte) (ival.Interval, int, error) {
	if len(buf) == 0 {
		return ival.Empty, 0, ErrCorrupt
	}
	flags := buf[0]
	n := 1
	switch flags {
	case flagEmpty:
		return ival.Empty, n, nil
	case 0, flagUnit, flagUnbounded:
	default:
		return ival.Empty, 0, ErrCorrupt
	}
	start, k := binary.Uvarint(buf[n:])
	if !MinimalVarint(buf[n:], k) {
		return ival.Empty, 0, ErrCorrupt
	}
	n += k
	var iv ival.Interval
	switch flags {
	case flagUnit:
		iv = ival.Point(int64(start))
	case flagUnbounded:
		iv = ival.From(int64(start))
	default:
		length, k := binary.Uvarint(buf[n:])
		if !MinimalVarint(buf[n:], k) {
			return ival.Empty, 0, ErrCorrupt
		}
		n += k
		iv = ival.New(int64(start), int64(start)+int64(length))
	}
	if intervalFlag(iv) != flags {
		return ival.Empty, 0, ErrCorrupt
	}
	return iv, n, nil
}

// MinimalVarint reports whether the k bytes binary.Uvarint or binary.Varint
// just read from buf are the minimal encoding the Append functions write:
// false for a failed read (k <= 0) and for an overlong one, whose last byte
// is zero. Decoders that accept only minimal varints re-encode every input
// they accept to the same bytes.
func MinimalVarint(buf []byte, k int) bool { return k == 1 || k > 1 && buf[k-1] != 0 }

// IntervalSize returns the encoded size of iv without allocating.
func IntervalSize(iv ival.Interval) int {
	switch {
	case iv.IsEmpty():
		return 1
	case iv.IsUnit(), iv.IsUnbounded():
		return 1 + uvarintLen(uint64(iv.Start))
	default:
		return 1 + uvarintLen(uint64(iv.Start)) + uvarintLen(uint64(iv.End-iv.Start))
	}
}

// FixedIntervalSize is the size of the naive encoding the paper compares
// against: two 8-byte longs.
const FixedIntervalSize = 16

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// Payload encodes and decodes a message payload. Algorithms register one
// per message type so the engine can serialize across the worker transport
// and account message bytes.
type Payload interface {
	// Append appends the encoding of v to buf.
	Append(buf []byte, v any) []byte
	// Decode reads one value from buf, returning it and the bytes consumed.
	Decode(buf []byte) (any, int, error)
}

// Int64 encodes int64 payloads as zig-zag varints.
type Int64 struct{}

// Append implements Payload.
func (Int64) Append(buf []byte, v any) []byte {
	return binary.AppendVarint(buf, v.(int64))
}

// Decode implements Payload.
func (Int64) Decode(buf []byte) (any, int, error) {
	v, n := binary.Varint(buf)
	if !MinimalVarint(buf, n) {
		return nil, 0, ErrCorrupt
	}
	return v, n, nil
}

// Int64Pair is a two-field payload, e.g. (arrival, parent) for TMST or
// (value, origin) for path algorithms.
type Int64Pair struct{ A, B int64 }

// PairCodec encodes Int64Pair payloads.
type PairCodec struct{}

// Append implements Payload.
func (PairCodec) Append(buf []byte, v any) []byte {
	p := v.(Int64Pair)
	buf = binary.AppendVarint(buf, p.A)
	return binary.AppendVarint(buf, p.B)
}

// Decode implements Payload.
func (PairCodec) Decode(buf []byte) (any, int, error) {
	a, n := binary.Varint(buf)
	if !MinimalVarint(buf, n) {
		return nil, 0, ErrCorrupt
	}
	b, k := binary.Varint(buf[n:])
	if !MinimalVarint(buf[n:], k) {
		return nil, 0, ErrCorrupt
	}
	return Int64Pair{A: a, B: b}, n + k, nil
}

// Int64Slice encodes []int64 payloads (used by the clustering algorithms,
// whose messages carry neighbor lists).
type Int64Slice struct{}

// Append implements Payload.
func (Int64Slice) Append(buf []byte, v any) []byte {
	s := v.([]int64)
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	for _, x := range s {
		buf = binary.AppendVarint(buf, x)
	}
	return buf
}

// Decode implements Payload.
func (Int64Slice) Decode(buf []byte) (any, int, error) {
	n := 0
	l, k := binary.Uvarint(buf)
	if !MinimalVarint(buf, k) {
		return nil, 0, ErrCorrupt
	}
	n += k
	if l > uint64(len(buf)) { // cheap sanity bound: ≥1 byte per element
		return nil, 0, fmt.Errorf("%w: slice length %d", ErrCorrupt, l)
	}
	s := make([]int64, l)
	for i := range s {
		v, k := binary.Varint(buf[n:])
		if !MinimalVarint(buf[n:], k) {
			return nil, 0, ErrCorrupt
		}
		s[i] = v
		n += k
	}
	return s, n, nil
}

// Float64 encodes float64 payloads as fixed 8-byte IEEE-754 values.
type Float64 struct{}

// Append implements Payload.
func (Float64) Append(buf []byte, v any) []byte {
	return binary.BigEndian.AppendUint64(buf, math.Float64bits(v.(float64)))
}

// Decode implements Payload.
func (Float64) Decode(buf []byte) (any, int, error) {
	if len(buf) < 8 {
		return nil, 0, ErrCorrupt
	}
	return math.Float64frombits(binary.BigEndian.Uint64(buf)), 8, nil
}
