// Package ermic is the runtime support library for ermi-gen's generated
// binary codecs (the `//ermi:codec` annotation). Generated MarshalERMI /
// UnmarshalERMI methods call these helpers for the primitive wire shapes —
// varints, zigzag-signed varints, length-prefixed byte strings — so the
// generated code stays small and the hostile-input guards live in one place.
//
// Wire shapes:
//
//   - unsigned integers: uvarint (encoding/binary layout)
//   - signed integers:   zigzag-mapped uvarint, so small negatives stay small
//   - floats:            fixed 4/8-byte little-endian IEEE 754 bit patterns
//   - bool:              one byte, 0 or 1
//   - string, []byte:    uvarint length prefix + raw bytes
//   - slices, maps:      uvarint element count + elements
//   - time.Time:         zero flag byte, then (unless zero) the instant as
//     zigzag unix-nanoseconds
//
// Every Consume helper is total on arbitrary input: truncated or hostile
// bytes return ErrMalformed, never panic, and never allocate proportionally
// to an attacker-declared length (declared lengths and counts are checked
// against the bytes actually present before any allocation).
package ermic

import (
	"encoding/binary"
	"errors"
	"math"
	"time"
)

// ErrMalformed is returned for any input a generated codec cannot decode:
// truncated fields, hostile declared lengths, or trailing garbage.
var ErrMalformed = errors.New("ermic: malformed codec payload")

// SizeUvarint returns the encoded size of x.
func SizeUvarint(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// SizeVarint returns the encoded size of zigzag-mapped x.
func SizeVarint(x int64) int {
	return SizeUvarint(zigzag(x))
}

// SizeBytes returns the encoded size of a length-prefixed byte string of n
// bytes.
func SizeBytes(n int) int {
	return SizeUvarint(uint64(n)) + n
}

func zigzag(x int64) uint64   { return uint64(x<<1) ^ uint64(x>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// AppendUvarint appends x to b.
func AppendUvarint(b []byte, x uint64) []byte {
	return binary.AppendUvarint(b, x)
}

// AppendVarint appends zigzag-mapped x to b.
func AppendVarint(b []byte, x int64) []byte {
	return binary.AppendUvarint(b, zigzag(x))
}

// AppendBytes appends a length-prefixed byte string to b.
func AppendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// AppendString appends a length-prefixed string to b.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBool appends one byte (0 or 1) to b.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// ConsumeUvarint consumes a uvarint from b.
func ConsumeUvarint(b []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, ErrMalformed
	}
	return x, b[n:], nil
}

// ConsumeVarint consumes a zigzag-mapped varint from b.
func ConsumeVarint(b []byte) (int64, []byte, error) {
	u, rest, err := ConsumeUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	return unzigzag(u), rest, nil
}

// ConsumeBytesView consumes a length-prefixed byte string from b without
// copying: the returned slice aliases b. A declared length beyond the bytes
// present is malformed, so the view can never read past the input.
func ConsumeBytesView(b []byte) ([]byte, []byte, error) {
	n, rest, err := ConsumeUvarint(b)
	if err != nil || n > uint64(len(rest)) {
		return nil, nil, ErrMalformed
	}
	return rest[:n:n], rest[n:], nil
}

// ConsumeString consumes a length-prefixed string from b, copying it out of
// the input buffer (strings outlive transport frames).
func ConsumeString(b []byte) (string, []byte, error) {
	v, rest, err := ConsumeBytesView(b)
	if err != nil {
		return "", nil, err
	}
	return string(v), rest, nil
}

// ConsumeBool consumes one bool byte from b. Any value other than 0 or 1 is
// malformed (it would break marshal/unmarshal round-trip fidelity).
func ConsumeBool(b []byte) (bool, []byte, error) {
	if len(b) == 0 || b[0] > 1 {
		return false, nil, ErrMalformed
	}
	return b[0] == 1, b[1:], nil
}

// AppendFloat32 appends v's IEEE 754 bit pattern as 4 little-endian bytes.
func AppendFloat32(b []byte, v float32) []byte {
	return binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
}

// AppendFloat64 appends v's IEEE 754 bit pattern as 8 little-endian bytes.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// ConsumeFloat32 consumes a fixed 4-byte float from b.
func ConsumeFloat32(b []byte) (float32, []byte, error) {
	if len(b) < 4 {
		return 0, nil, ErrMalformed
	}
	return math.Float32frombits(binary.LittleEndian.Uint32(b)), b[4:], nil
}

// ConsumeFloat64 consumes a fixed 8-byte float from b.
func ConsumeFloat64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrMalformed
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// ConsumeCount consumes an element count for a slice or map and guards it
// against allocation bombs: every element of any codec type occupies at
// least one encoded byte, so a declared count larger than the remaining
// input is provably hostile and rejected before any allocation.
func ConsumeCount(b []byte) (int, []byte, error) {
	n, rest, err := ConsumeUvarint(b)
	if err != nil || n > uint64(len(rest)) {
		return 0, nil, ErrMalformed
	}
	return int(n), rest, nil
}

// Time bounds: the instants whose unix-nanosecond count fits an int64
// (1677-09-21 to 2262-04-11 UTC). AppendTime saturates to them.
var (
	minTime = time.Unix(0, math.MinInt64)
	maxTime = time.Unix(0, math.MaxInt64)
)

// SizeTime returns the encoded size of t.
func SizeTime(t time.Time) int {
	if t.IsZero() {
		return 1
	}
	return 1 + SizeVarint(unixNanos(t))
}

// AppendTime appends t as a zero flag and, for a non-zero t, its zigzag
// unix-nanoseconds. The flag is explicit because a simulated clock can put
// a real instant at UnixNano 0. Location and monotonic reading are not
// carried, and an instant outside the int64 nanosecond range (where
// UnixNano is undefined) is clamped to the nearest bound. The WAL's lock
// records and the wire codec share this encoding.
func AppendTime(b []byte, t time.Time) []byte {
	if t.IsZero() {
		return append(b, 1)
	}
	b = append(b, 0)
	return AppendVarint(b, unixNanos(t))
}

// ConsumeTime consumes a time encoded by AppendTime. Non-zero instants
// decode in the local location, as time.Unix returns them.
func ConsumeTime(b []byte) (time.Time, []byte, error) {
	zero, b, err := ConsumeBool(b)
	if err != nil {
		return time.Time{}, nil, err
	}
	if zero {
		return time.Time{}, b, nil
	}
	ns, b, err := ConsumeVarint(b)
	if err != nil {
		return time.Time{}, nil, err
	}
	return time.Unix(0, ns), b, nil
}

// unixNanos is t.UnixNano clamped to the representable range.
func unixNanos(t time.Time) int64 {
	switch {
	case t.Before(minTime):
		return math.MinInt64
	case t.After(maxTime):
		return math.MaxInt64
	}
	return t.UnixNano()
}
