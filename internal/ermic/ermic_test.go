package ermic

import (
	"math"
	"testing"
	"time"
)

func TestTimeRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		in   time.Time
	}{
		{"zero", time.Time{}},
		// A simulated clock starts at the epoch: UnixNano 0 is a real
		// instant and must not decode as the zero time.
		{"unix epoch", time.Unix(0, 0)},
		{"negative", time.Unix(-86400*365*30, 123)},
		{"now", time.Now()},
		{"far future", time.Unix(0, math.MaxInt64)},
		{"far past", time.Unix(0, math.MinInt64)},
		{"utc location", time.Date(2031, 7, 1, 12, 0, 0, 5, time.UTC)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := AppendTime([]byte{0xAA}, tc.in)
			if got := len(b) - 1; got != SizeTime(tc.in) {
				t.Fatalf("SizeTime = %d, encoded %d bytes", SizeTime(tc.in), got)
			}
			out, rest, err := ConsumeTime(b[1:])
			if err != nil {
				t.Fatalf("ConsumeTime: %v", err)
			}
			if len(rest) != 0 {
				t.Fatalf("%d trailing bytes", len(rest))
			}
			if out.IsZero() != tc.in.IsZero() || !out.Equal(tc.in) {
				t.Fatalf("round trip: got %v (zero=%v), want %v (zero=%v)", out, out.IsZero(), tc.in, tc.in.IsZero())
			}
		})
	}
}

// TestTimeClampsOutOfRange: instants whose UnixNano is undefined encode as
// the nearest representable bound instead of wrapping around.
func TestTimeClampsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		in   time.Time
		want time.Time
	}{
		{time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC), time.Unix(0, math.MaxInt64)},
		{time.Date(1, 1, 2, 0, 0, 0, 0, time.UTC), time.Unix(0, math.MinInt64)},
	} {
		out, _, err := ConsumeTime(AppendTime(nil, tc.in))
		if err != nil {
			t.Fatal(err)
		}
		if !out.Equal(tc.want) {
			t.Fatalf("%v decoded as %v, want the bound %v", tc.in, out, tc.want)
		}
	}
}

func TestConsumeTimeHostile(t *testing.T) {
	for _, b := range [][]byte{
		nil,
		{2},                   // flag is neither 0 nor 1
		{0},                   // non-zero flag without its nanos
		{0, 0x80, 0x80, 0x80}, // truncated varint
		{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // overlong varint
	} {
		if _, _, err := ConsumeTime(b); err == nil {
			t.Errorf("ConsumeTime(%x) accepted hostile input", b)
		}
	}
}
