package gentest

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
	"time"

	"elasticrmi/internal/transport"
)

// codecRoundTrip marshals orig through its generated codec, decodes it into a
// fresh value, and requires the result to match both the original and the
// value the gob fallback would have produced — the codec must be a drop-in
// replacement for gob, not a near-miss.
func codecRoundTrip[T any](t *testing.T, orig *T) {
	t.Helper()
	m, ok := any(orig).(transport.Marshaler)
	if !ok {
		t.Fatalf("%T does not implement transport.Marshaler", orig)
	}
	size := m.SizeERMI()
	out := m.MarshalERMI(make([]byte, 0, size))
	if len(out) != size {
		t.Fatalf("%T: SizeERMI = %d but MarshalERMI produced %d bytes", orig, size, len(out))
	}
	var got T
	if err := any(&got).(transport.Unmarshaler).UnmarshalERMI(out); err != nil {
		t.Fatalf("%T: UnmarshalERMI of own encoding: %v", orig, err)
	}
	if !reflect.DeepEqual(got, *orig) {
		t.Fatalf("%T round trip mismatch:\n got %+v\nwant %+v", orig, got, *orig)
	}
	// Gob baseline: the same value pushed through the fallback encoding must
	// decode to the same result (gob cannot encode field-less structs; that
	// is exactly the case the codec handles trivially, so skip it there).
	buf := new(bytes.Buffer)
	if err := gob.NewEncoder(buf).Encode(orig); err != nil {
		return
	}
	var viaGob T
	if err := gob.NewDecoder(buf).Decode(&viaGob); err != nil {
		t.Fatalf("%T: gob baseline decode: %v", orig, err)
	}
	if !reflect.DeepEqual(got, viaGob) {
		t.Fatalf("%T diverges from gob baseline:\ncodec %+v\n  gob %+v", orig, got, viaGob)
	}
}

// FuzzCodecRoundTrip drives every generated gentest codec with fuzzed field
// values (marshal → unmarshal must be the identity and agree with the gob
// baseline) and with hostile raw bytes (UnmarshalERMI must be total: error
// or success, never a panic, and never accept trailing garbage).
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(int64(5), "key", "value", []byte("payload"), []byte{0x01})
	f.Add(int64(-1), "", "", []byte{}, []byte{})
	f.Add(int64(1<<62), "k\x00n", "väl", []byte{0xff, 0xfe}, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, n int64, key, val string, blob, hostile []byte) {
		codecRoundTrip(t, &BumpArgs{N: n})
		codecRoundTrip(t, &BumpReply{Total: ^n})
		codecRoundTrip(t, &PeekArgs{})
		codecRoundTrip(t, &TagArgs{Key: key, Value: val})
		codecRoundTrip(t, &TagReply{MemberUID: n})
		var first byte
		if len(blob) > 0 {
			first = blob[0]
		}
		codecRoundTrip(t, &BlobReply{Len: int64(len(blob)), First: first})
		leaseRoundTrip(t, &LeaseInfo{
			Owner:   key,
			Expires: time.Unix(0, n),
			Renewed: []time.Time{{}, time.Unix(0, ^n)},
			ByNode:  map[string]time.Time{val: time.Unix(n>>32, 0)},
		})

		// BlobArgs decodes Data as a zero-copy view, so nil/empty identity is
		// not preserved — compare contents and assert the view really does
		// alias the encoded buffer rather than copying it.
		ba := &BlobArgs{Data: blob}
		enc := ba.MarshalERMI(make([]byte, 0, ba.SizeERMI()))
		var got BlobArgs
		if err := got.UnmarshalERMI(enc); err != nil {
			t.Fatalf("BlobArgs: UnmarshalERMI of own encoding: %v", err)
		}
		if !bytes.Equal(got.Data, blob) {
			t.Fatalf("BlobArgs round trip mismatch: got %x want %x", got.Data, blob)
		}
		if len(blob) > 0 && &got.Data[0] != &enc[len(enc)-len(blob)] {
			t.Fatal("BlobArgs.Data was copied; expected a zero-copy view into the encoding")
		}

		// Trailing garbage after a valid encoding must be rejected — a codec
		// that silently ignores leftover bytes would mask framing bugs.
		withTrailer := append(append([]byte(nil), enc...), 0x00)
		if err := new(BlobArgs).UnmarshalERMI(withTrailer); err == nil {
			t.Fatal("BlobArgs accepted an encoding with a trailing byte")
		}

		// Hostile input: arbitrary bytes must decode or error, never panic.
		for _, u := range []transport.Unmarshaler{
			&BumpArgs{}, &BumpReply{}, &PeekArgs{}, &TagArgs{},
			&TagReply{}, &BlobArgs{}, &BlobReply{}, &LeaseInfo{},
		} {
			_ = u.UnmarshalERMI(hostile)
		}
	})
}

// leaseRoundTrip is codecRoundTrip for the time-bearing fixture. Decoded
// instants are equal to the originals as instants (time.Equal), not field
// for field: the codec carries neither location nor monotonic reading, so
// reflect.DeepEqual and the gob baseline do not apply.
func leaseRoundTrip(t *testing.T, orig *LeaseInfo) {
	t.Helper()
	out := orig.MarshalERMI(make([]byte, 0, orig.SizeERMI()))
	if len(out) != orig.SizeERMI() {
		t.Fatalf("LeaseInfo: SizeERMI = %d but MarshalERMI produced %d bytes", orig.SizeERMI(), len(out))
	}
	var got LeaseInfo
	if err := got.UnmarshalERMI(out); err != nil {
		t.Fatalf("LeaseInfo: UnmarshalERMI of own encoding: %v", err)
	}
	same := func(a, b time.Time) bool { return a.IsZero() == b.IsZero() && a.Equal(b) }
	ok := got.Owner == orig.Owner && same(got.Expires, orig.Expires) &&
		len(got.Renewed) == len(orig.Renewed) && len(got.ByNode) == len(orig.ByNode)
	for i := 0; ok && i < len(orig.Renewed); i++ {
		ok = same(got.Renewed[i], orig.Renewed[i])
	}
	for k, v := range orig.ByNode {
		ok = ok && same(got.ByNode[k], v)
	}
	if !ok {
		t.Fatalf("LeaseInfo round trip mismatch:\n got %+v\nwant %+v", got, *orig)
	}
}

// TestTimeRoundTrip pins the time.Time edge cases through a generated
// codec: the zero time, the instant a simulated clock starts at (UnixNano
// 0, which must not decode as zero), and negative and far-future instants.
func TestTimeRoundTrip(t *testing.T) {
	for _, at := range []time.Time{
		{},
		time.Unix(0, 0),
		time.Unix(-1, 0),
		time.Date(1700, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2262, 4, 11, 0, 0, 0, 0, time.UTC),
		time.Now(),
	} {
		leaseRoundTrip(t, &LeaseInfo{
			Owner:   "o",
			Expires: at,
			Renewed: []time.Time{at, {}},
			ByNode:  map[string]time.Time{"n": at},
		})
	}
}
