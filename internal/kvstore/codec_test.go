package kvstore

import (
	"bytes"
	"math"
	"testing"
	"time"

	"elasticrmi/internal/transport"
)

// sameLock compares lock states as instants: decoded expiries carry no
// location or monotonic reading, so time.Equal (plus zero-ness) is the
// contract, not field-for-field equality.
func sameLock(a, b LockInfo) bool {
	return a.Owner == b.Owner && a.Seq == b.Seq &&
		a.Expires.IsZero() == b.Expires.IsZero() && a.Expires.Equal(b.Expires)
}

func sameEntries(a, b map[string]Versioned) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !bytes.Equal(v.Value, w.Value) || v.Version != w.Version || v.Deleted != w.Deleted {
			return false
		}
	}
	return true
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// replRoundTrip pushes r through the transport's payload path — the one a
// primary→backup forward takes — and requires the decode to match.
func replRoundTrip(t *testing.T, r *replReq) {
	t.Helper()
	b, err := transport.Encode(r)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var got replReq
	if err := transport.Decode(b, &got); err != nil {
		t.Fatalf("Decode of own encoding: %v", err)
	}
	if !sameEntries(got.Entries, r.Entries) || !sameStrings(got.Dels, r.Dels) ||
		!sameStrings(got.LockDrops, r.LockDrops) || len(got.Locks) != len(r.Locks) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, *r)
	}
	for name, info := range r.Locks {
		if !sameLock(got.Locks[name], info) {
			t.Fatalf("lock %q: got %+v, want %+v", name, got.Locks[name], info)
		}
	}
}

// TestReplReqTimeRoundTrip pins the lock-expiry edge cases on the
// replication wire: the zero time (a release tombstone), the instant a
// simulated clock starts at (UnixNano 0 — must not decode as zero), and
// negative and far-future instants.
func TestReplReqTimeRoundTrip(t *testing.T) {
	for _, at := range []time.Time{
		{},
		time.Unix(0, 0),
		time.Unix(-3600, 17),
		time.Unix(0, math.MaxInt64),
		time.Now(),
	} {
		replRoundTrip(t, &replReq{
			Entries: map[string]Versioned{"k": {Value: []byte("v"), Version: 3}, "gone": {Version: 9, Deleted: true}},
			Locks:   map[string]LockInfo{"l": {Owner: "o", Expires: at, Seq: 5}},
		})
	}
}

// TestKVWireIsGobFree: every kvstore message encodes through its generated
// codec. A type that lost its marker would silently fall back to gob.
func TestKVWireIsGobFree(t *testing.T) {
	for _, v := range []interface{}{
		&exportReq{}, &exportReply{}, &importReq{}, &importReply{},
		&exportLocksReq{}, &exportLocksReply{}, &importLocksReq{}, &importLocksReply{},
		&replReq{}, &replReply{}, &LockInfo{},
	} {
		if _, ok := v.(transport.Marshaler); !ok {
			t.Errorf("%T has no generated codec", v)
		}
	}
}

// FuzzReplReq drives the replication delta codec with fuzzed contents
// (marshal → unmarshal must be the identity) and with hostile raw bytes:
// a backup decodes whatever arrives on its port, so every decoder of the
// bulk and replication messages must be total — error or success, never a
// panic.
func FuzzReplReq(f *testing.F) {
	f.Add("k", []byte("value"), uint64(1), false, "owner", int64(0), uint64(1), "drop", []byte{0x01})
	f.Add("", []byte{}, uint64(0), true, "", int64(-1), uint64(0), "", []byte{})
	f.Add("k\x00", []byte{0xff}, uint64(math.MaxUint64), false, "ö", int64(math.MaxInt64), uint64(7), "x",
		[]byte{0x02, 0x01, 0x6b, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, key string, val []byte, ver uint64, deleted bool, owner string, ns int64, seq uint64, drop string, hostile []byte) {
		expires := time.Unix(0, ns)
		if ns == 0 {
			expires = time.Time{}
		}
		replRoundTrip(t, &replReq{
			Entries:   map[string]Versioned{key: {Value: val, Version: ver, Deleted: deleted}},
			Locks:     map[string]LockInfo{owner: {Owner: owner, Expires: expires, Seq: seq}},
			Dels:      []string{drop, key},
			LockDrops: []string{owner},
		})
		for _, u := range []transport.Unmarshaler{
			&replReq{}, &replReply{}, &exportReply{}, &importReq{},
			&exportLocksReply{}, &importLocksReq{}, &LockInfo{},
		} {
			_ = u.UnmarshalERMI(hostile)
		}
	})
}
