package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"elasticrmi/internal/kvstore"
)

// Span kinds. Client spans wrap the calls the benchmark makes into the
// transport codec and the stub; member spans wrap the elastic-class method
// and its core.State calls; kvstore spans wrap the kvstore.Shared the pool
// was given.
const (
	spClient uint8 = iota // one whole invocation as the application sees it
	spEncode              // transport.Encode of the argument
	spInvoke              // core.Stub.Invoke
	spDecode              // transport.Decode of the reply
	spHandle              // the elastic-class method on the member
	spStateGet
	spStatePut
	spStateLock
	spStateUnlock
	spStateAdd
	spKVGet
	spKVPut
	spKVTryLock
	spKVUnlock
	spKVAdd
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"client.call", "codec.encode", "stub.invoke", "codec.decode", "member.handle",
	"state.get", "state.put", "state.lock", "state.unlock", "state.add",
	"kvstore.get", "kvstore.put", "kvstore.trylock", "kvstore.unlock", "kvstore.add",
}

func isState(k uint8) bool { return k >= spStateGet && k <= spStateAdd }
func isKV(k uint8) bool    { return k >= spKVGet && k <= spKVAdd }

// span is one timed interval. parent is the index of the enclosing span
// when the recording code knows it, else -1: a member span links to its
// client span by trace id, a kvstore span to its state span by key and
// interval containment, both when the trace is analysed. aux holds the
// serving member's UID (member.handle), the payload bytes (codec spans) or
// the error class (kvstore spans).
type span struct {
	trace      uint64
	start, end int64 // ns on the tracer's monotonic clock
	key        string
	aux        int64
	parent     int32
	kind       uint8
}

// kvstore span error classes.
const (
	kvOK = iota
	kvLockHeld
	kvNotFound
	kvError
)

// tracer keeps spans in a preallocated buffer; spans beyond its capacity
// are counted and dropped. It records only while on, and only for one
// invocation in sampleEvery (head sampling: the client decides, and the
// member and kvstore spans of that invocation follow).
type tracer struct {
	on      atomic.Bool
	base    time.Time
	next    atomic.Int64
	dropped atomic.Int64
	spans   []span
	calls   atomic.Uint64
	// inState counts sampled core.State calls in progress: the kvstore
	// wrapper records only while one is, since only then can its call
	// belong to a sampled invocation.
	inState atomic.Int64
}

const sampleEvery = 4

// sample decides whether one invocation is traced; if so it returns the
// slot of its client span and its trace id.
func (t *tracer) sample() (int32, uint64) {
	if t == nil || !t.on.Load() {
		return -1, 0
	}
	n := t.calls.Add(1)
	if n%sampleEvery != 0 {
		return -1, 0
	}
	return t.reserve(), n
}

func newTracer(capacity int) *tracer {
	return &tracer{base: time.Now(), spans: make([]span, capacity)}
}

// now reads the tracer's clock; a nil tracer is off.
func (t *tracer) now() int64 {
	if t == nil || !t.on.Load() {
		return 0
	}
	return int64(time.Since(t.base))
}

// reserve claims a span slot so children can name it as their parent
// before it ends; -1 when tracing is off or the buffer is full.
func (t *tracer) reserve() int32 {
	if t == nil || !t.on.Load() {
		return -1
	}
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

// fill completes a reserved slot, ending the span now.
func (t *tracer) fill(id int32, s span) {
	if id < 0 {
		return
	}
	s.end = int64(time.Since(t.base))
	t.spans[id] = s
}

// record stores a span that started at start and ends now.
func (t *tracer) record(kind uint8, trace uint64, parent int32, start int64, key string, aux int64) {
	if start == 0 {
		return
	}
	t.fill(t.reserve(), span{kind: kind, trace: trace, parent: parent, start: start, key: key, aux: aux})
}

// recorded returns the completed spans.
func (t *tracer) recorded() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// write stores the spans as tab-separated lines: id, parent, trace, name,
// start ns, end ns, key, aux.
func (t *tracer) write(path string, host string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# %s\n# id\tparent\ttrace\tname\tstart_ns\tend_ns\tkey\taux\n", host)
	for i, s := range t.recorded() {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%s\t%d\n", i, s.parent, s.trace, spanNames[s.kind], s.start, s.end, s.key, s.aux)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedStore times the kvstore.Shared calls the benchmark's elastic class
// makes through core.State while tracing is on. It is installed as
// Deps.Store only in traced runs.
type tracedStore struct {
	kvstore.Shared
	t *tracer
}

func kvClass(err error) int64 {
	switch {
	case err == nil:
		return kvOK
	case errors.Is(err, kvstore.ErrLockHeld):
		return kvLockHeld
	case errors.Is(err, kvstore.ErrNotFound):
		return kvNotFound
	}
	return kvError
}

// now starts a kvstore span, or returns 0 when no sampled state call is
// in progress.
func (s *tracedStore) now() int64 {
	if s.t.inState.Load() == 0 {
		return 0
	}
	return s.t.now()
}

func (s *tracedStore) Get(key string) (kvstore.Versioned, error) {
	t0 := s.now()
	v, err := s.Shared.Get(key)
	s.t.record(spKVGet, 0, -1, t0, key, kvClass(err))
	return v, err
}

func (s *tracedStore) Put(key string, value []byte) (uint64, error) {
	t0 := s.now()
	ver, err := s.Shared.Put(key, value)
	s.t.record(spKVPut, 0, -1, t0, key, kvClass(err))
	return ver, err
}

func (s *tracedStore) AddInt64(key string, delta int64) (int64, error) {
	t0 := s.now()
	v, err := s.Shared.AddInt64(key, delta)
	s.t.record(spKVAdd, 0, -1, t0, key, kvClass(err))
	return v, err
}

func (s *tracedStore) TryLock(name, owner string, lease time.Duration) error {
	t0 := s.now()
	err := s.Shared.TryLock(name, owner, lease)
	s.t.record(spKVTryLock, 0, -1, t0, name, kvClass(err))
	return err
}

func (s *tracedStore) Unlock(name, owner string) error {
	t0 := s.now()
	err := s.Shared.Unlock(name, owner)
	s.t.record(spKVUnlock, 0, -1, t0, name, kvClass(err))
	return err
}

// traceStats is what analysis derives from the spans.
type traceStats struct {
	byKind    [numSpanKinds][]time.Duration
	selfState []time.Duration // state span minus kvstore children
	selfHdl   []time.Duration // member.handle minus state children
	wireReq   []time.Duration // stub.invoke start -> member.handle start
	wireRep   []time.Duration // member.handle end -> stub.invoke end
	wireSum   int64
	invokeSum int64
	clientOps int64
	payload   int64 // codec bytes, both directions
	kvLinked  int64
	lockBusy  int64
	tryLocks  int64
	kvErrors  int64
	byMember  map[int64]int64
}

// analyze links the spans into per-invocation trees and computes
// durations, self times and wire times.
func analyze(spans []span) *traceStats {
	st := &traceStats{byMember: make(map[int64]int64)}
	invokeOf := make(map[uint64]int32) // trace -> stub.invoke span
	stateByKey := make(map[string][]int32)
	covered := make([]int64, len(spans)) // child time per parent span
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			continue // reserved but never filled: the run ended mid-call
		}
		d := s.end - s.start
		if !isKV(s.kind) {
			st.byKind[s.kind] = append(st.byKind[s.kind], time.Duration(d))
		}
		switch {
		case s.kind == spInvoke:
			invokeOf[s.trace] = int32(i)
			st.invokeSum += d
		case s.kind == spClient:
			st.clientOps++
		case s.kind == spEncode || s.kind == spDecode:
			st.payload += s.aux
		case s.kind == spHandle:
			st.byMember[s.aux]++
		case isState(s.kind):
			stateByKey[s.key] = append(stateByKey[s.key], int32(i))
			if s.parent >= 0 {
				covered[s.parent] += d
			}
		}
	}
	for _, ids := range stateByKey {
		sort.Slice(ids, func(a, b int) bool { return spans[ids[a]].start < spans[ids[b]].start })
	}
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			continue
		}
		switch {
		case s.kind == spHandle:
			if inv, ok := invokeOf[s.trace]; ok {
				s.parent = inv
				c := &spans[inv]
				req, rep := s.start-c.start, c.end-s.end
				st.wireReq = append(st.wireReq, time.Duration(req))
				st.wireRep = append(st.wireRep, time.Duration(rep))
				st.wireSum += req + rep
			}
		case isKV(s.kind):
			if s.kind == spKVTryLock {
				st.tryLocks++
				if s.aux == kvLockHeld {
					st.lockBusy++
				}
			}
			if s.aux == kvError {
				st.kvErrors++
			}
			// The latest-starting state span on the same key that contains
			// this interval is its parent. Unlinked kvstore calls (the pool's
			// own, such as member UID allocation) are left out of the
			// per-layer numbers.
			ids := stateByKey[s.key]
			j := sort.Search(len(ids), func(j int) bool { return spans[ids[j]].start > s.start }) - 1
			for ; j >= 0; j-- {
				p := &spans[ids[j]]
				if p.end >= s.end {
					s.parent = ids[j]
					covered[ids[j]] += s.end - s.start
					st.byKind[s.kind] = append(st.byKind[s.kind], time.Duration(s.end-s.start))
					st.kvLinked++
					break
				}
			}
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.end == 0 {
			continue
		}
		switch {
		case s.kind == spHandle:
			st.selfHdl = append(st.selfHdl, time.Duration(s.end-s.start-covered[i]))
		case isState(s.kind):
			st.selfState = append(st.selfState, time.Duration(s.end-s.start-covered[i]))
		}
	}
	return st
}
