package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"
)

// opKind is one operation of the request mix; each maps to one remote
// method of the benchmark's elastic class.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opIncr
	opAdd
	numOps
)

var opMethod = [numOps]string{opGet: mGet, opPut: mPut, opIncr: mIncr, opAdd: mAdd}

// op is one generated request. Every field is a pure function of the seed,
// the workload and the request's position in its list.
type op struct {
	kind  opKind
	key   uint32 // index into the workload's key space
	size  uint32 // total value bytes of a put, header included
	delta int64  // increment of an add
}

// spec describes one workload: its traffic mix and the rates it is driven
// at.
type spec struct {
	name string
	keys int
	// zipf > 1 skews key choice (rank 0 hottest); 0 means uniform.
	zipf float64
	// rate is the open-loop phase's fixed Poisson arrival rate (1/s).
	rate float64
	// churn resizes the pool under load every churnPeriod through the
	// open and closed loops; other workloads keep a fixed pool there.
	// Every workload also probes scale-out in a phase of its own.
	churn bool
	// mix draws one operation kind.
	mix func(r *rand.Rand) opKind
	// sizes are the total value sizes puts draw from; key k is preloaded
	// with sizes[k%len(sizes)].
	sizes []uint32
}

const (
	closedCallers = 2 // = nproc of the reference host: 2 callers saturate it
	churnPeriod   = 500 * time.Millisecond
	probePeriod   = 50 * time.Millisecond
)

var workloads = map[string]*spec{
	// The paper's running example, a content cache: session hits make
	// shared-state reads local, so the RPC path is nearly all of the cost.
	"cache_read": {name: "cache_read", keys: 4096, zipf: 1.1, rate: 4000, mix: cacheMix, sizes: []uint32{64}},
	// Shared-state updates: every operation crosses the R=2 forward and a
	// WAL group commit.
	"state_write": {name: "state_write", keys: 1024, rate: 800, sizes: []uint32{1024}, mix: func(r *rand.Rand) opKind {
		switch x := r.Float64(); {
		case x < 0.6:
			return opPut
		case x < 0.9:
			return opIncr
		default:
			return opAdd
		}
	}},
	// Large objects: frames above the scatter-gather threshold, the
	// arena's large classes, and WAL bytes.
	"blob": {name: "blob", keys: 128, rate: 300, sizes: []uint32{16 << 10, 64 << 10, 256 << 10}, mix: func(r *rand.Rand) opKind {
		if r.Float64() < 0.8 {
			return opGet
		}
		return opPut
	}},
	// cache_read traffic while the pool grows and shrinks every 500 ms.
	"elastic_churn": {name: "elastic_churn", keys: 4096, zipf: 1.1, rate: 4000, churn: true, mix: cacheMix, sizes: []uint32{64}},
}

func cacheMix(r *rand.Rand) opKind {
	if r.Float64() < 0.95 {
		return opGet
	}
	return opPut
}

// rng returns the generator for one named stream of one run: the same
// seed, workload and stream always give the same sequence.
func rng(seed uint64, workload, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s", workload, stream)
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// genOps returns n requests of the workload's mix for one stream.
func genOps(seed uint64, w *spec, stream string, n int) []op {
	r := rng(seed, w.name, stream)
	var z *rand.Zipf
	if w.zipf > 1 {
		z = rand.NewZipf(r, w.zipf, 1, uint64(w.keys-1))
	}
	ops := make([]op, n)
	for i := range ops {
		kind, size := w.mix(r), uint32(0)
		if kind == opPut {
			size = w.sizes[0]
			if len(w.sizes) > 1 {
				size = w.sizes[r.IntN(len(w.sizes))]
			}
		}
		var key uint32
		if z != nil {
			key = uint32(z.Uint64())
		} else {
			key = uint32(r.IntN(w.keys))
		}
		ops[i] = op{kind: kind, key: key, size: size, delta: 1 + r.Int64N(9)}
	}
	return ops
}

// genArrivals returns Poisson arrival offsets at rate per second covering
// d: the open-loop schedule of one stream.
func genArrivals(seed uint64, w *spec, stream string, rate float64, d time.Duration) []time.Duration {
	r := rng(seed, w.name, stream+"/arrivals")
	var out []time.Duration
	t := 0.0
	for {
		t += r.ExpFloat64() / rate
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, at)
	}
}

// schedule is one open-loop phase's input: arrivals and their requests.
type schedule struct {
	at  []time.Duration
	ops []op
}

func genSchedule(seed uint64, w *spec, stream string, d time.Duration) schedule {
	at := genArrivals(seed, w, stream, w.rate, d)
	return schedule{at: at, ops: genOps(seed, w, stream, len(at))}
}

// closedLen is the length of a closed-loop phase's request list; callers
// cycle through it, so it only needs to be long enough to keep the key and
// op mix representative.
func closedLen(d time.Duration) int {
	return int(math.Min(200000, math.Max(20000, 20000*d.Seconds())))
}
