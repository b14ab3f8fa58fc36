package main

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestSeedGivesIdenticalInputs(t *testing.T) {
	for name, w := range workloads {
		a := genSchedule(7, w, "open/0", 2*time.Second)
		b := genSchedule(7, w, "open/0", 2*time.Second)
		if len(a.at) == 0 || !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: seed 7 gave two different schedules (%d and %d arrivals)", name, len(a.at), len(b.at))
		}
		if c := genSchedule(8, w, "open/0", 2*time.Second); reflect.DeepEqual(a, c) {
			t.Fatalf("%s: seeds 7 and 8 gave the same schedule", name)
		}
		if !reflect.DeepEqual(genOps(7, w, "closed/0", 1000), genOps(7, w, "closed/0", 1000)) {
			t.Fatalf("%s: seed 7 gave two different closed-loop lists", name)
		}
	}
}

func TestValueHeaderCatchesDamage(t *testing.T) {
	noise := make([]byte, 8192)
	for i := range noise {
		noise[i] = byte(i * 7)
	}
	v := makeValue(make([]byte, 1024), "k00001", 42, 1024, noise)
	if seq, err := parseValue(v, "k00001"); err != nil || seq != 42 {
		t.Fatalf("intact value: seq %d, err %v", seq, err)
	}
	if _, err := parseValue(v, "k00002"); err == nil {
		t.Fatal("value of another key accepted")
	}
	v[len(v)-1] ^= 1
	if _, err := parseValue(v, "k00001"); err == nil {
		t.Fatal("corrupted value accepted")
	}
}

func TestOracleJudgesReads(t *testing.T) {
	o := newOracle(1)
	noise := make([]byte, 4096)
	val := func(seq uint64) []byte { return makeValue(make([]byte, 64), "k", seq, 64, noise) }

	o.beginWrite(0, 1)
	o.endWrite(0, 1, true)
	o.beginWrite(0, 2) // issued after write 1 was acknowledged
	concurrent := o.beginRead(0)
	if err := o.checkRead(0, "k", concurrent, val(1)); err != nil {
		t.Fatalf("read concurrent with write 2 may return write 1: %v", err)
	}
	o.endWrite(0, 2, true)
	after := o.beginRead(0)
	if err := o.checkRead(0, "k", after, val(2)); err != nil {
		t.Fatalf("latest write rejected: %v", err)
	}
	if err := o.checkRead(0, "k", after, val(1)); err == nil {
		t.Fatal("stale read of write 1 after write 2 was acknowledged passed")
	}
	if err := o.checkRead(0, "k", after, val(9)); err == nil {
		t.Fatal("read of a write never issued passed")
	}
}

func TestOracleChecksCounters(t *testing.T) {
	o := newOracle(1)
	o.incrAcked[0].Add(3)
	o.addAcked[0].Add(10)
	if err := o.checkCounters(0, "k", 3, 10); err != nil {
		t.Fatal(err)
	}
	if o.checkCounters(0, "k", 4, 10) == nil || o.checkCounters(0, "k", 3, 9) == nil {
		t.Fatal("counter off by one passed")
	}
	o.incrUnknown[0].Add(1)
	if err := o.checkCounters(0, "k", 4, 10); err != nil {
		t.Fatalf("increment of unknown outcome counted as a violation: %v", err)
	}
}

// TestPlantedStaleValueIsCaught runs the real stack, overwrites a key with
// an older acknowledged value behind the oracle's back, and expects the
// next read through the pool to be flagged.
func TestPlantedStaleValueIsCaught(t *testing.T) {
	d, err := deploy(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	w := &spec{name: "planted", keys: 4, mix: cacheMix, sizes: []uint32{64}}
	c := newClient(w, 1, d, nil)
	if err := c.preload(2); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if err := c.do(op{kind: opPut, key: 0, size: 64}, seq); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.do(op{kind: opGet, key: 0}, 0); err != nil {
		t.Fatalf("read of the latest write: %v", err)
	}
	old := makeValue(make([]byte, 64), c.names[0], 1, 64, c.noise)
	if _, err := d.store.Put(poolName+"$v/"+c.names[0], old); err != nil {
		t.Fatal(err)
	}
	if err := c.do(op{kind: opGet, key: 0}, 0); !errors.Is(err, errWrong) {
		t.Fatalf("read of the planted stale value: err %v, want errWrong", err)
	}
	if n := c.o.violations.Load(); n != 1 {
		t.Fatalf("%d violations recorded, want 1", n)
	}
}

func TestQuietReadsTheLeastStolenSamples(t *testing.T) {
	// No steal anywhere: every sample ties and counts.
	var calm []sample
	for i := 1; i <= 20; i++ {
		calm = append(calm, sample{v: float64(i)})
	}
	if got := quiet(calm, 0.5); got != 11 {
		t.Fatalf("calm host: median %v, want 11", got)
	}
	// The two samples with the least steal are the only ones read, however
	// good the others look.
	stolen := []sample{{v: 5, steal: 1}, {v: 7, steal: 0}, {v: 1, steal: 30}, {v: 2, steal: 20}}
	for i := 0; i < 16; i++ {
		stolen = append(stolen, sample{v: 3, steal: 10})
	}
	if got := quiet(stolen, 0); got != 5 {
		t.Fatalf("stolen host: lowest quiet value %v, want 5", got)
	}
	if got := quiet(stolen, 0.99); got != 7 {
		t.Fatalf("stolen host: highest quiet value %v, want 7", got)
	}
}

func TestStealShareInterpolates(t *testing.T) {
	t0 := time.Now()
	sc := &stealClock{
		at:    []time.Time{t0, t0.Add(time.Second), t0.Add(2 * time.Second)},
		ticks: []float64{100, 100, 140},
	}
	if got := sc.share(t0, t0.Add(time.Second)); got != 0 {
		t.Fatalf("quiet second: %v ticks/s, want 0", got)
	}
	if got := sc.share(t0.Add(1500*time.Millisecond), t0.Add(2*time.Second)); got < 39.9 || got > 40.1 {
		t.Fatalf("stolen half second: %v ticks/s, want 40", got)
	}
	if got := sc.share(t0.Add(time.Second), t0.Add(3*time.Second)); got < 19.9 || got > 20.1 {
		t.Fatalf("interval past the last sample: %v ticks/s, want 20", got)
	}
}
