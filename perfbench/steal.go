package main

import (
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The reference host is a VM whose CPUs the hypervisor shares with other
// tenants. When they are busy it deschedules this VM's CPUs, and every
// figure of the run moves with them: at a fifth of the CPU time taken,
// closed-loop throughput halves. The kernel counts that time as steal
// (/proc/stat). So every sample an end-to-end metric is made of carries
// the steal of its interval, and the metric reads only the quietest
// samples (see quiet).

// stealTick is how often the steal counter is read.
const stealTick = 50 * time.Millisecond

// stealClock samples the machine's cumulative steal time every stealTick
// until stopped, so any interval of the run can be told how much CPU it
// lost.
type stealClock struct {
	stop chan struct{}
	wg   sync.WaitGroup
	// Owned by the sampling goroutine until done returns.
	at    []time.Time
	ticks []float64 // cumulative steal of all CPUs, in clock ticks
}

func startStealClock() *stealClock {
	sc := &stealClock{stop: make(chan struct{})}
	sc.wg.Add(1)
	go func() {
		defer sc.wg.Done()
		t := time.NewTicker(stealTick)
		defer t.Stop()
		for {
			sc.at = append(sc.at, time.Now())
			sc.ticks = append(sc.ticks, readSteal())
			select {
			case <-sc.stop:
				return
			case <-t.C:
			}
		}
	}()
	return sc
}

// done stops the sampling; share may then be called.
func (sc *stealClock) done() *stealClock {
	close(sc.stop)
	sc.wg.Wait()
	return sc
}

// share returns the steal rate over [a, b], in clock ticks per second,
// interpolating between samples. Only its order matters: it ranks
// intervals by how much CPU other tenants took during them.
func (sc *stealClock) share(a, b time.Time) float64 {
	if !b.After(a) {
		b = a.Add(time.Millisecond)
	}
	return (sc.cum(b) - sc.cum(a)) / b.Sub(a).Seconds()
}

func (sc *stealClock) cum(t time.Time) float64 {
	i := sort.Search(len(sc.at), func(i int) bool { return !sc.at[i].Before(t) })
	switch {
	case len(sc.at) == 0:
		return 0
	case i == 0:
		return sc.ticks[0]
	case i == len(sc.at):
		return sc.ticks[i-1]
	}
	f := t.Sub(sc.at[i-1]).Seconds() / sc.at[i].Sub(sc.at[i-1]).Seconds()
	return sc.ticks[i-1] + f*(sc.ticks[i]-sc.ticks[i-1])
}

// readSteal returns the steal column of /proc/stat's all-CPU line, or 0
// where there is none (bare metal, or not Linux): then every sample ties
// and quiet keeps them all.
func readSteal() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

// sample is one measurement and the steal rate of the interval it was
// made in.
type sample struct {
	v, steal float64
}

// quietShare is the share of a metric's samples, the least stolen from,
// that it is taken over. On a calm host most samples see no steal at
// all, tie, and all count.
const quietShare = 0.1

// quiet returns the p-th percentile of the values of the quietShare of
// samples with the least steal (and of any sample that ties with them, so
// with no steal at all every sample counts).
func quiet(ss []sample, p float64) float64 {
	if len(ss) == 0 {
		return 0
	}
	steals := make([]float64, len(ss))
	for i, s := range ss {
		steals[i] = s.steal
	}
	slices.Sort(steals)
	limit := steals[max(1, int(math.Ceil(quietShare*float64(len(ss)))))-1]
	var vs []float64
	for _, s := range ss {
		if s.steal <= limit {
			vs = append(vs, s.v)
		}
	}
	return percentileF(vs, p)
}
