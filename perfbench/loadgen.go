package main

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// failedLatency stands for the latency of a failed or refused request: it
// misses any limit.
const failedLatency = time.Duration(math.MaxInt64)

// openResult is one open-loop phase's outcome.
type openResult struct {
	start       time.Time       // arrival offsets count from here
	at          []time.Duration // per arrival, its offset
	lat         []time.Duration // per arrival, from its due time; failedLatency if it failed
	late        []time.Duration // per arrival, how late the generator issued it
	failed      int
	inflightMax int64
}

// openLoop issues sched's requests at their arrival offsets, whatever the
// system's state: on each wake every request that is due starts on its
// own goroutine, and its latency counts from its due time, so a stall
// shows in every request that waited behind it. seqBase makes the write
// sequences of this phase unique.
func openLoop(c *client, sched schedule, seqBase uint64) openResult {
	n := len(sched.at)
	res := openResult{lat: make([]time.Duration, n), late: make([]time.Duration, n)}
	var inflight, failed atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	res.start, res.at = start, sched.at
	for i := 0; i < n; {
		now := time.Since(start)
		for ; i < n && sched.at[i] <= now; i++ {
			res.late[i] = now - sched.at[i]
			if f := inflight.Add(1); f > res.inflightMax {
				res.inflightMax = f
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				err := c.do(sched.ops[i], seqBase+uint64(i))
				if err != nil {
					failed.Add(1)
					res.lat[i] = failedLatency
				} else {
					res.lat[i] = time.Since(start) - sched.at[i]
				}
				inflight.Add(-1)
			}(i)
		}
		if i < n {
			time.Sleep(sched.at[i] - time.Since(start))
		}
	}
	wg.Wait()
	res.failed = int(failed.Load())
	return res
}

// closedWindow is the length of the windows a closed-loop phase counts
// its completions in.
const closedWindow = 100 * time.Millisecond

// closedResult is one closed-loop phase's outcome.
type closedResult struct {
	done, failed int64
	start        time.Time
	elapsed      time.Duration
	// windows holds the successful invocations per second of each whole
	// closedWindow of the phase.
	windows []float64
}

// closedLoop runs callers that each issue their next request as soon as
// the previous one returns, for d, cycling through ops. Write sequences
// continue past the list's end so every write stays unique.
func closedLoop(c *client, ops []op, seqBase uint64, callers int, d time.Duration) closedResult {
	var next, done, failed atomic.Int64
	var wg sync.WaitGroup
	nw := int(d / closedWindow)
	counts := make([][]int64, callers) // per caller, successes per window
	start := time.Now()
	deadline := start.Add(d)
	for g := 0; g < callers; g++ {
		counts[g] = make([]int64, nw)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				j := next.Add(1) - 1
				err := c.do(ops[j%int64(len(ops))], seqBase+uint64(j))
				if err != nil {
					failed.Add(1)
				} else if w := int(time.Since(start) / closedWindow); w < nw {
					counts[g][w]++
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	res := closedResult{done: done.Load(), failed: failed.Load(), start: start, elapsed: time.Since(start)}
	for w := 0; w < nw; w++ {
		var n int64
		for g := range counts {
			n += counts[g][w]
		}
		res.windows = append(res.windows, float64(n)/closedWindow.Seconds())
	}
	return res
}

// scaleResult collects the resizer's measurements.
type scaleResult struct {
	grow, shrink []time.Duration // Pool.Resize(+1) / Resize(-1) call times
	scaleOut     []time.Duration // Resize(+1) call -> first reply the new member served
	scaleAt      []time.Time     // per scaleOut, when its Resize(+1) was called
	converge     []time.Duration // Resize(+1) return -> stub epoch >= pool epoch
	errs         int
}

func (s *scaleResult) add(o *scaleResult) {
	s.grow = append(s.grow, o.grow...)
	s.shrink = append(s.shrink, o.shrink...)
	s.scaleOut = append(s.scaleOut, o.scaleOut...)
	s.scaleAt = append(s.scaleAt, o.scaleAt...)
	s.converge = append(s.converge, o.converge...)
	s.errs += o.errs
}

// resizer grows the pool by one member and shrinks it back, alternating
// every period, until stop closes. Each grow arms the client's watches for
// the new member's first reply and for the stub's route convergence.
func resizer(c *client, period time.Duration, stop <-chan struct{}) *scaleResult {
	res := &scaleResult{}
	pool := c.d.pool
	wait := func(ch chan time.Duration, out *[]time.Duration) bool {
		select {
		case d := <-ch:
			*out = append(*out, d)
			return true
		case <-time.After(period):
			return false
		}
	}
	for {
		select {
		case <-stop:
			return res
		default:
		}
		// UIDs only grow, so any reply from a member above today's highest
		// UID was served by the member this grow adds.
		var top int64
		for _, m := range pool.Members() {
			top = max(top, m.UID)
		}
		drain(c.firstReply)
		drain(c.converged)
		c.watchStart.Store(c.since())
		c.watchAbove.Store(top)
		t0 := time.Now()
		err := pool.Resize(+1)
		res.grow = append(res.grow, time.Since(t0))
		if err != nil {
			res.errs++
		} else {
			c.convStart.Store(c.since())
			c.convTarget.Store(pool.Epoch())
		}
		mark := time.Now()
		if wait(c.firstReply, &res.scaleOut) {
			res.scaleAt = append(res.scaleAt, t0)
		}
		wait(c.converged, &res.converge)
		c.watchAbove.Store(0)
		c.convTarget.Store(0)
		if !sleepUntil(mark.Add(period), stop) {
			shrinkBack(c, res)
			return res
		}
		shrinkBack(c, res)
		if !sleepUntil(time.Now().Add(period), stop) {
			return res
		}
	}
}

func shrinkBack(c *client, res *scaleResult) {
	if c.d.pool.Size() <= 2 {
		return
	}
	t0 := time.Now()
	if err := c.d.pool.Resize(-1); err != nil {
		res.errs++
	}
	res.shrink = append(res.shrink, time.Since(t0))
}

// sleepUntil waits for t; it reports false if stop closed first.
func sleepUntil(t time.Time, stop <-chan struct{}) bool {
	timer := time.NewTimer(time.Until(t))
	defer timer.Stop()
	select {
	case <-stop:
		return false
	case <-timer.C:
		return true
	}
}

func drain(ch chan time.Duration) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}
