// Command perfbench is the repository's benchmark. It deploys the whole
// ElasticRMI stack in one process — cluster manager, a 3-node durable
// kvstore at R=2 with a group-committed WAL, one shared client session, a
// registry, an elastic pool of 2..3 members and a default stub — with
// every hop over loopback TCP, and drives it from the same process:
//
//  1. open loop: Poisson arrivals at the workload's fixed rate, latency
//     timed from each request's due time;
//  2. closed loop: 2 callers issuing back to back, for capacity;
//  3. scale-out probe: the pool grows by one member and shrinks back
//     every 50 ms under open-loop traffic.
//
// elastic_churn also grows and shrinks the pool every 500 ms during
// phases 1 and 2. Every reply is checked by an oracle; any violation makes
// the command exit 1.
//
// Usage:
//
//	perfbench --workload cache_read --seed 1 --seconds 40 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the phases once untraced and once traced, records spans around every
// call the benchmark makes into the stack, writes them to
// <dir>/trace-<workload>.tsv and reports the per-layer metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// run.sh builds and runs it from the repository root.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

var processStart = time.Now()

func main() {
	name := flag.String("workload", "", "workload: cache_read, state_write, blob or elastic_churn")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 40, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for the store's files and the trace output")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	r := &run{w: w, seed: *seed, dur: time.Duration(*seconds) * time.Second, traced: *trace == 1, dir: *dir}
	res, err := r.execute()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one invocation of the benchmark.
type run struct {
	w      *spec
	seed   uint64
	dur    time.Duration
	traced bool
	dir    string

	d  *deployment
	c  *client
	tr *tracer

	attempted, failed int64
	metrics           map[string]metric
	order             []string
}

func (r *run) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = make(map[string]metric)
	}
	if _, dup := r.metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// setups is how many times an untraced run sets the stack up; setup_s is
// taken over their quiet samples, like the metrics of measure.
const setups = 5

func (r *run) execute() (*result, error) {
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return nil, err
	}
	host, _ := json.Marshal(hostInfo())
	fmt.Printf("perfbench workload=%s seed=%d seconds=%v trace=%v\nhost %s\n", r.w.name, r.seed, r.dur.Seconds(), r.traced, host)

	n := setups
	if r.traced {
		n = 1
		r.tr = newTracer(600_000)
	}
	var spans [][2]time.Time
	sc := startStealClock()
	for i := 0; i < n; i++ {
		t0 := processStart
		if r.d != nil {
			r.d.close()
			t0 = time.Now()
		}
		if err := r.setup(i); err != nil {
			sc.done()
			return nil, err
		}
		spans = append(spans, [2]time.Time{t0, time.Now()})
	}
	sc.done()
	defer r.d.close()
	var times []sample
	for _, sp := range spans {
		times = append(times, sample{sp[1].Sub(sp[0]).Seconds(), sc.share(sp[0], sp[1])})
	}

	var err error
	if r.traced {
		err = r.measureTraced()
	} else {
		err = r.measure()
		r.set("setup_s", quiet(times, 0.5), "s")
		fmt.Printf("set-ups (s): %.3f\n", values(times))
	}
	if err != nil {
		return nil, err
	}

	va, vf := r.c.verify()
	r.attempted += int64(va)
	r.failed += int64(vf) // wrong results are among the failures already
	fmt.Printf("fail_ratio %.6f (%d of %d invocations failed or wrong)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	if r.traced {
		r.set("fail_ratio", float64(r.failed)/float64(r.attempted), "ratio")
		r.set("wal.disk_bytes_per_user_byte", float64(diskBytes(r.d.dir))/float64(r.c.userBytes.Load()), "ratio")
		path := filepath.Join(r.dir, "trace-"+r.w.name+".tsv")
		if err := r.tr.write(path, string(host)); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("spans %d (dropped %d) written to %s\n", len(r.tr.recorded()), r.tr.dropped.Load(), path)
	}
	for _, v := range r.c.o.first {
		fmt.Println("VIOLATION", v)
	}
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Printf("  %-32s %14.4f %s\n", name, m.Value, m.Unit)
	}
	return &result{
		Correct:   r.c.o.violations.Load() == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   r.metrics,
	}, nil
}

// setup deploys the stack, preloads the key space and proves the first
// invocations succeed.
func (r *run) setup(i int) error {
	d, err := deploy(filepath.Join(r.dir, fmt.Sprintf("store-%d-%d", os.Getpid(), i)), r.tr)
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	r.d = d
	r.c = newClient(r.w, r.seed, d, r.tr)
	if err := r.c.preload(16); err != nil {
		return err
	}
	return nil
}

// Phase shares of the measured time.
const (
	openShare   = 0.6
	closedShare = 0.25 // the rest is the scale-out probe
)

func (r *run) share(f float64) time.Duration { return time.Duration(f * float64(r.dur)) }

// Write sequences of each phase start at a distinct base.
func seqBase(phase int) uint64 { return uint64(phase+1) << 40 }

// rounds is how many times an untraced run cycles through its phases.
// Interleaving short phases makes every metric sample the whole run.
const rounds = 20

// measure runs the untraced phases and sets the end-to-end metrics from
// their samples (see latencyWindow).
func (r *run) measure() error {
	open, closed := r.share(openShare)/rounds, r.share(closedShare)/rounds
	probe := (r.dur - rounds*(open+closed)) / rounds
	var opens []openResult
	var closeds []closedResult
	sr := &scaleResult{}
	sm, sc := startSampler(), startStealClock()
	for k := 0; k < rounds; k++ {
		var stop chan struct{}
		var scale chan *scaleResult
		if r.w.churn {
			stop, scale = r.startResizer(churnPeriod)
		}
		opens = append(opens, r.open(fmt.Sprintf("open/%d", k), open, 3*k))
		closeds = append(closeds, r.closed(fmt.Sprintf("closed/%d", k), closed, 3*k+1))
		if r.w.churn {
			close(stop)
			sr.add(<-scale)
		}
		sr.add(r.probe(fmt.Sprintf("probe/%d", k), probe, 3*k+2))
	}
	rss := sm.done().rss
	slices.Sort(rss)
	sc.done()
	if len(sr.scaleOut) == 0 {
		return errors.New("no new member served a reply after any grow")
	}

	var lat []time.Duration
	var p50s, tput, outs []sample
	var p99s []float64
	for _, ol := range opens {
		lat = append(lat, ol.lat...)
		for _, w := range latencyWindows(ol) {
			steal := sc.share(ol.start.Add(ol.at[w.from]), ol.start.Add(ol.at[w.to-1]))
			p50s = append(p50s, sample{us(percentile(ol.lat[w.from:w.to], 0.50)), steal})
			p99s = append(p99s, us(percentile(ol.lat[w.from:w.to], 0.99)))
		}
	}
	var sats []float64
	for _, cl := range closeds {
		sats = append(sats, float64(cl.done-cl.failed)/cl.elapsed.Seconds())
		for i, v := range cl.windows {
			a := cl.start.Add(time.Duration(i) * closedWindow)
			tput = append(tput, sample{v, sc.share(a, a.Add(closedWindow))})
		}
	}
	for i, d := range sr.scaleOut {
		outs = append(outs, sample{ms(d), sc.share(sr.scaleAt[i], sr.scaleAt[i].Add(d))})
	}

	r.set("ol_p50_us", quiet(p50s, quietLatency), "us")
	r.set("ol_p99_us", percentileF(p99s, 0), "us")
	r.set("sat_ops_per_s", quiet(tput, quietThroughput), "ops/s")
	r.set("scale_out_ms", quiet(outs, 0.5), "ms")
	r.set("rss_mb", float64(rss[len(rss)/2])/(1<<20), "MB")
	stolen := sc.share(sc.at[0], sc.at[len(sc.at)-1])
	fmt.Printf("steal: %.1f ticks/s over the run\n", stolen)
	fmt.Printf("open loop: %d arrivals at %.0f/s; over all: p50 %.0f us, p99 %.0f us; window p99s: %.0f\n",
		len(lat), r.w.rate, us(percentile(lat, 0.50)), us(percentile(lat, 0.99)), p99s)
	fmt.Printf("closed loop: ops/s of each round: %.0f\n", sats)
	fmt.Printf("scale: %d grows, scale-out (ms): median %.2f, each %.2f, %d resize errors\n", len(sr.grow), ms(median(sr.scaleOut)), msAll(sr.scaleOut), sr.errs)
	return nil
}

// An end-to-end metric other than rss_mb is made of many short samples:
// the p50 and p99 of each window of latencyWindow consecutive open-loop
// arrivals, the throughput of each closedWindow of the closed loop, each
// grow's scale-out time and each set-up. Most read the quiet samples (see
// quiet), and within them a quantile on their good side, because not all
// interference shows as steal (the shared disk, cache and memory
// bandwidth), and it too only ever slows the system down. The tail is
// different: a window's p99 is set by its longest stall, and a steal rate
// cannot tell one long stall from many short ones, so ol_p99_us is the
// lowest p99 of all windows. The cost: a slowdown that reaches only the
// samples beyond these quantiles, such as a stall in some windows but not
// all, does not move the metric. Each run also prints the figures over all
// samples.
const (
	latencyWindow   = 1000 // arrivals; ten beyond each window's p99
	quietLatency    = 0.25 // quantile of quiet latency samples, lowest first
	quietThroughput = 0.75 // quantile of quiet throughput samples, lowest first
)

// window is the arrivals [from, to) of an open-loop phase.
type window struct{ from, to int }

// latencyWindows splits an open-loop phase into runs of latencyWindow
// consecutive arrivals; a shorter remainder joins the last.
func latencyWindows(ol openResult) []window {
	n := len(ol.lat)
	var out []window
	for i := 0; i < n; i += latencyWindow {
		end := i + latencyWindow
		if n-end < latencyWindow {
			end = n
		}
		out = append(out, window{i, end})
		if end == n {
			break
		}
	}
	return out
}

func values(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.v
	}
	return out
}

// open runs one open-loop phase of duration d on stream name.
func (r *run) open(name string, d time.Duration, phase int) openResult {
	res := openLoop(r.c, genSchedule(r.seed, r.w, name, d), seqBase(phase))
	r.attempted += int64(len(res.lat))
	r.failed += int64(res.failed)
	return res
}

// closed runs one closed-loop phase of duration d on stream name.
func (r *run) closed(name string, d time.Duration, phase int) closedResult {
	res := closedLoop(r.c, genOps(r.seed, r.w, name, closedLen(d)), seqBase(phase), closedCallers, d)
	r.attempted += res.done
	r.failed += res.failed
	return res
}

// startResizer runs the resizer until stop closes; its result arrives on
// the returned channel.
func (r *run) startResizer(period time.Duration) (chan struct{}, chan *scaleResult) {
	stop := make(chan struct{})
	out := make(chan *scaleResult, 1)
	go func() { out <- resizer(r.c, period, stop) }()
	return stop, out
}

// probe grows and shrinks the pool every probePeriod under open-loop
// traffic for d.
func (r *run) probe(name string, d time.Duration, phase int) *scaleResult {
	stop, scale := r.startResizer(probePeriod)
	r.open(name, d, phase)
	close(stop)
	return <-scale
}

func percentile(xs []time.Duration, p float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(p * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []time.Duration) time.Duration { return percentile(xs, 0.5) }

func percentileF(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[min(int(p*float64(len(s))), len(s)-1)]
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
