package main

import (
	"fmt"
	"time"
)

// measureTraced runs the phases twice on one deployment, untraced and then
// traced, and sets the per-layer metrics. Process counters and session
// counters are deltas over the untraced half; span-derived metrics come
// from the traced half; the traced/untraced closed-loop throughput ratio
// is the tracing overhead.
func (r *run) measureTraced() error {
	open, closed := r.share(openShare/2), r.share(closedShare/2)
	if r.w.churn {
		open, closed = r.share(0.35), r.share(0.15)
	}
	stub := r.d.stub
	var stop chan struct{}
	var scale chan *scaleResult
	if r.w.churn {
		stop, scale = r.startResizer(churnPeriod)
	}
	advances0, retries0 := stub.RouteAdvances(), stub.StaleRetries()

	// Untraced half.
	sm := startSampler()
	p0, s0, k0 := sampleProc(), r.d.sess.Stats(), r.issuedNow()
	ol1 := r.open("open", open, 0)
	cl1 := r.closed("closed", closed, 1)
	p1, s1, k1 := sampleProc(), r.d.sess.Stats(), r.issuedNow()
	goroutines := sm.done().goroutinesMax

	// Traced half.
	r.tr.on.Store(true)
	ol2 := r.open("open-traced", open, 2)
	cl2 := r.closed("closed-traced", closed, 3)
	var sr *scaleResult
	if r.w.churn {
		close(stop)
		sr = <-scale
	} else {
		sr = r.probe("probe", r.dur-2*(open+closed), 4)
	}
	r.tr.on.Store(false)

	st := analyze(r.tr.recorded())
	ops := float64(len(ol1.lat)) + float64(cl1.done)
	// A layer the workload does not use has no spans and reads 0.
	dur := func(k uint8, p float64) float64 { return us(percentile(st.byKind[k], p)) }

	r.set("codec.encode_ns", float64(percentile(st.byKind[spEncode], 0.5)), "ns")
	r.set("codec.decode_ns", float64(percentile(st.byKind[spDecode], 0.5)), "ns")
	r.set("codec.payload_bytes", ratio(float64(st.payload), float64(st.clientOps)), "B/op")
	r.set("stub.invoke_p50_us", dur(spInvoke, 0.5), "us")
	r.set("stub.invoke_p99_us", dur(spInvoke, 0.99), "us")
	r.set("stub.route_advances", float64(stub.RouteAdvances()-advances0), "count")
	r.set("stub.stale_retries", float64(stub.StaleRetries()-retries0), "count")
	r.set("wire.request_p50_us", us(median(st.wireReq)), "us")
	r.set("wire.reply_p50_us", us(median(st.wireRep)), "us")
	r.set("wire.share", ratio(float64(st.wireSum), float64(st.invokeSum)), "ratio")

	r.set("proc.cpu_us_per_op", us(p1.cpu-p0.cpu)/ops, "us/op")
	r.set("proc.syscalls_per_op", float64(p1.syscalls-p0.syscalls)/ops, "1/op")
	r.set("proc.ctxsw_per_op", float64(p1.ctxsw-p0.ctxsw)/ops, "1/op")
	r.set("proc.allocs_per_op", float64(p1.mallocs-p0.mallocs)/ops, "1/op")
	r.set("proc.alloc_bytes_per_op", float64(p1.allocBytes-p0.allocBytes)/ops, "B/op")
	r.set("proc.gc_per_kop", 1000*float64(p1.gcs-p0.gcs)/ops, "1/kop")
	r.set("proc.goroutines_max", float64(goroutines), "count")

	r.set("member.handle_self_p50_us", us(median(st.selfHdl)), "us")
	var busiest, handled int64
	for _, n := range st.byMember {
		busiest = max(busiest, n)
		handled += n
	}
	r.set("member.share_max", ratio(float64(busiest), float64(handled)), "ratio")

	r.set("state.get_p50_us", dur(spStateGet, 0.5), "us")
	r.set("state.put_p50_us", dur(spStatePut, 0.5), "us")
	r.set("state.lock_p50_us", dur(spStateLock, 0.5), "us")
	r.set("state.add_p50_us", dur(spStateAdd, 0.5), "us")
	r.set("state.self_p50_us", us(median(st.selfState)), "us")

	r.set("kvstore.get_p50_us", dur(spKVGet, 0.5), "us")
	r.set("kvstore.put_p50_us", dur(spKVPut, 0.5), "us")
	r.set("kvstore.put_p99_us", dur(spKVPut, 0.99), "us")
	r.set("kvstore.trylock_p50_us", dur(spKVTryLock, 0.5), "us")
	r.set("kvstore.unlock_p50_us", dur(spKVUnlock, 0.5), "us")
	r.set("kvstore.add_p50_us", dur(spKVAdd, 0.5), "us")
	r.set("kvstore.calls_per_op", ratio(float64(st.kvLinked), float64(st.clientOps)), "1/op")
	r.set("kvstore.lock_busy_ratio", ratio(float64(st.lockBusy), float64(st.tryLocks)), "ratio")
	r.set("kvstore.errors", float64(st.kvErrors), "count")

	hits, misses := float64(s1.Hits-s0.Hits), float64(s1.Misses-s0.Misses)
	writes := float64(k1[opPut] - k0[opPut] + k1[opIncr] - k0[opIncr] + k1[opAdd] - k0[opAdd])
	r.set("session.hit_ratio", ratio(hits, hits+misses), "ratio")
	r.set("session.invalidations_per_put", ratio(float64(s1.Invalidations-s0.Invalidations), writes), "1/op")

	var prov []time.Duration
	var forced int
	for drained := false; !drained; {
		select {
		case ev := <-r.d.pool.Events():
			if ev.To > ev.From {
				prov = append(prov, ev.ProvisioningLatency)
			}
			forced += ev.ForcedDrains
		default:
			drained = true
		}
	}
	r.set("pool.grow_p50_ms", ms(median(sr.grow)), "ms")
	r.set("pool.shrink_p50_ms", ms(median(sr.shrink)), "ms")
	r.set("pool.provisioning_p50_ms", ms(median(prov)), "ms")
	r.set("pool.forced_drains", float64(forced), "count")
	r.set("route.converge_p50_ms", ms(median(sr.converge)), "ms")

	late := append(append([]time.Duration(nil), ol1.late...), ol2.late...)
	r.set("loadgen.late_p50_us", us(percentile(late, 0.5)), "us")
	r.set("loadgen.late_p99_us", us(percentile(late, 0.99)), "us")
	r.set("loadgen.inflight_max", float64(max(ol1.inflightMax, ol2.inflightMax)), "count")
	untraced := float64(cl1.done-cl1.failed) / cl1.elapsed.Seconds()
	traced := float64(cl2.done-cl2.failed) / cl2.elapsed.Seconds()
	r.set("trace.overhead_pct", 100*(1-traced/untraced), "%")
	fmt.Printf("untraced closed loop %.0f ops/s, traced %.0f ops/s; %d traced invocations\n", untraced, traced, st.clientOps)
	return nil
}

// issuedNow snapshots the client's per-kind request counts.
func (r *run) issuedNow() (n [numOps]int64) {
	for k := range n {
		n[k] = r.c.issued[k].Load()
	}
	return n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
