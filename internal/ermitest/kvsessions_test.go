package ermitest_test

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elasticrmi/internal/ermitest"
	"elasticrmi/internal/kvstore"
	"elasticrmi/internal/simclock"
)

// TestKVSessionsNoStaleReadsAcrossCrash is the session-cache chaos
// scenario: an R=2 cluster under a read-heavy cached workload loses a
// primary mid-flight (then gains a fresh node, forcing a second view
// change and rebalance). The coherence contract under test:
//
//   - zero stale reads — every read, cached or not, observes a value at
//     least as new as the last write whose ack completed before the read
//     began. The dead primary granted leases it can never revoke; the
//     post-failover write fence is what keeps this invariant across the
//     crash.
//   - sessions re-establish — after the churn the session layer is live
//     again (caching reads against the promoted primaries), not wedged in
//     permanent fallback.
func TestKVSessionsNoStaleReadsAcrossCrash(t *testing.T) {
	cl, err := kvstore.NewReplicated(3, 2, nil)
	if err != nil {
		t.Fatalf("NewReplicated: %v", err)
	}
	defer cl.Close()
	// A short session TTL keeps the failover fence (one TTL of delayed
	// write acks) proportionate to the test, exactly as a deployment
	// tuning latency bounds would.
	cl.SetSessionTTL(300 * time.Millisecond)

	const nKeys = 8
	keys := make([]string, nKeys)
	// floor[i] is the newest value of keys[i] whose write ack has
	// completed — the staleness oracle. Writers publish AFTER the ack
	// returns, readers snapshot BEFORE issuing the read: whatever the
	// snapshot holds was acked strictly before the read began, so the read
	// must observe at least it.
	var floor [nKeys]atomic.Int64
	for i := range keys {
		keys[i] = fmt.Sprintf("sess-chaos/%d", i)
	}

	var (
		stop       = make(chan struct{})
		stopOnce   sync.Once
		wg         sync.WaitGroup
		staleReads atomic.Int64
		totalReads atomic.Int64
	)
	halt := func() {
		stopOnce.Do(func() { close(stop) })
		wg.Wait()
	}
	defer halt()

	// Two writers cycle disjoint halves of the keyspace with strictly
	// increasing values. Each key has exactly ONE writer: that is what
	// makes the floor oracle sound. With two writers racing one key, a
	// lower value applied after a higher one is a legal linearization of
	// concurrent Puts — a read returning it would be flagged here without
	// being stale.
	for w := 0; w < 2; w++ {
		worker := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := int64(1); ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := (int(n)%(nKeys/2))*2 + worker
				val := n*2 + int64(worker) // monotone per key, unique across writers
				if _, err := cl.Put(keys[i], []byte(strconv.FormatInt(val, 10))); err != nil {
					continue
				}
				// Ack in hand: every read starting after this point must
				// see >= val (or a successor).
				for {
					cur := floor[i].Load()
					if val <= cur || floor[i].CompareAndSwap(cur, val) {
						break
					}
				}
			}
		}()
	}

	// Read-heavy side: four readers over two shared cluster sessions.
	sessions := []*kvstore.ClusterSession{
		cl.NewSession(kvstore.SessionOptions{}),
		cl.NewSession(kvstore.SessionOptions{}),
	}
	defer func() {
		for _, cs := range sessions {
			cs.Close()
		}
	}()
	for r := 0; r < 4; r++ {
		cs := sessions[r%len(sessions)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				i := n % nKeys
				before := floor[i].Load()
				v, err := cs.Get(keys[i])
				if err != nil {
					if errors.Is(err, kvstore.ErrNotFound) && before == 0 {
						continue // not written yet, and provably none acked
					}
					t.Errorf("Get(%s): %v (acked floor %d)", keys[i], err, before)
					return
				}
				totalReads.Add(1)
				got, perr := strconv.ParseInt(string(v.Value), 10, 64)
				if perr != nil {
					t.Errorf("Get(%s): unparseable %q", keys[i], v.Value)
					return
				}
				if got < before {
					staleReads.Add(1)
					t.Errorf("stale read: %s = %d, but %d was acked before the read began",
						keys[i], got, before)
				}
			}
		}()
	}

	// Ramp, then kill a node (some keys' primary at R=2) under load, then
	// force a second view change with a fresh node.
	time.Sleep(300 * time.Millisecond)
	if err := cl.CrashNode(cl.Addrs()[1]); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	time.Sleep(400 * time.Millisecond)
	if err := cl.AddNode(); err != nil {
		t.Fatalf("AddNode under load: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	halt()

	if n := staleReads.Load(); n != 0 {
		t.Fatalf("%d stale reads across crash/failover", n)
	}
	if totalReads.Load() == 0 {
		t.Fatal("no reads completed; workload did not run")
	}
	// The session layer must have come back: live sessions serving hits,
	// not a permanent fall-through to uncached reads.
	reestablished := false
	deadline := time.Now().Add(5 * time.Second)
	for !reestablished && time.Now().Before(deadline) {
		for _, cs := range sessions {
			for _, k := range keys {
				if _, err := cs.Get(k); err != nil && !errors.Is(err, kvstore.ErrNotFound) {
					t.Fatalf("post-chaos Get(%s): %v", k, err)
				}
			}
			if st := cs.Stats(); st.LiveSessions > 0 {
				reestablished = true
			}
		}
	}
	if !reestablished {
		t.Fatal("no session re-established after failover")
	}
	var agg kvstore.ClusterSessionStats
	for _, cs := range sessions {
		st := cs.Stats()
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Invalidations += st.Invalidations
		agg.LiveSessions += st.LiveSessions
	}
	if agg.Hits == 0 {
		t.Fatal("cache never served a hit; session layer was inert")
	}
	t.Logf("session chaos summary: %d reads (%d hits, %d misses, %d invalidations), %d live sessions",
		totalReads.Load(), agg.Hits, agg.Misses, agg.Invalidations, agg.LiveSessions)
}

// TestKVSessionAckAtLeaseDeadlineBeforeEventApplied drives the one window
// in which a write is acknowledged while its invalidation has not reached
// the caching client: the client's inbound path stalls (events and replies
// held in a one-way partition) while its requests — a keepalive among them —
// still reach the server. The write parks until the lease deadline it
// captured, then is acknowledged with the event still undelivered. The
// contract under test: from that acknowledgment on, the client serves no
// cached copy of the old value, because its own lease — anchored at its
// keepalive's send time on its own clock, and extended past the deadline
// only once the event is applied — has already ended. Time is simulated,
// so the deadline, the keepalive and the lease ends are exact.
func TestKVSessionAckAtLeaseDeadlineBeforeEventApplied(t *testing.T) {
	sim := simclock.NewSim(time.Unix(1000, 0))
	srv, err := kvstore.NewServer("127.0.0.1:0", sim)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const ttl = kvstore.DefaultSessionTTL
	cli, err := kvstore.NewClient(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	relay := ermitest.StartRelay(t, srv.Addr(), ermitest.NewFault())
	sess, err := kvstore.NewSession(relay.Addr(), kvstore.SessionOptions{Clock: sim})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	if _, err := cli.Put("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if v, err := sess.Get("k"); err != nil || string(v.Value) != "v1" {
			t.Fatalf("Get = %q, %v", v.Value, err)
		}
	}
	if hits := sess.Stats().Hits; hits != 1 {
		t.Fatalf("second read was not a cache hit (%d hits)", hits)
	}

	relay.Down.Partition(true)
	keepalives := sim.Pending() // the client's keepalive timer
	acked := make(chan error, 1)
	go func() {
		_, err := cli.Put("k", []byte("v2"))
		acked <- err
	}()
	ermitest.WaitUntil(t, "the write to park on the session's lease deadline", 5*time.Second,
		func() bool { return sim.Pending() == keepalives+1 })

	// One keepalive fires and reaches the server (renewing the session
	// there); its reply is stuck behind the undelivered event. Then run
	// the clock to just short of the deadline: the write stays parked.
	notAcked := func(when string) {
		t.Helper()
		select {
		case err := <-acked:
			t.Fatalf("write acknowledged %s (err %v)", when, err)
		case <-time.After(50 * time.Millisecond):
		}
	}
	sim.Advance(ttl / 3)
	notAcked("a third of a lease before its deadline")
	if v, err := sess.Get("k"); err != nil || string(v.Value) != "v1" {
		// The write is not acknowledged yet: serving v1 is still correct.
		t.Fatalf("Get before the ack = %q, %v; want the cached v1", v.Value, err)
	}
	sim.Advance(ttl - ttl/3 - time.Millisecond)
	notAcked("a millisecond before the lease deadline")

	// Reach the deadline: the write is acknowledged, event still stalled.
	sim.Advance(time.Millisecond)
	select {
	case err := <-acked:
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write still parked past its lease deadline")
	}
	hits := sess.Stats().Hits
	got := make(chan string, 1)
	go func() {
		v, err := sess.Get("k")
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		got <- string(v.Value)
	}()
	time.Sleep(20 * time.Millisecond)
	relay.Down.Partition(false)
	select {
	case v := <-got:
		if v == "v1" {
			t.Fatal("stale read: the cache served v1 after the write of v2 was acknowledged")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read after the ack never completed")
	}
	if h := sess.Stats().Hits; h != hits {
		t.Fatalf("%d cache hits served after the ack", h-hits)
	}
}
