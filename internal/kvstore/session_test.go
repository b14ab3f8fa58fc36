package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elasticrmi/internal/simclock"
	"elasticrmi/internal/transport"
)

// newSessionNode boots one store node plus a plain (uncached) client for
// driving writes at it.
func newSessionNode(t *testing.T) (*Server, *Client) {
	t.Helper()
	srv, err := NewServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := NewClient(srv.Addr())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// waitFor polls cond until it holds, failing the test after five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func openSession(t *testing.T, addr string, opts SessionOptions) *Session {
	t.Helper()
	sess, err := NewSession(addr, opts)
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func TestSessionCachedGet(t *testing.T) {
	srv, cli := newSessionNode(t)
	if _, err := cli.Put("k", []byte("v1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	sess := openSession(t, srv.Addr(), SessionOptions{})
	for i := 0; i < 3; i++ {
		v, err := sess.Get("k")
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if !bytes.Equal(v.Value, []byte("v1")) {
			t.Fatalf("Get %d: got %q", i, v.Value)
		}
	}
	st := sess.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("hits/misses drifted: %+v", st)
	}
	if n := srv.sessions.interestCount("k"); n != 1 {
		t.Fatalf("interestCount(k) = %d, want 1", n)
	}
}

// TestSessionInvalidationBeforeAck is the coherence core: once a write is
// acknowledged, no session Get may return an older version — the server
// must have revoked (and the client processed the revocation of) any
// cached copy before the ack escaped.
func TestSessionInvalidationBeforeAck(t *testing.T) {
	srv, cli := newSessionNode(t)
	sess := openSession(t, srv.Addr(), SessionOptions{})
	for i := 0; i < 200; i++ {
		ver, err := cli.Put("hot", []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		v, err := sess.Get("hot")
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
		if v.Version < ver {
			t.Fatalf("stale read after acked write: read v%d, acked v%d", v.Version, ver)
		}
		// Re-prime the cache so the next write actually invalidates.
		if _, err := sess.Get("hot"); err != nil {
			t.Fatalf("re-Get %d: %v", i, err)
		}
	}
	if st := sess.Stats(); st.Invalidations == 0 {
		t.Fatalf("no invalidations observed: %+v", st)
	}
}

// TestSessionDeleteAndCASInvalidate covers the non-Put conflicting writes.
func TestSessionDeleteAndCASInvalidate(t *testing.T) {
	srv, cli := newSessionNode(t)
	sess := openSession(t, srv.Addr(), SessionOptions{})

	ver, err := cli.Put("k", []byte("a"))
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := sess.Get("k"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	if _, err := cli.CompareAndSwap("k", []byte("b"), ver); err != nil {
		t.Fatalf("CAS: %v", err)
	}
	if v, err := sess.Get("k"); err != nil || !bytes.Equal(v.Value, []byte("b")) {
		t.Fatalf("after CAS: %q, %v", v.Value, err)
	}
	if err := cli.Delete("k"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := sess.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after Delete: %v, want ErrNotFound", err)
	}
	if _, err := cli.AddInt64("n", 5); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if v, err := sess.Get("n"); err != nil || string(v.Value) != "5" {
		t.Fatalf("counter: %q, %v", v.Value, err)
	}
	if _, err := cli.AddInt64("n", 2); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if v, err := sess.Get("n"); err != nil || string(v.Value) != "7" {
		t.Fatalf("counter after invalidating add: %q, %v", v.Value, err)
	}
	_ = srv
}

// TestSessionLeaseExpiry pins the client side of the lease clock: with
// keepalives suppressed, a session past its TTL serves nothing from cache
// — the Get goes back to the wire and the server (which reaped the
// session) answers ErrNoSession. The client measures the lease on its own
// clock from its own send instant, so no skew against the server can let
// it serve longer than the server granted.
func TestSessionLeaseExpiry(t *testing.T) {
	srv, cli := newSessionNode(t)
	srv.SetSessionTTL(150 * time.Millisecond)
	if _, err := cli.Put("k", []byte("cached")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	sess := openSession(t, srv.Addr(), SessionOptions{})
	sess.noKeepalive.Store(true)
	if _, err := sess.Get("k"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	hitsBefore := sess.Stats().Hits
	time.Sleep(300 * time.Millisecond)
	if _, err := sess.Get("k"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Get past lease end: %v, want ErrNoSession", err)
	}
	if hits := sess.Stats().Hits; hits != hitsBefore {
		t.Fatalf("cache served %d hits past lease end", hits-hitsBefore)
	}
}

// TestSessionDroppedMidInvalidation: a client that goes fully unresponsive
// (no acks, no keepalives — a frozen or partitioned process) delays the
// conflicting write only until its lease runs out, at which point the
// server kills the session and acks.
func TestSessionDroppedMidInvalidation(t *testing.T) {
	srv, cli := newSessionNode(t)
	const ttl = 300 * time.Millisecond
	srv.SetSessionTTL(ttl)
	sess := openSession(t, srv.Addr(), SessionOptions{})
	if _, err := cli.Put("k", []byte("v1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if _, err := sess.Get("k"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	sess.dropAcks.Store(true)
	sess.noKeepalive.Store(true)
	start := time.Now()
	if _, err := cli.Put("k", []byte("v2")); err != nil {
		t.Fatalf("Put under dropped acks: %v", err)
	}
	elapsed := time.Since(start)
	if elapsed > ttl+2*time.Second {
		t.Fatalf("write ack delayed %v, bound is lease TTL (%v)", elapsed, ttl)
	}
	if n := srv.sessions.sessionCount(); n != 0 {
		t.Fatalf("unresponsive session survived the timed-out invalidation (%d live)", n)
	}
}

// TestSessionSlowAckerSurvives is the regression test for a coherence hole:
// a session whose ACK path is slow (events still processed, keepalives
// still renewing) must NOT be killed when an invalidation ack misses the
// lease deadline captured at issue. Killing it silently dropped its other
// interests server-side while the client — holding a legitimately renewed
// lease — kept serving them with nobody left to invalidate. The write must
// still be bounded (the renewed lease proves the event was applied; the
// next keepalive acks it cumulatively), the session must stay live, and
// coherence on its other cached keys must hold.
func TestSessionSlowAckerSurvives(t *testing.T) {
	srv, cli := newSessionNode(t)
	const ttl = 300 * time.Millisecond
	srv.SetSessionTTL(ttl)
	sess := openSession(t, srv.Addr(), SessionOptions{})
	for _, k := range []string{"a", "b"} {
		if _, err := cli.Put(k, []byte("v1")); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
		if _, err := sess.Get(k); err != nil {
			t.Fatalf("Get %s: %v", k, err)
		}
	}
	sess.dropAcks.Store(true)
	start := time.Now()
	if _, err := cli.Put("a", []byte("v2")); err != nil {
		t.Fatalf("Put under dropped acks: %v", err)
	}
	if elapsed := time.Since(start); elapsed > ttl+2*time.Second {
		t.Fatalf("write ack delayed %v, bound is lease TTL (%v)", elapsed, ttl)
	}
	if n := srv.sessions.sessionCount(); n != 1 {
		t.Fatalf("slow-acking (but live) session killed: %d sessions", n)
	}
	// The session's OTHER key must still be coherent: the write below finds
	// the interest, invalidates, and the next session read re-fetches.
	if _, err := cli.Put("b", []byte("v2")); err != nil {
		t.Fatalf("Put b: %v", err)
	}
	v, err := sess.Get("b")
	if err != nil {
		t.Fatalf("Get b: %v", err)
	}
	if string(v.Value) != "v2" {
		t.Fatalf("stale read through surviving session: b = %q, want v2", v.Value)
	}
}

// TestSessionEvictionDropsInterest: LRU eviction releases the server-side
// interest, so a bounded cache cannot pin unbounded server state.
func TestSessionEvictionDropsInterest(t *testing.T) {
	srv, cli := newSessionNode(t)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := cli.Put(k, []byte(k)); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
	}
	sess := openSession(t, srv.Addr(), SessionOptions{MaxEntries: 2})
	for _, k := range []string{"a", "b", "c"} { // c evicts a
		if _, err := sess.Get(k); err != nil {
			t.Fatalf("Get %s: %v", k, err)
		}
	}
	if st := sess.Stats(); st.Entries != 2 {
		t.Fatalf("cache holds %d entries, capacity 2", st.Entries)
	}
	// The forget travels one-way; give it a bounded moment to land.
	deadline := time.Now().Add(2 * time.Second)
	for srv.sessions.interestCount("a") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("evicted key kept server-side interest")
		}
		time.Sleep(time.Millisecond)
	}
	if srv.sessions.interestCount("b") != 1 || srv.sessions.interestCount("c") != 1 {
		t.Fatalf("surviving entries lost interest: b=%d c=%d",
			srv.sessions.interestCount("b"), srv.sessions.interestCount("c"))
	}
}

// TestSessionInterestTableFull: past the server's interest cap, reads are
// served but not cached (NoCache), and the server tracks nothing for them.
func TestSessionInterestTableFull(t *testing.T) {
	srv, cli := newSessionNode(t)
	srv.sessions.mu.Lock()
	srv.sessions.maxInterest = 1
	srv.sessions.mu.Unlock()
	for _, k := range []string{"a", "b"} {
		if _, err := cli.Put(k, []byte(k)); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
	}
	sess := openSession(t, srv.Addr(), SessionOptions{})
	if _, err := sess.Get("a"); err != nil { // takes the single interest slot
		t.Fatalf("Get a: %v", err)
	}
	for i := 0; i < 2; i++ {
		if v, err := sess.Get("b"); err != nil || !bytes.Equal(v.Value, []byte("b")) {
			t.Fatalf("Get b (%d): %q, %v", i, v.Value, err)
		}
	}
	st := sess.Stats()
	if st.Entries != 1 || st.Misses != 3 {
		t.Fatalf("NoCache read was cached anyway: %+v", st)
	}
	if n := srv.sessions.interestCount("b"); n != 0 {
		t.Fatalf("full interest table still registered b (%d)", n)
	}
}

func TestSessionWatch(t *testing.T) {
	srv, cli := newSessionNode(t)
	sess := openSession(t, srv.Addr(), SessionOptions{})

	keyCh, cancelKey, err := sess.Watch("wk")
	if err != nil {
		t.Fatalf("Watch: %v", err)
	}
	lockCh, cancelLock, err := sess.WatchLock("wl")
	if err != nil {
		t.Fatalf("WatchLock: %v", err)
	}
	defer cancelLock()
	if _, err := cli.Put("wk", []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	select {
	case got := <-keyCh:
		if got != "wk" {
			t.Fatalf("key notification drifted: %q", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("key write never notified")
	}
	if err := cli.TryLock("wl", "me", time.Minute); err != nil {
		t.Fatalf("TryLock: %v", err)
	}
	select {
	case <-lockCh:
	case <-time.After(2 * time.Second):
		t.Fatal("lock acquire never notified")
	}
	if err := cli.Unlock("wl", "me"); err != nil {
		t.Fatalf("Unlock: %v", err)
	}
	select {
	case <-lockCh:
	case <-time.After(2 * time.Second):
		t.Fatal("lock release never notified")
	}

	cancelKey()
	if _, err := cli.Put("wk", []byte("y")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	select {
	case got := <-keyCh:
		t.Fatalf("cancelled watch still notified: %q", got)
	case <-time.After(150 * time.Millisecond):
	}
}

// TestClusterSessionCoherence drives the cached view of a replicated
// cluster through the Shared surface and across a membership change.
func TestClusterSessionCoherence(t *testing.T) {
	c, err := NewReplicated(3, 2, nil)
	if err != nil {
		t.Fatalf("NewReplicated: %v", err)
	}
	defer c.Close()
	cs := c.NewSession(SessionOptions{})
	defer cs.Close()

	if err := cs.PutString("greeting", "hello"); err != nil {
		t.Fatalf("PutString: %v", err)
	}
	for i := 0; i < 3; i++ {
		s, err := cs.GetString("greeting")
		if err != nil || s != "hello" {
			t.Fatalf("GetString (%d): %q, %v", i, s, err)
		}
	}
	if st := cs.Stats(); st.Hits == 0 {
		t.Fatalf("repeated reads never hit the cache: %+v", st)
	}
	if err := cs.PutString("greeting", "goodbye"); err != nil {
		t.Fatalf("PutString: %v", err)
	}
	if s, err := cs.GetString("greeting"); err != nil || s != "goodbye" {
		t.Fatalf("read after write: %q, %v", s, err)
	}

	// A membership change flushes every cache before completing: no
	// pre-change entry may outlive the view that created it.
	if err := c.AddNode(); err != nil {
		t.Fatalf("AddNode: %v", err)
	}
	if s, err := cs.GetString("greeting"); err != nil || s != "goodbye" {
		t.Fatalf("read after view change: %q, %v", s, err)
	}
	if n, err := cs.AddInt64("counter", 41); err != nil || n != 41 {
		t.Fatalf("AddInt64: %d, %v", n, err)
	}
	if n, err := cs.GetInt64("counter"); err != nil || n != 41 {
		t.Fatalf("GetInt64: %d, %v", n, err)
	}
}

// TestClusterSessionFailover kills a node under a cached workload: reads
// keep succeeding at the newest acked value and sessions re-establish with
// the promoted primaries.
func TestClusterSessionFailover(t *testing.T) {
	c, err := NewReplicated(3, 2, nil)
	if err != nil {
		t.Fatalf("NewReplicated: %v", err)
	}
	defer c.Close()
	c.SetSessionTTL(200 * time.Millisecond) // keep the failover fence short
	cs := c.NewSession(SessionOptions{})
	defer cs.Close()

	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("fo/%d", i)
		if err := cs.PutString(keys[i], "v1"); err != nil {
			t.Fatalf("seed %s: %v", keys[i], err)
		}
		if _, err := cs.GetString(keys[i]); err != nil {
			t.Fatalf("prime %s: %v", keys[i], err)
		}
	}
	if err := c.CrashNode(c.Addrs()[0]); err != nil {
		t.Fatalf("CrashNode: %v", err)
	}
	// Writes drive failover detection; each acked write must then be
	// visible through the session layer despite dead sessions and the
	// post-failover fence.
	for _, k := range keys {
		if err := cs.PutString(k, "v2"); err != nil {
			t.Fatalf("write across failover (%s): %v", k, err)
		}
		if s, err := cs.GetString(k); err != nil || s != "v2" {
			t.Fatalf("stale read across failover (%s): %q, %v", k, s, err)
		}
	}
	if st := cs.Stats(); st.LiveSessions == 0 {
		t.Fatalf("no session re-established after failover: %+v", st)
	}
}

// --- satellite: shed/expiry retry taxonomy ---

func TestCallShedRetryTaxonomy(t *testing.T) {
	var slept []time.Duration
	sleep := func(d time.Duration) { slept = append(slept, d) }

	// Transient sheds are retried with doubling backoff until success.
	calls := 0
	err := callShedRetry(sleep, func() error {
		calls++
		if calls <= 2 {
			return transport.ErrOverloaded
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("shed retry: err=%v calls=%d", err, calls)
	}
	if len(slept) != 2 || slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("backoff drifted: %v", slept)
	}

	// Wrapped expiry statuses count too (errors.Is, not equality).
	calls, slept = 0, nil
	err = callShedRetry(sleep, func() error {
		calls++
		if calls == 1 {
			return fmt.Errorf("queued too long: %w", transport.ErrExpired)
		}
		return nil
	})
	if err != nil || calls != 2 {
		t.Fatalf("expired retry: err=%v calls=%d", err, calls)
	}

	// A persistent shed surfaces after the retry budget.
	calls, slept = 0, nil
	err = callShedRetry(sleep, func() error { calls++; return transport.ErrOverloaded })
	if !errors.Is(err, transport.ErrOverloaded) || calls != shedRetries+1 {
		t.Fatalf("budget exhaustion: err=%v calls=%d", err, calls)
	}

	// Anything else is not retried: the handler may have run.
	calls, slept = 0, nil
	boom := errors.New("boom")
	err = callShedRetry(sleep, func() error { calls++; return boom })
	if !errors.Is(err, boom) || calls != 1 || len(slept) != 0 {
		t.Fatalf("non-refusal retried: err=%v calls=%d slept=%v", err, calls, slept)
	}
}

// TestClientRidesOutShed is the end-to-end regression for the old
// behavior, where one statusOverload reply failed the store call outright:
// a Get against a saturated admission queue must succeed once load drains.
func TestClientRidesOutShed(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	srv, err := transport.ServeOpts("127.0.0.1:0", func(req *transport.Request) ([]byte, error) {
		switch req.Method {
		case "Block":
			started <- struct{}{}
			<-release
			return nil, nil
		case "Get":
			return transport.Encode(&getReply{Val: Versioned{Value: []byte("ok"), Version: 7}})
		}
		return nil, errors.New("unknown method")
	}, transport.ServerOptions{MaxConcurrent: 1, MaxQueue: 1})
	if err != nil {
		t.Fatalf("ServeOpts: %v", err)
	}
	defer srv.Close()
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	// One call holds the only execution slot, a second fills the queue.
	blocker, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer blocker.Close()
	for i := 0; i < 2; i++ {
		go blocker.Call("kv", "Block", nil, 30*time.Second)
	}
	<-started // slot occupied; the second Block is queued or about to be

	cli, err := NewClient(srv.Addr())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cli.Close()
	got := make(chan error, 1)
	go func() {
		v, err := cli.Get("k")
		if err == nil && string(v.Value) != "ok" {
			err = fmt.Errorf("wrong value %q", v.Value)
		}
		got <- err
	}()
	// Once the server sheds something, drain the blockers so a retry can
	// land. (If the Get slipped into the queue before it filled, nothing is
	// shed and it simply completes — either way it must not error.)
	deadline := time.Now().Add(2 * time.Second)
	for srv.Stats().Shed == 0 && time.Now().Before(deadline) {
		time.Sleep(500 * time.Microsecond)
	}
	released = true
	close(release)
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("Get under shedding admission: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Get never completed")
	}
}

// recordingPusher plays a well-behaved client against the sessionMgr
// directly: it records the sequence order in which events actually reach
// the "wire" and acknowledges each immediately, the way the real client's
// acker would.
type recordingPusher struct {
	mgr *sessionMgr
	id  uint64

	mu   sync.Mutex
	seqs []uint64
}

func (p *recordingPusher) Send(kind, seq uint64, topic string, payload []byte) error {
	if kind == evNotify {
		return nil
	}
	// Stagger odd sequences, standing in for network-send jitter: an
	// implementation that pushes from the issuing goroutines concurrently
	// (instead of through the per-session FIFO sender) then reliably lands
	// an even sequence on the wire before its odd predecessor.
	if seq%2 == 1 {
		time.Sleep(200 * time.Microsecond)
	}
	p.mu.Lock()
	p.seqs = append(p.seqs, seq)
	p.mu.Unlock()
	p.mgr.ack(p.id, seq)
	return nil
}

func (p *recordingPusher) Closed() bool { return false }

// TestSessionEventOrderUnderConcurrentWrites pins the wire order of
// invalidation pushes to their sequence order. Events used to be pushed
// after the manager mutex was released, so two concurrent writes to
// different keys could land newest-sequence-first — and with cumulative
// acks, the client's ack for the newer event released the older write's
// waiter before that write's invalidation was even sent, acknowledging a
// write while its stale cached copy was still being served.
func TestSessionEventOrderUnderConcurrentWrites(t *testing.T) {
	m := newSessionMgr(nil)
	defer m.closeAll()
	m.setTTL(time.Minute) // no keepalives run here; keep the session live throughout
	p := &recordingPusher{mgr: m}
	id, _ := m.open(p)
	p.id = id

	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	const rounds = 50
	for round := 0; round < rounds; round++ {
		for _, k := range keys {
			if _, _, _, err := m.lease(id, k); err != nil {
				t.Fatalf("lease round %d: %v", round, err)
			}
		}
		var wg sync.WaitGroup
		for _, k := range keys {
			wg.Add(1)
			go func(k string) {
				defer wg.Done()
				m.invalidate(k)
			}(k)
		}
		wg.Wait()
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.seqs) != rounds*len(keys) {
		t.Fatalf("pushed %d events, want %d", len(p.seqs), rounds*len(keys))
	}
	for i := 1; i < len(p.seqs); i++ {
		if p.seqs[i] <= p.seqs[i-1] {
			t.Fatalf("event pushed out of order: seq %d after seq %d (index %d)",
				p.seqs[i], p.seqs[i-1], i)
		}
	}
}

// TestSessionForgetSparesNewerLease is the regression test for a coherence
// hole in cache eviction. Evicting a key sends a one-way SessForget, which
// is not ordered against the client's other calls: another reader of the
// same session could re-lease the evicted key, have that GetLease served
// first, and then see the forget drop the interest its fresh copy was
// registered under — the copy stayed cached with nobody to invalidate it,
// and the next write to the key was acknowledged while it was served. A
// forget now names the lease grant it retires and spares any newer one.
func TestSessionForgetSparesNewerLease(t *testing.T) {
	m := newSessionMgr(nil)
	defer m.closeAll()
	m.setTTL(time.Minute)
	p := &recordingPusher{mgr: m}
	id, _ := m.open(p)
	p.id = id

	_, evictedGrant, _, err := m.lease(id, "k") // the copy the client evicts
	if err != nil {
		t.Fatal(err)
	}
	_, liveGrant, _, err := m.lease(id, "k") // a concurrent read re-leases it
	if err != nil {
		t.Fatal(err)
	}
	m.forget(id, "k", evictedGrant) // the eviction's forget lands last
	if n := m.interestCount("k"); n != 1 {
		t.Fatalf("stale forget dropped the re-leased copy's interest (%d sessions interested)", n)
	}
	m.invalidate("k")
	p.mu.Lock()
	pushed := len(p.seqs)
	p.mu.Unlock()
	if pushed != 1 {
		t.Fatalf("write to the re-leased key pushed %d invalidations, want 1", pushed)
	}

	// Retiring the live grant does drop the interest.
	_, liveGrant, _, _ = m.lease(id, "k")
	m.forget(id, "k", liveGrant)
	if n := m.interestCount("k"); n != 0 {
		t.Fatalf("forget of the current grant kept the interest (%d)", n)
	}
}

// severablePusher is a session connection the test can cut: once severed
// the server sees it closed, while the client on the other end — frozen,
// or simply not yet aware — may keep serving its cache.
type severablePusher struct{ severed atomic.Bool }

func (p *severablePusher) Send(kind, seq uint64, topic string, payload []byte) error {
	if p.severed.Load() {
		return transport.ErrClosed
	}
	return nil
}

func (p *severablePusher) Closed() bool { return p.severed.Load() }

// TestSessionConnectionLossWaitsOutLease is the regression test for the
// other way a write could be acknowledged under a live cached copy: when
// the server saw a session's connection die, it killed the session and
// released the write at once — but the client learns of a dead connection
// only when a call on it fails, and until then it serves its cache for the
// rest of its lease. A write must now wait for that lease to end, on the
// server's clock, exactly as for a client that stopped acking.
func TestSessionConnectionLossWaitsOutLease(t *testing.T) {
	sim := simclock.NewSim(time.Unix(1000, 0))
	m := newSessionMgr(sim)
	defer m.closeAll()
	const ttl = 2 * time.Second
	m.setTTL(ttl)
	for _, flush := range []bool{false, true} {
		p := &severablePusher{}
		id, _ := m.open(p)
		if _, _, _, err := m.lease(id, "k"); err != nil {
			t.Fatal(err)
		}
		p.severed.Store(true)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if flush {
				m.flushAll() // a view change
			} else {
				m.invalidate("k") // a write
			}
		}()
		waitFor(t, "the revocation to park on the lease deadline", func() bool {
			select {
			case <-done:
				return true
			default:
				return sim.Pending() == 1
			}
		})
		select {
		case <-done:
			t.Fatalf("flush=%v: revocation completed with the severed session's lease still running", flush)
		default:
		}
		sim.Advance(ttl - time.Millisecond)
		select {
		case <-done:
			t.Fatalf("flush=%v: revocation completed %v before the lease deadline", flush, time.Millisecond)
		case <-time.After(20 * time.Millisecond):
		}
		sim.Advance(time.Millisecond)
		<-done
		if n := m.sessionCount(); n != 0 {
			t.Fatalf("flush=%v: severed session survived (%d live)", flush, n)
		}
	}
}

// TestSessionAdoptsLoweredTTL: lowering the server's session TTL while
// sessions are open must shrink the client's serving window on its next
// keepalive. The server extends leases by its *current* TTL, so a client
// still extending by the open-time value would hold a window ending after
// the server's — and after every invalidation deadline captured from it —
// serving stale entries past the point where a blocked write gets acked.
func TestSessionAdoptsLoweredTTL(t *testing.T) {
	srv, cli := newSessionNode(t)
	if _, err := cli.Put("k", []byte("cached")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	sess := openSession(t, srv.Addr(), SessionOptions{})
	if _, err := sess.Get("k"); err != nil {
		t.Fatalf("Get: %v", err)
	}
	const shortTTL = 150 * time.Millisecond
	srv.SetSessionTTL(shortTTL)
	deadline := time.Now().Add(5 * time.Second)
	for {
		sess.mu.Lock()
		ttl := sess.ttl
		sess.mu.Unlock()
		if ttl == shortTTL {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never adopted the lowered TTL from a keepalive reply")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// With keepalives now suppressed, the client must stop serving within
	// the NEW window, not the one it opened with.
	sess.noKeepalive.Store(true)
	time.Sleep(2 * shortTTL)
	hitsBefore := sess.Stats().Hits
	if _, err := sess.Get("k"); !errors.Is(err, ErrNoSession) {
		t.Fatalf("Get past shortened lease: %v, want ErrNoSession", err)
	}
	if hits := sess.Stats().Hits; hits != hitsBefore {
		t.Fatalf("cache served %d hits past the shortened lease", hits-hitsBefore)
	}
}

// newTinyPoolServer boots a store server whose transport pool is small
// enough for a handful of blocked writers to saturate — the scenario in
// which session-control calls must ride the express lane or starve.
func newTinyPoolServer(t *testing.T) *Server {
	t.Helper()
	s, err := newServer("127.0.0.1:0", nil, DurOptions{}, transport.ServerOptions{MaxConcurrent: 2, MaxQueue: 2})
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestSessionControlRidesExpressLane: a burst of writes wider than the
// worker pool, every one parked in an invalidation wait, must not starve
// the acks and keepalives that would release them. Routed through the same
// admission pool those calls were shed past the client's retry budget, the
// acker marked the session dead, and every write degraded to a full
// lease-deadline wait.
func TestSessionControlRidesExpressLane(t *testing.T) {
	srv := newTinyPoolServer(t)
	cli, err := NewClient(srv.Addr())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer cli.Close()
	sess := openSession(t, srv.Addr(), SessionOptions{})
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		if _, err := cli.Put(k, []byte("v1")); err != nil {
			t.Fatalf("Put %s: %v", k, err)
		}
		if _, err := sess.Get(k); err != nil {
			t.Fatalf("Get %s: %v", k, err)
		}
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make(chan error, len(keys))
	for _, k := range keys {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			if _, err := cli.Put(k, []byte("v2")); err != nil {
				errs <- fmt.Errorf("Put %s under saturation: %w", k, err)
			}
		}(k)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// The writers must have been released by acks, not by lease timeouts,
	// and the acking session must have survived the burst.
	if elapsed := time.Since(start); elapsed > DefaultSessionTTL {
		t.Fatalf("write burst took %v — writers waited out lease deadlines", elapsed)
	}
	if !sess.Live() || srv.sessions.sessionCount() != 1 {
		t.Fatalf("session did not survive the write burst (live=%v, sessions=%d)",
			sess.Live(), srv.sessions.sessionCount())
	}
	for _, k := range keys {
		if v, err := sess.Get(k); err != nil || string(v.Value) != "v2" {
			t.Fatalf("read after burst (%s): %q, %v", k, v.Value, err)
		}
	}
}

// TestClusterSessionDialStallIsolation: opening a session blocks on a dial
// plus a SessOpen round trip; one stalled node must not hold the
// ClusterSession lock and freeze cached reads for keys on healthy shards.
func TestClusterSessionDialStallIsolation(t *testing.T) {
	c, err := NewCluster(2, nil)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer c.Close()
	cs := c.NewSession(SessionOptions{})
	defer cs.Close()

	ownerOf := func(key string) string {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.nodes[c.ring.Owner(key)].addr
	}
	addrs := c.Addrs()
	keyFor := func(addr string) string {
		for i := 0; i < 10000; i++ {
			k := fmt.Sprintf("iso/%d", i)
			if ownerOf(k) == addr {
				return k
			}
		}
		t.Fatalf("no key routed to %s", addr)
		return ""
	}
	stalled, healthy := addrs[0], addrs[1]
	kStall, kOK := keyFor(stalled), keyFor(healthy)
	if err := c.PutString(kOK, "v"); err != nil {
		t.Fatalf("PutString: %v", err)
	}

	gate := make(chan struct{})
	var entered sync.Once
	enteredCh := make(chan struct{})
	orig := dialSession
	dialSession = func(addr string, opts SessionOptions) (*Session, error) {
		if addr == stalled {
			entered.Do(func() { close(enteredCh) })
			<-gate
		}
		return orig(addr, opts)
	}
	defer func() { dialSession = orig }()

	stallDone := make(chan struct{})
	go func() {
		defer close(stallDone)
		_, _ = cs.Get(kStall) // parks inside the stalled dial
	}()
	<-enteredCh

	got := make(chan error, 1)
	go func() {
		s, err := cs.GetString(kOK)
		if err == nil && s != "v" {
			err = fmt.Errorf("wrong value %q", s)
		}
		got <- err
	}()
	var failure string
	select {
	case err := <-got:
		if err != nil {
			failure = fmt.Sprintf("healthy-shard read: %v", err)
		}
	case <-time.After(2 * time.Second):
		failure = "healthy-shard read stalled behind another shard's dialing session"
	}
	close(gate)
	<-stallDone
	if failure != "" {
		t.Fatal(failure)
	}
}
