package kvstore

import (
	"container/list"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/simclock"
	"elasticrmi/internal/transport"
)

// This file is the client half of the session layer (server half:
// session.go): a lease-backed, invalidation-coherent read cache. A cache
// hit is a map lookup — no network — and the protocol guarantees a hit can
// never return a value older than the last acknowledged write (see
// store.go, "Sessions and caching").

// DefaultMaxEntries is the default per-session cache capacity.
const DefaultMaxEntries = 4096

// SessionOptions configures a client session.
type SessionOptions struct {
	// MaxEntries bounds the cache (LRU eviction; an evicted key's server-
	// side interest is dropped with it). <= 0 selects DefaultMaxEntries.
	MaxEntries int
	// Clock is the session's time source (nil = wall clock). The lease
	// window is measured on this clock from each keepalive's *send* instant,
	// so an absolute offset against the server cannot extend serving past
	// the server-side lease.
	Clock simclock.Clock
}

// cacheEntry is one cached key (list.Element value; the list is the LRU
// order, front = most recently used). grant is the newest lease the entry
// was installed under; evicting it forgets exactly that lease.
type cacheEntry struct {
	key   string
	val   Versioned
	grant uint64
}

// Session is a keepalive-backed session with one store node, holding a
// bounded, version-tagged read cache the node invalidates before it
// acknowledges any conflicting write. Safe for concurrent use.
//
// A session that loses its node (connection failure, keepalive failure,
// lease expiry) goes dead: cached entries stop being served instantly and
// every operation returns ErrNoSession. It does not resurrect — open a new
// session (ClusterSession does this automatically on failover).
type Session struct {
	addr       string
	conn       *transport.Client
	clock      simclock.Clock
	id         uint64
	maxEntries int

	mu sync.Mutex
	// ttl is the lease duration of the most recent grant. It starts at the
	// open reply's value and tracks each keepalive reply thereafter, so the
	// serving window follows the server's current setting.
	ttl     time.Duration
	entries map[string]*list.Element
	lru     list.List
	// lastInval[k] is the newest invalidation sequence seen for k;
	// invalFloor is a lower bound applying to every key (set by flush
	// events and by folding lastInval when it outgrows the cache). A
	// GetLease reply with snapshot S installs only if lastInval[k] <= S and
	// invalFloor <= S: anything newer revoked the very value (or a newer
	// one than) the reply carries.
	lastInval  map[string]uint64
	invalFloor uint64
	// processedSeq is the newest acknowledged-event sequence this session
	// has applied. The keepalive loop advances the lease only when it has
	// caught up to the sequence the server reported at keepalive time —
	// a lease extension must never outrun an unprocessed invalidation.
	processedSeq uint64
	// leaseUntil ends the serving window, anchored at keepalive send time.
	leaseUntil time.Time
	dead       bool
	closed     bool
	watchers   map[string][]chan string

	hits, misses, invals atomic.Uint64

	ackCh chan uint64
	done  chan struct{}
	wg    sync.WaitGroup

	// Test hooks: suspend the keepalive loop (lease-expiry tests) and drop
	// invalidation acks (write-ack-timeout tests).
	noKeepalive atomic.Bool
	dropAcks    atomic.Bool
}

// NewSession opens a session with the store node at addr.
func NewSession(addr string, opts SessionOptions) (*Session, error) {
	clock := opts.Clock
	if clock == nil {
		clock = simclock.Real{}
	}
	maxEntries := opts.MaxEntries
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	s := &Session{
		addr:       addr,
		clock:      clock,
		maxEntries: maxEntries,
		entries:    make(map[string]*list.Element),
		lastInval:  make(map[string]uint64),
		watchers:   make(map[string][]chan string),
		ackCh:      make(chan uint64, 4096),
		done:       make(chan struct{}),
	}
	conn, err := transport.DialOpts(addr, transport.DialOptions{OnEvent: s.onEvent})
	if err != nil {
		return nil, fmt.Errorf("kvstore session: %w", err)
	}
	s.conn = conn
	t0 := clock.Now()
	var rep sessOpenReply
	if err := s.call("SessOpen", &sessOpenReq{}, &rep); err != nil {
		conn.Close()
		return nil, fmt.Errorf("kvstore session: open: %w", err)
	}
	s.id, s.ttl = rep.ID, rep.TTL
	s.leaseUntil = t0.Add(rep.TTL)
	s.wg.Add(2)
	go s.keepaliveLoop()
	go s.acker()
	return s, nil
}

// Addr returns the node address this session is bound to.
func (s *Session) Addr() string { return s.addr }

// Live reports whether the session can still serve (not dead, not closed).
func (s *Session) Live() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.dead
}

func (s *Session) call(method string, req, reply interface{}) error {
	err := callShedRetry(time.Sleep, func() error {
		return s.conn.CallDecode(ServiceName, method, req, reply, defaultCallTimeout)
	})
	if err != nil {
		return unwireError(err)
	}
	return nil
}

func (s *Session) markDead() {
	s.mu.Lock()
	s.dead = true
	s.mu.Unlock()
}

// onEvent runs on the connection's read loop: it must not block, so acks
// are handed to the acker goroutine through a buffered channel.
func (s *Session) onEvent(ev transport.Event) {
	switch ev.Kind {
	case evInval:
		s.mu.Lock()
		s.removeLocked(ev.Topic)
		if ev.Seq > s.lastInval[ev.Topic] {
			s.lastInval[ev.Topic] = ev.Seq
		}
		s.boundInvalLocked()
		if ev.Seq > s.processedSeq {
			s.processedSeq = ev.Seq
		}
		s.mu.Unlock()
		s.invals.Add(1)
		s.enqueueAck(ev.Seq)
	case evFlush:
		s.mu.Lock()
		s.entries = make(map[string]*list.Element)
		s.lru.Init()
		s.lastInval = make(map[string]uint64)
		if ev.Seq > s.invalFloor {
			s.invalFloor = ev.Seq
		}
		if ev.Seq > s.processedSeq {
			s.processedSeq = ev.Seq
		}
		s.mu.Unlock()
		s.invals.Add(1)
		s.enqueueAck(ev.Seq)
	case evNotify:
		s.mu.Lock()
		chans := append([]chan string(nil), s.watchers[ev.Topic]...)
		s.mu.Unlock()
		for _, ch := range chans {
			select { // lossy by contract: a slow watcher drops, never blocks
			case ch <- ev.Topic:
			default:
			}
		}
	}
}

func (s *Session) enqueueAck(seq uint64) {
	if s.dropAcks.Load() {
		return
	}
	select {
	case s.ackCh <- seq:
	default:
		// An ack backlog this deep means the acker is wedged; the server
		// will revoke the session at lease timeout — stop serving now.
		s.markDead()
	}
}

// acker delivers invalidation acknowledgments. Acks are cumulative, so a
// burst coalesces into one call carrying the highest sequence.
func (s *Session) acker() {
	defer s.wg.Done()
	for {
		var seq uint64
		select {
		case seq = <-s.ackCh:
		case <-s.done:
			return
		}
		for drained := false; !drained; {
			select {
			case q := <-s.ackCh:
				if q > seq {
					seq = q
				}
			default:
				drained = true
			}
		}
		var rep sessAckReply
		if err := s.call("SessAck", &sessAckReq{ID: s.id, Seq: seq}, &rep); err != nil {
			s.markDead()
			return
		}
	}
}

// keepaliveLoop renews the lease at ttl/3. The lease anchor is the
// keepalive's send instant on the client's own clock: the send happens
// before the server's receipt, so the client-side window always ends at or
// before the server-side one no matter how the two clocks are offset. Each
// reply carries the server's current TTL and the client adopts it — the
// server extends by that value, so extending by the open-time TTL after
// SetSessionTTL lowered it would leave the client window ending after the
// server's (and after every invalidation deadline captured from it).
func (s *Session) keepaliveLoop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		interval := s.ttl / 3
		s.mu.Unlock()
		if interval <= 0 {
			interval = time.Millisecond
		}
		select {
		case <-s.done:
			return
		case <-s.clock.After(interval):
		}
		if s.noKeepalive.Load() {
			continue
		}
		t0 := s.clock.Now()
		s.mu.Lock()
		processed := s.processedSeq
		s.mu.Unlock()
		var rep sessKeepReply
		if err := s.call("SessKeep", &sessKeepReq{ID: s.id, Processed: processed}, &rep); err != nil {
			s.markDead()
			return
		}
		s.mu.Lock()
		if rep.TTL > 0 {
			s.ttl = rep.TTL
		}
		// Advance only when every event up to the server's sequence at
		// keepalive time has been applied: a keepalive reply that raced
		// past an in-flight invalidation must not extend the serving
		// window of the entry it revokes. A window that SHRANK (the server
		// lowered the TTL) takes effect unconditionally — the server-side
		// lease now ends at receipt+TTL, and serving past the client-side
		// image of that bound would outlive the deadlines invalidations
		// capture from it.
		nu := t0.Add(s.ttl)
		if s.processedSeq >= rep.EventSeq || nu.Before(s.leaseUntil) {
			s.leaseUntil = nu
		}
		s.mu.Unlock()
	}
}

func (s *Session) removeLocked(key string) {
	if el, ok := s.entries[key]; ok {
		delete(s.entries, key)
		s.lru.Remove(el)
	}
}

// boundInvalLocked keeps lastInval from growing without bound (keys churn
// through the cache, their guard entries would not). Folding the map into
// invalFloor only tightens the install guard — never loosens it.
func (s *Session) boundInvalLocked() {
	if len(s.lastInval) <= 4*s.maxEntries {
		return
	}
	floor := s.invalFloor
	for _, q := range s.lastInval {
		if q > floor {
			floor = q
		}
	}
	s.invalFloor = floor
	s.lastInval = make(map[string]uint64)
}

// Get returns key's value — from the cache when the lease is live and the
// entry has not been invalidated, otherwise via GetLease (installing the
// result for the next hit).
func (s *Session) Get(key string) (Versioned, error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return Versioned{}, ErrNoSession
	}
	if s.clock.Now().Before(s.leaseUntil) {
		if el, ok := s.entries[key]; ok {
			s.lru.MoveToFront(el)
			v := el.Value.(*cacheEntry).val
			s.mu.Unlock()
			s.hits.Add(1)
			return v, nil
		}
	}
	s.mu.Unlock()
	s.misses.Add(1)
	var rep leaseReply
	if err := s.call("GetLease", &leaseReq{ID: s.id, Key: key}, &rep); err != nil {
		return Versioned{}, err
	}
	var evicted *cacheEntry
	s.mu.Lock()
	if !s.dead && !rep.NoCache &&
		s.invalFloor <= rep.Snapshot && s.lastInval[key] <= rep.Snapshot {
		evicted = s.installLocked(key, rep.Val, rep.Grant)
	}
	s.mu.Unlock()
	if evicted != nil {
		// Fire-and-forget: a lost forget leaves a harmless stale interest
		// (the next write pushes one spurious, immediately-acked inval).
		// The grant keeps a forget that overtakes a concurrent re-lease of
		// the same key from dropping the newer lease's interest.
		_ = s.conn.OneWayDecode(ServiceName, "SessForget", &sessForgetReq{ID: s.id, Key: evicted.key, Grant: evicted.grant})
	}
	return rep.Val, nil
}

// installLocked inserts (or refreshes) a cache entry, copying the value out
// of the transport frame, and returns the entry evicted to make room (nil
// if none).
func (s *Session) installLocked(key string, v Versioned, grant uint64) (evicted *cacheEntry) {
	val := Versioned{Value: append([]byte(nil), v.Value...), Version: v.Version, Deleted: v.Deleted}
	if el, ok := s.entries[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.val = val
		ent.grant = max(ent.grant, grant)
		s.lru.MoveToFront(el)
		return nil
	}
	s.entries[key] = s.lru.PushFront(&cacheEntry{key: key, val: val, grant: grant})
	if len(s.entries) <= s.maxEntries {
		return nil
	}
	ent := s.lru.Back().Value.(*cacheEntry)
	s.removeLocked(ent.key)
	return ent
}

// Watch subscribes to lossy change notifications for a data key: the
// channel receives the key after each committed write to it (coalesced
// under load — notifications are a re-read hint, not a change log, and
// never gate a write the way invalidations do). The returned cancel
// releases the subscription.
func (s *Session) Watch(key string) (<-chan string, func(), error) {
	return s.watch(key)
}

// WatchLock is Watch for a named lock: a notification fires on every
// acquire and release of the lock.
func (s *Session) WatchLock(name string) (<-chan string, func(), error) {
	return s.watch(lockWatchTopic(name))
}

func (s *Session) watch(topic string) (<-chan string, func(), error) {
	ch := make(chan string, 16)
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return nil, nil, ErrNoSession
	}
	s.watchers[topic] = append(s.watchers[topic], ch)
	s.mu.Unlock()
	var rep sessWatchReply
	if err := s.call("SessWatch", &sessWatchReq{ID: s.id, Topic: topic}, &rep); err != nil {
		s.unsubscribe(topic, ch)
		return nil, nil, err
	}
	cancel := func() {
		if s.unsubscribe(topic, ch) {
			var rep sessWatchReply
			_ = s.call("SessUnwatch", &sessWatchReq{ID: s.id, Topic: topic}, &rep)
		}
	}
	return ch, cancel, nil
}

// unsubscribe removes ch from topic's watcher list and reports whether it
// was the last one (so the server-side registration can be dropped).
func (s *Session) unsubscribe(topic string, ch chan string) (last bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	chans := s.watchers[topic]
	for i, c := range chans {
		if c == ch {
			chans = append(chans[:i], chans[i+1:]...)
			break
		}
	}
	if len(chans) == 0 {
		delete(s.watchers, topic)
		return true
	}
	s.watchers[topic] = chans
	return false
}

// SessionStats reports a session's cache effectiveness.
type SessionStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	Entries       int
	Live          bool
}

// Stats returns cumulative counters and current state.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	entries, live := len(s.entries), !s.dead
	s.mu.Unlock()
	return SessionStats{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Invalidations: s.invals.Load(),
		Entries:       entries,
		Live:          live,
	}
}

// Close tears the session down on both sides.
func (s *Session) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.dead = true
	s.mu.Unlock()
	close(s.done)
	var rep sessCloseReply
	_ = s.call("SessClose", &sessCloseReq{ID: s.id}, &rep)
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

// ClusterSession layers per-primary sessions over a Cluster: reads are
// served from lease-backed caches (one session per shard primary, opened
// on demand and re-established automatically after failover), writes and
// everything else take the ordinary routed path — whose primaries
// invalidate the caches before acknowledging. It implements Shared, so it
// drops into core.State wherever a Cluster does.
type ClusterSession struct {
	c    *Cluster
	opts SessionOptions

	mu       sync.Mutex
	sessions map[string]*Session // by primary address
	closed   bool
}

// NewSession returns a session-caching view of the cluster. The caller
// should Close it to release its per-node sessions.
func (c *Cluster) NewSession(opts SessionOptions) *ClusterSession {
	if opts.Clock == nil {
		opts.Clock = c.clock
	}
	cs := &ClusterSession{c: c, opts: opts, sessions: make(map[string]*Session)}
	c.registerSession(cs)
	return cs
}

// dialSession is NewSession behind a test seam (dial-stall isolation tests
// substitute a delaying dialer).
var dialSession = NewSession

// sessionForKey returns a live session with key's current primary, opening
// one if needed. Returns nil when no session can be established (caller
// falls back to the uncached path, which drives failover).
func (cs *ClusterSession) sessionForKey(key string) *Session {
	cs.c.mu.RLock()
	var addr string
	if !cs.c.closed && cs.c.ring != nil {
		if idx := cs.c.ring.Owner(key); idx >= 0 {
			addr = cs.c.nodes[idx].addr
		}
	}
	cs.c.mu.RUnlock()
	if addr == "" {
		return nil
	}
	cs.mu.Lock()
	if cs.closed {
		cs.mu.Unlock()
		return nil
	}
	if sess := cs.sessions[addr]; sess != nil {
		if sess.Live() {
			cs.mu.Unlock()
			return sess
		}
		delete(cs.sessions, addr)
		go sess.Close()
	}
	cs.mu.Unlock()
	// Dial outside cs.mu: opening a session blocks on a dial plus the
	// SessOpen round trip, and one slow or unresponsive node must not stall
	// cached reads for keys on every other shard. Concurrent misses on the
	// same address may race duplicate dials; the loser is closed below.
	sess, err := dialSession(addr, cs.opts)
	if err != nil {
		return nil
	}
	cs.mu.Lock()
	if cs.closed {
		cs.mu.Unlock()
		go sess.Close()
		return nil
	}
	if cur := cs.sessions[addr]; cur != nil {
		if cur.Live() {
			cs.mu.Unlock()
			go sess.Close()
			return cur
		}
		delete(cs.sessions, addr)
		go cur.Close()
	}
	cs.sessions[addr] = sess
	cs.mu.Unlock()
	return sess
}

// dropSession discards a session (dead node, stale view).
func (cs *ClusterSession) dropSession(sess *Session) {
	cs.mu.Lock()
	if cs.sessions[sess.addr] == sess {
		delete(cs.sessions, sess.addr)
	}
	cs.mu.Unlock()
	go sess.Close()
}

// Get serves key from the primary's session cache, falling back to the
// routed (failover-driving) path when the session layer cannot.
func (cs *ClusterSession) Get(key string) (Versioned, error) {
	for attempt := 0; attempt < 3; attempt++ {
		sess := cs.sessionForKey(key)
		if sess == nil {
			break
		}
		v, err := sess.Get(key)
		switch {
		case err == nil:
			return v, nil
		case errors.Is(err, ErrNotFound):
			return Versioned{}, ErrNotFound
		case errors.Is(err, ErrNoSession):
			cs.dropSession(sess) // reopen on the next attempt
		case errors.Is(err, ErrWrongOwner):
			// Routing views disagree (membership change in flight); the
			// fallback path resolves it.
		default:
			// Transport-level failure: discard the session and let the
			// routed path probe the node and fail over.
			cs.dropSession(sess)
			return cs.c.Get(key)
		}
	}
	return cs.c.Get(key)
}

// GetString fetches key as a string through the cache ("" when missing).
func (cs *ClusterSession) GetString(key string) (string, error) {
	v, err := cs.Get(key)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return "", nil
		}
		return "", err
	}
	return string(v.Value), nil
}

// GetInt64 fetches key as an int64 through the cache (0 when missing).
func (cs *ClusterSession) GetInt64(key string) (int64, error) {
	v, err := cs.Get(key)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return 0, nil
		}
		return 0, err
	}
	n, perr := strconv.ParseInt(string(v.Value), 10, 64)
	if perr != nil {
		return 0, fmt.Errorf("key %q is not an integer: %w", key, perr)
	}
	return n, nil
}

// Writes (and scans, and locks) take the routed path: the shard primary
// invalidates every caching session before the ack comes back, so the
// cache layer needs no write-through logic of its own.

func (cs *ClusterSession) Put(key string, value []byte) (uint64, error) { return cs.c.Put(key, value) }
func (cs *ClusterSession) Delete(key string) error                      { return cs.c.Delete(key) }
func (cs *ClusterSession) CompareAndSwap(key string, value []byte, expectVersion uint64) (uint64, error) {
	return cs.c.CompareAndSwap(key, value, expectVersion)
}
func (cs *ClusterSession) AddInt64(key string, delta int64) (int64, error) {
	return cs.c.AddInt64(key, delta)
}
func (cs *ClusterSession) PutString(key, value string) error { return cs.c.PutString(key, value) }
func (cs *ClusterSession) PutInt64(key string, value int64) error {
	return cs.c.PutInt64(key, value)
}
func (cs *ClusterSession) TryLock(name, owner string, lease time.Duration) error {
	return cs.c.TryLock(name, owner, lease)
}
func (cs *ClusterSession) Unlock(name, owner string) error      { return cs.c.Unlock(name, owner) }
func (cs *ClusterSession) Keys(prefix string) ([]string, error) { return cs.c.Keys(prefix) }

// Watch subscribes to change notifications for a data key on its current
// primary. The subscription lives as long as that session: after a
// failover the caller re-subscribes (a Watch is a hint stream, not
// durable state).
func (cs *ClusterSession) Watch(key string) (<-chan string, func(), error) {
	sess := cs.sessionForKey(key)
	if sess == nil {
		return nil, nil, ErrUnavailable
	}
	return sess.Watch(key)
}

// WatchLock is Watch for a named lock.
func (cs *ClusterSession) WatchLock(name string) (<-chan string, func(), error) {
	sess := cs.sessionForKey(lockRouteKey(name))
	if sess == nil {
		return nil, nil, ErrUnavailable
	}
	return sess.WatchLock(name)
}

// ClusterSessionStats aggregates the per-primary session counters.
type ClusterSessionStats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64
	LiveSessions  int
}

// Stats sums the counters across the per-primary sessions.
func (cs *ClusterSession) Stats() ClusterSessionStats {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	var out ClusterSessionStats
	for _, sess := range cs.sessions {
		st := sess.Stats()
		out.Hits += st.Hits
		out.Misses += st.Misses
		out.Invalidations += st.Invalidations
		if st.Live {
			out.LiveSessions++
		}
	}
	return out
}

// Close releases every per-node session.
func (cs *ClusterSession) Close() error {
	cs.c.dropSessionClient(cs)
	cs.mu.Lock()
	sessions := cs.sessions
	cs.sessions = make(map[string]*Session)
	cs.closed = true
	cs.mu.Unlock()
	var err error
	for _, sess := range sessions {
		if cerr := sess.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

var _ Shared = (*ClusterSession)(nil)
