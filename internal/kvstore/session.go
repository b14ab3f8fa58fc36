package kvstore

import (
	"errors"
	"sync"
	"time"

	"elasticrmi/internal/simclock"
)

// This file is the server half of the session layer: Chubby-style
// keepalive-backed sessions whose cached reads the store invalidates
// *before* acknowledging any conflicting write. The client half lives in
// sessclient.go; the coherence contract is documented on the package
// (store.go, "Sessions and caching").

// ErrNoSession is returned for session operations against a session the
// server does not know — never opened, expired, or killed. Clients react by
// reopening the session (with an empty cache).
var ErrNoSession = errors.New("kvstore: unknown or expired session")

// ErrWrongOwner is returned by GetLease when the addressed node is not the
// primary of the key's shard under its installed view — only primaries
// grant leases, because only the primary of a key sees (and therefore can
// invalidate before) every write to it. Clients re-route and retry.
var ErrWrongOwner = errors.New("kvstore: not the primary for this key")

// DefaultSessionTTL is the lease a session holds after each keepalive (and
// after open). Clients anchor the lease at keepalive *send* time, so the
// client-side lease always ends at or before the server-side one,
// regardless of clock offset between the two.
const DefaultSessionTTL = 2 * time.Second

// defaultMaxInterest caps how many keys one session may hold under lease.
// Past the cap GetLease still serves reads but stops granting cache
// permission (NoCache), so a client with an oversized cache cannot make the
// server track unbounded interest state.
const defaultMaxInterest = 65536

// Event kinds pushed on session connections (transport.Event.Kind).
const (
	// evInval invalidates one cached key (Topic). The client must drop the
	// entry and acknowledge with SessAck; the conflicting write's reply is
	// withheld until every affected session acks or its lease expires.
	evInval = 1
	// evFlush invalidates the whole cache (view change, lock migration).
	// Acknowledged like evInval.
	evFlush = 2
	// evNotify is a lossy watch notification (Topic = key or lock topic).
	// Never acknowledged, never blocks a write; Seq is always 0.
	evNotify = 3
)

// lockWatchTopic is the notification topic of a named lock. The \x00 prefix
// keeps it out of the data keyspace, so watching lock "x" never aliases
// watching data key "lock/x".
func lockWatchTopic(name string) string { return "\x00lock:" + name }

// Session-protocol wire messages (hot path: every cache miss is a GetLease,
// every invalidation round trips a SessAck).
//
//ermi:codec
type (
	sessOpenReq   struct{}
	sessOpenReply struct {
		ID  uint64
		TTL time.Duration
	}
	sessKeepReq struct {
		ID uint64
		// Processed is the newest event sequence the client has applied to
		// its cache. It doubles as a cumulative acknowledgment: a lost or
		// delayed SessAck frame is repaired by the next keepalive, so a
		// writer never waits longer than a keepalive interval on a client
		// whose ack path (not its event path) is slow.
		Processed uint64
	}
	sessKeepReply struct {
		// EventSeq is the session's last issued invalidation sequence at the
		// time of the keepalive. The client may extend its lease from this
		// reply only once it has processed every event up to EventSeq —
		// otherwise a keepalive racing an unprocessed invalidation could
		// extend the serving window of an entry the server believes revoked.
		EventSeq uint64
		// TTL is the lease duration this keepalive granted — the server's
		// current setting, not the one the session opened with. The client
		// adopts it: the server extends by its *current* TTL, so a client
		// still extending by the open-time value after SetSessionTTL lowered
		// it would hold a window ending after the server's, and every
		// invalidation deadline captured from that server window would pass
		// while the client kept serving.
		TTL time.Duration
	}
	sessCloseReq   struct{ ID uint64 }
	sessCloseReply struct{}
	leaseReq       struct {
		ID  uint64
		Key string
	}
	leaseReply struct {
		Val Versioned
		// Snapshot is the session's invalidation sequence captured when the
		// key's interest was registered — before the value was read. The
		// client installs the entry only if it has seen no invalidation
		// newer than Snapshot for this key: any write applied after this
		// read carries a sequence > Snapshot, and any event <= Snapshot was
		// for a write the read already reflects.
		Snapshot uint64
		// NoCache means the value may be served but not cached: the
		// session's interest table is full.
		NoCache bool
		// Grant numbers this lease within its session. The client hands it
		// back when it evicts the entry (SessForget), so a forget that
		// arrives after a newer lease of the same key drops nothing.
		Grant uint64
	}
	sessAckReq struct {
		ID uint64
		// Seq acknowledges every outstanding invalidation with sequence <=
		// Seq (cumulative, so a client can coalesce a burst into one ack).
		Seq uint64
	}
	sessAckReply  struct{}
	sessForgetReq struct {
		ID    uint64
		Key   string
		Grant uint64 // the lease the evicted entry was installed under
	}
	sessForgetReply struct{}
	sessWatchReq    struct {
		ID    uint64
		Topic string
	}
	sessWatchReply struct{}
)

// eventPusher is the slice of transport.Pusher the session layer uses —
// an interface so ordering tests can put a recorder on the wire.
type eventPusher interface {
	Send(kind, seq uint64, topic string, payload []byte) error
	Closed() bool
}

// outEvent is one queued server-push event awaiting transmission by its
// session's sender goroutine.
type outEvent struct {
	kind  uint64
	seq   uint64
	topic string
}

// serverSession is one client session. All fields are guarded by the
// owning sessionMgr's mutex except pusher and dead, which are safe to use
// outside it (the pusher is internally synchronized; dead is only closed
// once, under the mutex, via killLocked).
type serverSession struct {
	id      uint64
	pusher  eventPusher
	expires time.Time
	// seq numbers this session's acknowledged events (evInval/evFlush). It
	// increments under the manager mutex, so the sequence a GetLease
	// snapshot observes and the sequence an invalidation issues are totally
	// ordered.
	seq uint64
	// interest maps each key this session may cache to the number of its
	// latest lease grant (grants counts them).
	interest map[string]uint64
	grants   uint64
	topics   map[string]struct{}
	acks     map[uint64]chan struct{}
	// dead is closed when the session is killed, for any reason. closed
	// is closed only when its client closed it (SessClose) after marking
	// itself dead — the one kill that proves the client stopped serving
	// before its lease ran out, so writers waiting on its acks may stop
	// waiting.
	dead   chan struct{}
	closed chan struct{}
	// outbox holds queued events in seq-assignment order; sendSig (capacity
	// 1) wakes the session's sender goroutine. Events are appended under
	// the manager mutex and drained by that single goroutine, so they reach
	// the wire in exactly seq order. Pushing from the issuing goroutine
	// after releasing the mutex — the obvious alternative — reorders: two
	// concurrent writes could put their events on the wire newest-first,
	// and because acks are cumulative, the ack for the newer sequence would
	// release the older write's waiter while the client still holds the
	// stale entry that write was supposed to revoke.
	outbox  []outEvent
	sendSig chan struct{}
}

// sessionMgr tracks every live session of one Server: who caches which key,
// who watches which topic, and the write fence. One invalidation may be
// outstanding per key per session — interest is dropped at issue time, so a
// later write to the same key finds no interest and pushes nothing until
// the client re-leases the key.
type sessionMgr struct {
	clock simclock.Clock

	mu          sync.Mutex
	ttl         time.Duration
	maxInterest int
	nextID      uint64
	sessions    map[uint64]*serverSession
	byKey       map[string]map[*serverSession]struct{}
	watches     map[string]map[*serverSession]struct{}
	// fence is the instant before which no write may be acknowledged (see
	// Server.FenceWrites). Zero when no fence is active.
	fence time.Time
}

func newSessionMgr(clock simclock.Clock) *sessionMgr {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &sessionMgr{
		clock:       clock,
		ttl:         DefaultSessionTTL,
		maxInterest: defaultMaxInterest,
		sessions:    make(map[uint64]*serverSession),
		byKey:       make(map[string]map[*serverSession]struct{}),
		watches:     make(map[string]map[*serverSession]struct{}),
	}
}

// setTTL changes the lease granted to future keepalives (test/deployment
// tuning; existing sessions adopt the new duration — shrinking their
// serving window if it shortened — on their next keepalive, whose reply
// carries it).
func (m *sessionMgr) setTTL(d time.Duration) {
	m.mu.Lock()
	m.ttl = d
	m.mu.Unlock()
}

// open creates a session bound to the connection behind p and starts its
// sender goroutine (retired when the session dies).
func (m *sessionMgr) open(p eventPusher) (id uint64, ttl time.Duration) {
	m.mu.Lock()
	m.nextID++
	sess := &serverSession{
		id:       m.nextID,
		pusher:   p,
		expires:  m.clock.Now().Add(m.ttl),
		interest: make(map[string]uint64),
		topics:   make(map[string]struct{}),
		acks:     make(map[uint64]chan struct{}),
		dead:     make(chan struct{}),
		closed:   make(chan struct{}),
		sendSig:  make(chan struct{}, 1),
	}
	m.sessions[sess.id] = sess
	ttl = m.ttl
	m.mu.Unlock()
	go m.sender(sess)
	return sess.id, ttl
}

// queueEventLocked appends one event to the session's outbox and wakes its
// sender. Callers hold m.mu, so outbox order is exactly the order sequences
// were assigned — the invariant the cumulative-ack protocol stands on.
func (m *sessionMgr) queueEventLocked(sess *serverSession, kind, seq uint64, topic string) {
	sess.outbox = append(sess.outbox, outEvent{kind: kind, seq: seq, topic: topic})
	select {
	case sess.sendSig <- struct{}{}:
	default: // a wake-up is already pending; the sender re-drains
	}
}

// sender is the session's single transmission goroutine: it drains the
// outbox in FIFO order so events hit the wire in seq order, and kills the
// session on the first failed push (the connection is gone; writers
// waiting on its acks are released through dead).
func (m *sessionMgr) sender(sess *serverSession) {
	for {
		select {
		case <-sess.sendSig:
		case <-sess.dead:
			return
		}
		for {
			m.mu.Lock()
			evs := sess.outbox
			sess.outbox = nil
			m.mu.Unlock()
			if len(evs) == 0 {
				break
			}
			for _, ev := range evs {
				if err := sess.pusher.Send(ev.kind, ev.seq, ev.topic, nil); err != nil {
					m.kill(sess)
					return
				}
			}
		}
	}
}

// liveLocked returns the session if it exists and its lease has not
// expired; an expired or connection-dead session is reaped on sight.
func (m *sessionMgr) liveLocked(id uint64) *serverSession {
	sess := m.sessions[id]
	if sess == nil {
		return nil
	}
	if !sess.expires.After(m.clock.Now()) || sess.pusher.Closed() {
		m.killLocked(sess)
		return nil
	}
	return sess
}

// keepalive extends the session's lease and reports its event sequence for
// the client's lease-advance gate, plus the granted TTL so the client's
// window tracks the server's current setting. processed is the client's
// applied-event watermark and acknowledges cumulatively, exactly like ack.
func (m *sessionMgr) keepalive(id, processed uint64) (eventSeq uint64, ttl time.Duration, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sess := m.liveLocked(id)
	if sess == nil {
		return 0, 0, ErrNoSession
	}
	sess.expires = m.clock.Now().Add(m.ttl)
	for q, ch := range sess.acks {
		if q <= processed {
			close(ch)
			delete(sess.acks, q)
		}
	}
	return sess.seq, m.ttl, nil
}

// close tears the session down at the client's request: interest and
// watches dropped, writers waiting on its acks released (the client marked
// itself dead before asking, so nothing it cached is served any more).
func (m *sessionMgr) close(id uint64) {
	m.mu.Lock()
	if sess := m.sessions[id]; sess != nil {
		m.killLocked(sess)
		close(sess.closed)
	}
	m.mu.Unlock()
}

// killLocked removes the session. Writers waiting on its acknowledgments
// keep waiting for the lease deadline they captured: a session killed
// because its connection died may still be serving its cache on the other
// side, until its own lease runs out.
func (m *sessionMgr) killLocked(sess *serverSession) {
	if _, live := m.sessions[sess.id]; !live {
		return
	}
	delete(m.sessions, sess.id)
	for k := range sess.interest {
		m.dropIndexLocked(m.byKey, k, sess)
	}
	for t := range sess.topics {
		m.dropIndexLocked(m.watches, t, sess)
	}
	close(sess.dead)
}

func (m *sessionMgr) kill(sess *serverSession) {
	m.mu.Lock()
	m.killLocked(sess)
	m.mu.Unlock()
}

func (m *sessionMgr) dropIndexLocked(idx map[string]map[*serverSession]struct{}, key string, sess *serverSession) {
	if set := idx[key]; set != nil {
		delete(set, sess)
		if len(set) == 0 {
			delete(idx, key)
		}
	}
}

// lease registers the session's interest in key and returns the event-
// sequence snapshot the client's install guard needs, plus the grant
// number a later forget must name. It MUST be called before the store read
// it covers: registration and invalidation issue are ordered by the
// manager mutex, so a write applied after the read is guaranteed to find
// the interest (sequence > snapshot), and any event with sequence <=
// snapshot belongs to a write the read already observed.
func (m *sessionMgr) lease(id uint64, key string) (snapshot, grant uint64, noCache bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sess := m.liveLocked(id)
	if sess == nil {
		return 0, 0, false, ErrNoSession
	}
	if _, have := sess.interest[key]; !have {
		if len(sess.interest) >= m.maxInterest {
			return sess.seq, 0, true, nil
		}
		set := m.byKey[key]
		if set == nil {
			set = make(map[*serverSession]struct{})
			m.byKey[key] = set
		}
		set[sess] = struct{}{}
	}
	sess.grants++
	sess.interest[key] = sess.grants
	return sess.seq, sess.grants, false, nil
}

// forget drops the session's interest in key, taken under lease grant
// (client-side eviction, or a lease read that found nothing). Only that
// grant is dropped: a forget is not ordered against a newer lease of the
// same key — the client may evict a copy while another of its reads
// re-leases the key, and the server may see the two in either order — and
// dropping the newer lease's interest would leave its cached copy with
// nobody to invalidate it. The client keeps its install guard, so a forget
// racing an in-flight invalidation is harmless on both sides.
func (m *sessionMgr) forget(id uint64, key string, grant uint64) {
	m.mu.Lock()
	if sess := m.sessions[id]; sess != nil && sess.interest[key] == grant {
		delete(sess.interest, key)
		m.dropIndexLocked(m.byKey, key, sess)
	}
	m.mu.Unlock()
}

// ack acknowledges every outstanding invalidation of the session with
// sequence <= upTo.
func (m *sessionMgr) ack(id, upTo uint64) {
	m.mu.Lock()
	if sess := m.sessions[id]; sess != nil {
		for q, ch := range sess.acks {
			if q <= upTo {
				close(ch)
				delete(sess.acks, q)
			}
		}
	}
	m.mu.Unlock()
}

// watch registers (or, with on=false, removes) the session's interest in
// lossy change notifications on topic.
func (m *sessionMgr) watch(id uint64, topic string, on bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	sess := m.liveLocked(id)
	if sess == nil {
		return ErrNoSession
	}
	if !on {
		delete(sess.topics, topic)
		m.dropIndexLocked(m.watches, topic, sess)
		return nil
	}
	sess.topics[topic] = struct{}{}
	set := m.watches[topic]
	if set == nil {
		set = make(map[*serverSession]struct{})
		m.watches[topic] = set
	}
	set[sess] = struct{}{}
	return nil
}

// pendingAck is one issued invalidation awaiting its client ack.
type pendingAck struct {
	sess *serverSession
	seq  uint64
	// deadline is the session's lease end captured at issue time. Later
	// keepalives never extend the wait: the client's own lease anchor is at
	// or before the server's, so once deadline passes the client has
	// provably stopped serving the revoked entry.
	deadline time.Time
	ch       chan struct{}
}

// invalidate revokes key from every session caching it and blocks until
// each has acknowledged or provably expired — the write that triggered it
// must not be acknowledged before cached copies are gone. Interest is
// dropped at issue, so at most one invalidation per key per session is ever
// outstanding. Watchers of the key get a (non-blocking) notification.
func (m *sessionMgr) invalidate(key string) {
	m.mu.Lock()
	var pend []pendingAck
	if set := m.byKey[key]; len(set) > 0 {
		now := m.clock.Now()
		for sess := range set {
			delete(sess.interest, key)
			if m.reapLocked(sess, now, &pend) {
				continue
			}
			sess.seq++
			ch := make(chan struct{})
			sess.acks[sess.seq] = ch
			pend = append(pend, pendingAck{sess: sess, seq: sess.seq, deadline: sess.expires, ch: ch})
			m.queueEventLocked(sess, evInval, sess.seq, key)
		}
		delete(m.byKey, key)
	}
	for _, sess := range m.watchersLocked(key) {
		m.queueEventLocked(sess, evNotify, 0, key)
	}
	m.mu.Unlock()
	m.await(pend)
}

// flushAll revokes every cached entry of every session and waits for the
// acks — the coherence hammer membership changes swing: after a view
// change, lock migration, or rebalance, no pre-change cache entry survives.
func (m *sessionMgr) flushAll() {
	m.mu.Lock()
	var pend []pendingAck
	now := m.clock.Now()
	for _, sess := range m.sessions {
		if m.reapLocked(sess, now, &pend) {
			continue
		}
		for k := range sess.interest {
			m.dropIndexLocked(m.byKey, k, sess)
		}
		sess.interest = make(map[string]uint64)
		sess.seq++
		ch := make(chan struct{})
		sess.acks[sess.seq] = ch
		pend = append(pend, pendingAck{sess: sess, seq: sess.seq, deadline: sess.expires, ch: ch})
		m.queueEventLocked(sess, evFlush, sess.seq, "")
	}
	m.mu.Unlock()
	m.await(pend)
}

// reapLocked kills a session an invalidation cannot reach — lease lapsed,
// or connection gone — and reports whether it did. A lapsed session has
// stopped serving. One whose connection died may not know it yet and keep
// serving its cache until its own lease runs out, so the invalidation
// still waits for that deadline (an ack-less pending entry).
func (m *sessionMgr) reapLocked(sess *serverSession, now time.Time, pend *[]pendingAck) bool {
	if !sess.expires.After(now) {
		m.killLocked(sess)
		return true
	}
	if sess.pusher.Closed() {
		m.killLocked(sess)
		*pend = append(*pend, pendingAck{sess: sess, deadline: sess.expires})
		return true
	}
	return false
}

// await blocks until every pending invalidation is acknowledged, its
// session is closed by its client, or its lease deadline passes. Whichever
// fires, the entry under revocation is provably no longer served — past
// the deadline the client either never processed the event (then its own
// lease, anchored at or before ours, has ended) or processed it (the
// keepalive gate admits no other renewal), so the entry is gone from its
// cache either way. A session killed for any other reason (its connection
// died) is waited out like an unresponsive one: its client may not know.
func (m *sessionMgr) await(pend []pendingAck) {
	for _, p := range pend {
		d := p.deadline.Sub(m.clock.Now())
		if d < 0 {
			d = 0
		}
		select {
		case <-p.ch: // nil for a session already reaped: never fires
		case <-p.sess.closed:
		case <-m.clock.After(d):
			m.resolveOverdue(p)
		}
	}
}

// resolveOverdue settles an invalidation whose ack missed the lease
// deadline captured at issue. The session is killed ONLY if its lease
// really lapsed: a renewal since issue passes the client's EventSeq gate
// only after this event was applied, so the entry is already dropped and
// merely the ack is slow or lost — killing such a session would silently
// drop its other interests while the client, holding a valid lease, keeps
// serving them with nobody left to invalidate (a coherence hole, not a
// cleanup).
func (m *sessionMgr) resolveOverdue(p pendingAck) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, live := m.sessions[p.sess.id]; !live {
		return
	}
	if p.sess.expires.After(m.clock.Now()) {
		delete(p.sess.acks, p.seq)
		return
	}
	m.killLocked(p.sess)
}

// watchersLocked snapshots the sessions watching topic.
func (m *sessionMgr) watchersLocked(topic string) []*serverSession {
	set := m.watches[topic]
	if len(set) == 0 {
		return nil
	}
	out := make([]*serverSession, 0, len(set))
	for sess := range set {
		out = append(out, sess)
	}
	return out
}

// notify pushes a lossy change notification to every watcher of topic.
func (m *sessionMgr) notify(topic string) {
	m.mu.Lock()
	for _, sess := range m.watchersLocked(topic) {
		m.queueEventLocked(sess, evNotify, 0, topic)
	}
	m.mu.Unlock()
}

// fenceWrites forbids write acknowledgments before until (monotone: an
// earlier fence never shortens a later one).
func (m *sessionMgr) fenceWrites(until time.Time) {
	m.mu.Lock()
	if until.After(m.fence) {
		m.fence = until
	}
	m.mu.Unlock()
}

// barrier delays the calling write handler until any active fence has
// passed. The write is already applied (and replicated) when the barrier
// runs — only its acknowledgment waits, so a reader can observe the new
// value early but no writer can claim success while a dead primary's
// leases might still be serving the old one.
func (m *sessionMgr) barrier() {
	m.mu.Lock()
	until := m.fence
	m.mu.Unlock()
	if d := until.Sub(m.clock.Now()); d > 0 {
		m.clock.Sleep(d)
	}
}

// closeAll kills every session (server shutdown), releasing any writer
// still waiting on an acknowledgment.
func (m *sessionMgr) closeAll() {
	m.mu.Lock()
	for _, sess := range m.sessions {
		m.killLocked(sess)
	}
	m.mu.Unlock()
}

// Test hooks (in-package tests only).

// sessionCount reports the number of live sessions.
func (m *sessionMgr) sessionCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sessions)
}

// interestCount reports how many sessions hold a lease on key.
func (m *sessionMgr) interestCount(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.byKey[key])
}
