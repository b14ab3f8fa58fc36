package kvstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/route"
	"elasticrmi/internal/simclock"
	"elasticrmi/internal/transport"
)

// ServiceName is the transport service name of the key-value store.
const ServiceName = "kv"

//go:generate go run elasticrmi/cmd/ermi-gen -in server.go,store.go,session.go -out codec_ermi.go

// Wire messages. Every op has a request and reply struct; errors travel as
// string codes so clients can re-map them to the exported sentinel errors.
//
// Every message is //ermi:codec-marked and travels in the generated binary
// encoding, with values ([]byte) decoding server-side as zero-copy views
// into the transport frame; nothing in this package goes through gob.
//
//ermi:codec
type (
	getReq   struct{ Key string }
	getReply struct{ Val Versioned }
	putReq   struct {
		Key string
		Val []byte
	}
	putReply struct{ Version uint64 }
	delReq   struct{ Key string }
	delReply struct{}
	casReq   struct {
		Key           string
		Val           []byte
		ExpectVersion uint64
	}
	casReply struct {
		Version uint64
		Current Versioned
	}
	addReq struct {
		Key   string
		Delta int64
	}
	addReply  struct{ Value int64 }
	keysReq   struct{ Prefix string }
	keysReply struct{ Keys []string }
	lockReq   struct {
		Name  string
		Owner string
		Lease time.Duration
	}
	lockReply struct{}
	unlockReq struct {
		Name  string
		Owner string
	}
	unlockReply struct{}
)

// Bulk migration and replication messages. They carry LockInfo, whose
// absolute time.Time expiry the codec encodes as unix-nanoseconds. replReq
// is on the per-write hot path: every replicated write sends one.
//
//ermi:codec
type (
	exportReq   struct{ Prefix string }
	exportReply struct{ Entries map[string]Versioned }
	importReq   struct{ Entries map[string]Versioned }
	importReply struct{}
	// exportLocksReq/importLocksReq migrate the lock table alongside the
	// data; replReq carries primary→backup write deltas and rebalance
	// cleanup directives.
	exportLocksReq   struct{ Prefix string }
	exportLocksReply struct{ Locks map[string]LockInfo }
	importLocksReq   struct{ Locks map[string]LockInfo }
	importLocksReply struct{}
	replReq          struct {
		Entries map[string]Versioned // write deltas: live values and deletion tombstones
		Locks   map[string]LockInfo
		// Dels/LockDrops hard-remove state (history included) from a node
		// leaving a shard's replica set — rebalance cleanup only, never a
		// client-visible delete (those travel as tombstoned Entries).
		Dels      []string
		LockDrops []string
	}
	replReply struct{}
)

// lockRouteKey is the routing key of a named lock: locks shard (and
// replicate) over the same ring as data, under a reserved prefix.
func lockRouteKey(name string) string { return "lock/" + name }

// Error codes used on the wire.
const (
	codeNotFound     = "NOT_FOUND"
	codeCASMismatch  = "CAS_MISMATCH"
	codeLockHeld     = "LOCK_HELD"
	codeNotLockOwner = "NOT_LOCK_OWNER"
	codeNoSession    = "NO_SESSION"
	codeWrongOwner   = "WRONG_OWNER"
)

func wireError(err error) error {
	switch {
	case errors.Is(err, ErrNotFound):
		return errors.New(codeNotFound)
	case errors.Is(err, ErrCASMismatch):
		return errors.New(codeCASMismatch)
	case errors.Is(err, ErrLockHeld):
		return errors.New(codeLockHeld)
	case errors.Is(err, ErrNotLockOwner):
		return errors.New(codeNotLockOwner)
	case errors.Is(err, ErrNoSession):
		return errors.New(codeNoSession)
	case errors.Is(err, ErrWrongOwner):
		return errors.New(codeWrongOwner)
	default:
		return err
	}
}

func unwireError(err error) error {
	var remote *transport.RemoteError
	if !errors.As(err, &remote) {
		return err
	}
	switch remote.Msg {
	case codeNotFound:
		return ErrNotFound
	case codeCASMismatch:
		return ErrCASMismatch
	case codeLockHeld:
		return ErrLockHeld
	case codeNotLockOwner:
		return ErrNotLockOwner
	case codeNoSession:
		return ErrNoSession
	case codeWrongOwner:
		return ErrWrongOwner
	default:
		return err
	}
}

// replStripes is the number of per-key ordering stripes. A stripe mutex is
// held across local apply, log append, backup forward and both durability
// waits of each write, so the log records and the replication deltas of
// one key are in apply order and a backup applies them in that order (two
// stripes never conflict semantically — a collision just serializes two
// unrelated keys).
const replStripes = 64

// replicateTimeout bounds one primary→backup forward. It is deliberately
// much shorter than the client call timeout: a hung backup costs writers
// one bounded stall before it is marked suspect, not a stall per write.
const replicateTimeout = 2 * time.Second

// Server exposes a Store over the transport protocol. When a cluster view
// is installed (SetView) the server is replication-aware: it is the
// primary for the keys whose replica set it heads and synchronously
// forwards every local write's resulting state to the key's backups
// before acknowledging.
type Server struct {
	store    *Store
	srv      *transport.Server
	sessions *sessionMgr
	self     string // listen address

	// view is the installed replication view. The write path and GetLease
	// read it with one atomic load; installs publish a whole new view.
	view atomic.Pointer[replView]
	// viewMu serializes view installs against each other and against
	// Close/Crash. No per-operation path takes it.
	viewMu sync.Mutex
	closed bool // under viewMu: no view may be installed any more

	// suspectMu guards the backups that failed a forward (skipped until the
	// next view install) and the failure callback.
	suspectMu sync.Mutex
	suspects  map[string]bool
	// onReplFailure, when set, is invoked (asynchronously, once per
	// suspicion transition) with the address of a backup that failed a
	// forward. The cluster router uses it to close the replication loop:
	// probe the accused node, then either fail it over (dead) or reinstall
	// the view and re-sync the writes it missed (transient) — without it a
	// suspect backup would silently degrade R until the next membership
	// change.
	onReplFailure func(addr string)

	forwards    atomic.Uint64 // successful backup forwards
	forwardErrs atomic.Uint64 // forwards lost to suspect/failed backups

	stripes [replStripes]sync.Mutex
}

// replView is one installed cluster view. It is immutable once published:
// an install (or the links dialed after it) swaps in a new one.
type replView struct {
	rf      int
	ring    *route.Ring // nil without a multi-member view: this node owns all it holds
	members []route.Member
	links   map[string]*Client // replication clients by member addr
}

// OnReplFailure installs the replication-failure callback. Call before the
// server participates in a replicated view.
func (s *Server) OnReplFailure(fn func(addr string)) {
	s.suspectMu.Lock()
	s.onReplFailure = fn
	s.suspectMu.Unlock()
}

// NewServer starts an in-memory store server on addr (":0" for any free
// port).
func NewServer(addr string, clock simclock.Clock) (*Server, error) {
	return NewServerDur(addr, clock, DurOptions{})
}

// NewServerDur starts a store server whose engine is durable under
// opts.Dir (recovering existing state there first); with opts.Dir == ""
// it is NewServer.
func NewServerDur(addr string, clock simclock.Clock, opts DurOptions) (*Server, error) {
	return newServer(addr, clock, opts, transport.ServerOptions{})
}

// newServer is NewServerDur with transport tuning (tests shrink the worker
// pool); the session control plane always rides the express lane.
func newServer(addr string, clock simclock.Clock, opts DurOptions, topts transport.ServerOptions) (*Server, error) {
	store, err := NewStoreDur(clock, opts)
	if err != nil {
		return nil, fmt.Errorf("kvstore server: %w", err)
	}
	s := &Server{store: store, sessions: newSessionMgr(clock)}
	topts.Express = sessionControlExpress
	srv, err := transport.ServeOpts(addr, s.handle, topts)
	if err != nil {
		store.Close()
		return nil, fmt.Errorf("kvstore server: %w", err)
	}
	s.srv = srv
	s.self = srv.Addr()
	return s, nil
}

// sessionControlExpress puts the session control plane (keepalives,
// invalidation acks, interest drops, teardown) on the transport's express
// lane, outside the bounded worker pool. Write handlers park IN that pool
// waiting for exactly these calls: admitted through the same pool, a burst
// of writes blocked in invalidate could occupy every worker and shed the
// acks that would release them — each write would then degrade to a full
// lease-deadline wait, and keepalives shed past their retry budget would
// kill healthy sessions. All four handlers are sub-microsecond map updates
// that never block, as the lane requires.
func sessionControlExpress(service, method string) bool {
	if service != ServiceName {
		return false
	}
	switch method {
	case "SessKeep", "SessAck", "SessForget", "SessClose":
		return true
	}
	return false
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.self }

// Store exposes the underlying engine (used in tests and by migration).
func (s *Server) Store() *Store { return s.store }

// Close cleanly shuts the server down: stops the transport, releases the
// replication links, and flushes the store's durability layer.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.sessions.closeAll()
	s.dropView()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// dropView retires the replication view for good and closes its links.
func (s *Server) dropView() {
	s.viewMu.Lock()
	s.closed = true
	v := s.view.Swap(nil)
	s.viewMu.Unlock()
	if v != nil {
		for _, cli := range v.links {
			cli.Close()
		}
	}
}

// Crash kills the server as a power cut would: the transport dies first,
// then the store's log is abandoned with buffered records unflushed. The
// ordering matters — once the transport is down no new ack can escape, so
// every reply a client DID receive had already passed its fsync point and
// survives recovery.
func (s *Server) Crash() error {
	err := s.srv.Close()
	s.sessions.closeAll()
	s.dropView()
	if cerr := s.store.Crash(); err == nil {
		err = cerr
	}
	return err
}

// SetView installs the cluster's routing view on this node: the member
// table, the replication factor, and dialed links to the peers this node
// may need to forward to. The cluster router calls it on every membership
// change; installing a view clears backup suspicions (a repaired view is
// the signal a formerly failed peer is gone or healthy again). A server
// without a view (or with rf <= 1) replicates nothing.
//
// Installing a view also flushes every client session cache and waits for
// the acknowledgments: ownership may have moved (failover, lock migration,
// rebalance), so no cache entry granted under the old view may survive into
// the new one. The flush is bounded by the session lease — an unresponsive
// caching client delays a membership change by at most one TTL before its
// session is killed.
func (s *Server) SetView(t route.Table, rf int) {
	s.installView(t, rf)
	s.sessions.flushAll()
}

func (s *Server) installView(t route.Table, rf int) {
	// The ring is built for any multi-member view — even unreplicated ones,
	// where forward() ignores it — because isPrimary needs it: a lease
	// granted by a non-owner (stale client routing) would never be
	// invalidated by the key's writes.
	var ring *route.Ring
	if rf > 1 || len(t.Members) > 1 {
		ring = route.BuildRing(t)
	}
	member := make(map[string]bool, len(t.Members))
	for _, m := range t.Members {
		member[m.Addr] = true
	}
	s.viewMu.Lock()
	if s.closed {
		s.viewMu.Unlock()
		return
	}
	// Keep the links to members that stay; collect the peers that still
	// need one. The dials happen after the unlock, so one unreachable new
	// member cannot stall a concurrent install (or Close) for a full dial
	// timeout.
	links := make(map[string]*Client, len(t.Members))
	var stale []*Client
	if old := s.view.Load(); old != nil {
		for addr, cli := range old.links {
			if member[addr] {
				links[addr] = cli
			} else {
				stale = append(stale, cli)
			}
		}
	}
	var missing []string
	if rf > 1 {
		for _, m := range t.Members {
			if m.Addr != s.self && links[m.Addr] == nil {
				missing = append(missing, m.Addr)
			}
		}
	}
	s.view.Store(&replView{rf: rf, ring: ring, members: t.Members, links: links})
	s.suspectMu.Lock()
	s.suspects = make(map[string]bool)
	s.suspectMu.Unlock()
	s.viewMu.Unlock()

	for _, cli := range stale {
		cli.Close()
	}
	if len(missing) == 0 {
		return
	}
	dialed := make(map[string]*Client, len(missing))
	var failed []string
	for _, addr := range missing {
		if cli, err := NewClient(addr); err == nil {
			dialed[addr] = cli
		} else {
			failed = append(failed, addr)
		}
	}
	// Re-acquire to publish the links. A concurrent installView (or Close)
	// may have superseded this view while dialing, so every link is
	// re-validated against the view now present. Superseded dials are only
	// collected here and closed after the unlock: Close waits for the
	// connection's reader to drain.
	s.viewMu.Lock()
	cur := s.view.Load()
	current := make(map[string]bool)
	var next replView
	if cur != nil {
		if cur.rf > 1 {
			for _, m := range cur.members {
				current[m.Addr] = true
			}
		}
		next = *cur
		next.links = maps.Clone(cur.links)
	}
	var discard []*Client
	for addr, cli := range dialed {
		if current[addr] && next.links[addr] == nil {
			next.links[addr] = cli
		} else {
			discard = append(discard, cli)
		}
	}
	if cur != nil {
		s.view.Store(&next)
	}
	s.suspectMu.Lock()
	for _, addr := range failed {
		if current[addr] {
			s.suspects[addr] = true
		}
	}
	s.suspectMu.Unlock()
	s.viewMu.Unlock()
	for _, cli := range discard {
		cli.Close()
	}
}

// ReplStats reports cumulative backup forwards and forward failures.
func (s *Server) ReplStats() (forwards, failures uint64) {
	return s.forwards.Load(), s.forwardErrs.Load()
}

// SetSessionTTL changes the lease granted to session keepalives (existing
// sessions converge on their next keepalive). Deployment/test tuning; the
// default is DefaultSessionTTL.
func (s *Server) SetSessionTTL(d time.Duration) { s.sessions.setTTL(d) }

// FenceWrites forbids this node from acknowledging any write before until.
// The cluster router fences the survivors of a primary crash for one
// session TTL: a backup promoted over a dead primary must not confirm a
// conflicting write while the dead node's lease grants — which it cannot
// invalidate — may still be serving cached reads. Writes are applied and
// replicated immediately; only their acknowledgment waits.
func (s *Server) FenceWrites(until time.Time) { s.sessions.fenceWrites(until) }

// isPrimary reports whether this node heads the replica set of routeKey
// under its installed view. Servers without a view (single node, or rf <=
// 1 where no ring is installed) own everything they hold.
func (s *Server) isPrimary(routeKey string) bool {
	v := s.view.Load()
	if v == nil || v.ring == nil {
		return true
	}
	idx := v.ring.Owner(routeKey)
	return idx >= 0 && idx < len(v.members) && v.members[idx].Addr == s.self
}

// stripeFor locks the ordering stripe of routeKey and returns its unlock.
func (s *Server) stripeFor(routeKey string) func() {
	h := fnv.New32a()
	h.Write([]byte(routeKey))
	m := &s.stripes[h.Sum32()%replStripes]
	m.Lock()
	return m.Unlock
}

// write is the path every mutating method takes. Under routeKey's ordering
// stripe, apply mutates the local store and appends the mutation's log
// records; the resulting state then goes to the backups while the local
// log commits, so the two fsyncs overlap instead of adding up. apply
// returns the delta to forward (nil when nothing changed) and the log
// position to wait for, or the operation's error (nothing applied, nothing
// forwarded, and write returns it).
//
// Once the write is durable on this node and on every non-suspect backup,
// cached copies are revoked — key invalidation, or for a lock transition
// a notification of its watchers (notify != "") — and any write fence is
// respected. Only then may the caller acknowledge.
func (s *Server) write(routeKey, notify string, apply func() (*replReq, logPos, error)) error {
	unlock := s.stripeFor(routeKey)
	delta, pos, err := apply()
	if err != nil {
		unlock()
		return err
	}
	fwd := s.forward(routeKey, delta)
	s.store.durWait(pos)
	s.awaitForward(fwd)
	unlock()
	if notify != "" {
		s.sessions.notify(notify)
	} else {
		s.sessions.invalidate(routeKey)
	}
	s.sessions.barrier()
	return nil
}

// backupForward is one in-flight primary→backup delta.
type backupForward struct {
	addr string
	call *transport.Call
}

// forwardBatch is the forwards of one write: every call carries the same
// encoded delta, released once all of them completed.
type forwardBatch struct {
	payload []byte
	calls   []backupForward
}

// forward starts replicating delta to the non-suspect backups of routeKey.
// It runs under routeKey's stripe, so the requests leave in apply order;
// awaitForward collects the replies.
func (s *Server) forward(routeKey string, delta *replReq) forwardBatch {
	var fb forwardBatch
	v := s.view.Load()
	if delta == nil || v == nil || v.ring == nil || v.rf <= 1 {
		return fb
	}
	for _, idx := range v.ring.Owners(routeKey, v.rf) {
		addr := v.members[idx].Addr
		cli := v.links[addr]
		if addr == s.self || cli == nil || s.suspect(addr) {
			continue
		}
		if fb.payload == nil {
			fb.payload = transport.MustEncode(delta)
		}
		fb.calls = append(fb.calls, backupForward{addr: addr, call: cli.goReplicate(fb.payload)})
	}
	return fb
}

// awaitForward waits for every forward of fb. A backup that fails one is
// marked suspect and skipped until the next view install — the write is
// still acknowledged (availability over strict R; the router's next repair
// restores the replica). Each wait is bounded by replicateTimeout, much
// shorter than the client call timeout: a hung backup costs writers one
// bounded stall before it is marked suspect, not a stall per write.
func (s *Server) awaitForward(fb forwardBatch) {
	for _, f := range fb.calls {
		out, err := f.call.Wait(replicateTimeout)
		if err != nil {
			s.forwardErrs.Add(1)
			s.markSuspect(f.addr)
			continue
		}
		transport.ReleasePayload(out)
		s.forwards.Add(1)
	}
	transport.ReleasePayload(fb.payload)
}

func (s *Server) suspect(addr string) bool {
	s.suspectMu.Lock()
	defer s.suspectMu.Unlock()
	return s.suspects[addr]
}

// markSuspect records a failed forward to addr and, on the transition,
// hands the address to the failure callback.
func (s *Server) markSuspect(addr string) {
	s.suspectMu.Lock()
	newly := s.suspects != nil && !s.suspects[addr]
	if newly {
		s.suspects[addr] = true
	}
	hook := s.onReplFailure
	s.suspectMu.Unlock()
	if newly && hook != nil {
		// Asynchronous: the stripe is held and the repair needs the
		// cluster's membership gate.
		go hook(addr)
	}
}

// entryDelta is the replication delta of one data key's new state.
func entryDelta(key string, v Versioned) *replReq {
	return &replReq{Entries: map[string]Versioned{key: v}}
}

// lockDelta is the replication delta of one lock's new state.
func lockDelta(name string, info LockInfo) *replReq {
	return &replReq{Locks: map[string]LockInfo{name: info}}
}

// handleWrite decodes one mutating request, runs it through write and
// returns the reply to encode. Values in payload are views into the request
// frame: they are copied into the store and encoded into the forward before
// handleWrite returns.
func (s *Server) handleWrite(method string, payload []byte) (interface{}, error) {
	var (
		routeKey, notify string
		apply            func() (*replReq, logPos, error)
		reply            interface{}
	)
	switch method {
	case "Put":
		var r putReq
		if err := transport.Decode(payload, &r); err != nil {
			return nil, err
		}
		rep := &putReply{}
		routeKey, reply = r.Key, rep
		apply = func() (*replReq, logPos, error) {
			ver, pos := s.store.put(r.Key, r.Val)
			rep.Version = ver
			return entryDelta(r.Key, Versioned{Value: r.Val, Version: ver}), pos, nil
		}
	case "Delete":
		var r delReq
		if err := transport.Decode(payload, &r); err != nil {
			return nil, err
		}
		routeKey, reply = r.Key, &delReply{}
		apply = func() (*replReq, logPos, error) {
			tomb, ok, pos := s.store.deleteV(r.Key)
			if !ok {
				return nil, 0, nil
			}
			return entryDelta(r.Key, tomb), pos, nil
		}
	case "CAS":
		var r casReq
		if err := transport.Decode(payload, &r); err != nil {
			return nil, err
		}
		rep := &casReply{}
		routeKey, reply = r.Key, rep
		apply = func() (*replReq, logPos, error) {
			ver, _, pos, err := s.store.compareAndSwap(r.Key, r.Val, r.ExpectVersion)
			if err != nil {
				return nil, 0, err
			}
			rep.Version = ver
			return entryDelta(r.Key, Versioned{Value: r.Val, Version: ver}), pos, nil
		}
	case "Add":
		var r addReq
		if err := transport.Decode(payload, &r); err != nil {
			return nil, err
		}
		rep := &addReply{}
		routeKey, reply = r.Key, rep
		apply = func() (*replReq, logPos, error) {
			v, cur, pos, err := s.store.addInt64(r.Key, r.Delta)
			if err != nil {
				return nil, 0, err
			}
			rep.Value = v
			return entryDelta(r.Key, cur), pos, nil
		}
	case "TryLock":
		var r lockReq
		if err := transport.Decode(payload, &r); err != nil {
			return nil, err
		}
		routeKey, notify, reply = lockRouteKey(r.Name), lockWatchTopic(r.Name), &lockReply{}
		apply = func() (*replReq, logPos, error) {
			info, pos, err := s.store.tryLock(r.Name, r.Owner, r.Lease)
			if err != nil {
				return nil, 0, err
			}
			return lockDelta(r.Name, info), pos, nil
		}
	case "Unlock":
		var r unlockReq
		if err := transport.Decode(payload, &r); err != nil {
			return nil, err
		}
		routeKey, notify, reply = lockRouteKey(r.Name), lockWatchTopic(r.Name), &unlockReply{}
		apply = func() (*replReq, logPos, error) {
			info, pos, err := s.store.unlock(r.Name, r.Owner)
			if err != nil {
				return nil, 0, err
			}
			return lockDelta(r.Name, info), pos, nil
		}
	default:
		return nil, fmt.Errorf("unknown write method %q", method)
	}
	if err := s.write(routeKey, notify, apply); err != nil {
		return nil, wireError(err)
	}
	return reply, nil
}

func (s *Server) handle(req *transport.Request) ([]byte, error) {
	if req.Service != ServiceName {
		return nil, fmt.Errorf("unknown service %q", req.Service)
	}
	// Every successful reply below is transport.Encode output the handler
	// hands over outright: the server returns it to the payload arena once
	// the response frame is written. (Error returns carry a nil payload, for
	// which the release is a no-op.)
	req.ReleaseReply = true
	switch req.Method {
	case "Get":
		var r getReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		v, err := s.store.Get(r.Key)
		if err != nil {
			return nil, wireError(err)
		}
		return transport.Encode(&getReply{Val: v})
	case "Put", "Delete", "CAS", "Add", "TryLock", "Unlock":
		//ermi:ignore budgetprop replication deliberately runs under its own replicateTimeout: the write is already applied locally, and backup health must not depend on the caller's remaining budget
		reply, err := s.handleWrite(req.Method, req.Payload)
		if err != nil {
			return nil, err
		}
		return transport.Encode(reply)
	case "Keys":
		var r keysReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		return transport.Encode(&keysReply{Keys: s.store.Keys(r.Prefix)})
	case "SessOpen":
		var r sessOpenReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		p := req.Pusher()
		if p == nil {
			return nil, errors.New("sessions require a pushable connection")
		}
		id, ttl := s.sessions.open(p)
		return transport.Encode(&sessOpenReply{ID: id, TTL: ttl})
	case "SessKeep":
		var r sessKeepReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		seq, ttl, err := s.sessions.keepalive(r.ID, r.Processed)
		if err != nil {
			return nil, wireError(err)
		}
		return transport.Encode(&sessKeepReply{EventSeq: seq, TTL: ttl})
	case "SessClose":
		var r sessCloseReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		s.sessions.close(r.ID)
		return transport.Encode(&sessCloseReply{})
	case "GetLease":
		var r leaseReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		if !s.isPrimary(r.Key) {
			return nil, wireError(ErrWrongOwner)
		}
		// Interest registration (and its sequence snapshot) precedes the
		// read: a write applied after the read is then guaranteed to find
		// the interest and carry a sequence above the snapshot, so the
		// client's install guard can tell "already reflected in this value"
		// from "revokes this value".
		snap, grant, noCache, err := s.sessions.lease(r.ID, r.Key)
		if err != nil {
			return nil, wireError(err)
		}
		v, err := s.store.Get(r.Key)
		if err != nil {
			if !noCache {
				s.sessions.forget(r.ID, r.Key, grant)
			}
			return nil, wireError(err)
		}
		return transport.Encode(&leaseReply{Val: v, Snapshot: snap, NoCache: noCache, Grant: grant})
	case "SessAck":
		var r sessAckReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		s.sessions.ack(r.ID, r.Seq)
		return transport.Encode(&sessAckReply{})
	case "SessForget":
		var r sessForgetReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		s.sessions.forget(r.ID, r.Key, r.Grant)
		return transport.Encode(&sessForgetReply{})
	case "SessWatch", "SessUnwatch":
		var r sessWatchReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		if err := s.sessions.watch(r.ID, r.Topic, req.Method == "SessWatch"); err != nil {
			return nil, wireError(err)
		}
		return transport.Encode(&sessWatchReply{})
	case "Export":
		var r exportReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		entries := s.store.Export(func(k string) bool {
			return r.Prefix == "" || len(k) >= len(r.Prefix) && k[:len(r.Prefix)] == r.Prefix
		})
		return transport.Encode(&exportReply{Entries: entries})
	case "Import":
		// Bulk install during migration/repair. Applied directly, never
		// re-forwarded: membership changes run under the cluster's write
		// gate and the router writes every replica itself.
		var r importReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		s.store.Import(r.Entries)
		return transport.Encode(&importReply{})
	case "ExportLocks":
		var r exportLocksReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		locks := s.store.ExportLocks(func(name string) bool {
			return r.Prefix == "" || len(name) >= len(r.Prefix) && name[:len(r.Prefix)] == r.Prefix
		})
		return transport.Encode(&exportLocksReply{Locks: locks})
	case "ImportLocks":
		var r importLocksReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		s.store.ImportLocks(r.Locks)
		return transport.Encode(&importLocksReply{})
	case "Replicate":
		// Primary→backup delta. Applied directly, never re-forwarded.
		var r replReq
		if err := transport.Decode(req.Payload, &r); err != nil {
			return nil, err
		}
		pos := max(s.store.importEntries(r.Entries), s.store.drop(r.Dels),
			s.store.importLocks(r.Locks), s.store.dropLocks(r.LockDrops))
		s.store.durWait(pos)
		return transport.Encode(&replReply{})
	default:
		return nil, fmt.Errorf("unknown method %q", req.Method)
	}
}
