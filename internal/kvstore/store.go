// Package kvstore implements the strongly consistent in-memory key-value
// store that ElasticRMI uses for the shared state of elastic object pools
// (the role HyperDex plays in the paper, §2.2/§4.1).
//
// The package provides the storage engine (Store), a network server exposing
// it over the transport protocol (Server), a client (Client), and a sharded,
// replicated multi-node deployment with online node addition and removal
// (Cluster) — the paper's runtime "may add additional nodes to HyperDex as
// necessary" (§4.2), and HyperDex itself replicates for fault tolerance.
//
// Consistency model: every key (and every lock name) has a replica set of R
// nodes — the first R distinct successors of its hash on the routing ring
// (internal/route.Ring.Owners), where R is the cluster's replication
// factor. The first replica is the key's primary: all client operations are
// routed to it, it serializes operations per key, and it synchronously
// forwards the resulting state (value+version, or lock lease) to the
// backups before acknowledging, so reads observe the latest completed write
// and every acknowledged write exists on every reachable replica. Named
// locks with leases implement the per-class mutual exclusion that the
// preprocessor emits for synchronized methods (Fig. 6); lock state is
// replicated and migrated exactly like data, so a lease held across a
// failover, an AddNode or a RemoveNode is still held by the same owner
// afterwards — a second acquirer keeps getting ErrLockHeld until the lease
// expires or the owner unlocks.
//
// Departures come in two flavors. Planned (Cluster.RemoveNode): the
// departing node's shards are handed off — exported with versions and
// unexpired lock leases intact — before the node leaves the ring, so
// nothing is lost even at R=1. Unplanned (crash): the router classifies the
// failed operation, drops the dead node from the ring, promotes the next
// replica of each affected key to primary, and re-replicates survivors'
// state to restore R; with R>=2 no acknowledged write and no held lock is
// lost, and operations retry transparently (bounded, surfacing
// ErrUnavailable only when every replica of a key is gone).
//
// # Sessions and client caching
//
// A client may open a Session (or a ClusterSession spanning all shards):
// reads then install lease-stamped entries in a bounded local cache, and
// repeated reads of an unchanged key cost no round trip. Coherence is
// server-pushed, Chubby-style: before acknowledging any conflicting write
// (Put/Delete/CAS/AddInt64, or a lock transition for watched locks), the
// key's primary pushes an invalidation event to every session holding that
// key and waits for the acks — so by the time a writer's ack returns, no
// live cache anywhere still holds the old value. A session that does not
// ack within its lease is killed instead of waited on forever, which bounds
// write latency at one session TTL in the worst case.
//
// The lease is session-wide and renewed by keepalives. The client anchors
// each lease extension at the time it SENT the keepalive on its own clock,
// which is necessarily earlier than the server's receipt anchor — so the
// client always expires its cache before the server believes the session
// could still be serving it, and clock skew can only shorten the effective
// lease, never stretch it. A keepalive advances the lease only if the
// client has already processed every invalidation the server had issued at
// reply time (the EventSeq gate), closing the race where a renewal
// overtakes an in-flight invalidation. Each keepalive reply also carries
// the server's current session TTL and the client adopts it: a shrunken
// window takes effect immediately (unconditionally pulling the lease in),
// so lowering the TTL mid-flight (SetSessionTTL) never leaves a client
// whose lease outruns the server's. Install is snapshot-guarded: the
// server registers interest and snapshots its event sequence before the
// read, and the client installs the entry only if no invalidation at or
// below that snapshot touched the key — a write that raced the read can
// never leave a stale entry behind.
//
// Failures: when a node crashes, the leases it granted cannot be revoked,
// so the cluster fences — survivors delay conflicting write acks until one
// full session TTL has passed since the failure, by which point every
// orphaned cache entry has expired on its own clock. View changes
// (AddNode/RemoveNode/failover promotion) flush all session caches, since
// key ownership may have moved. One documented hole remains: a
// whole-cluster halt and disk restart (Halt + NewDurable) within a single
// TTL restores no fence, so a client of the previous generation could in
// principle serve one cached read against a write acked by the rebooted
// cluster; restart paths that care should wait one TTL before accepting
// writes.
//
// # Durability contract
//
// A store created with NewStoreDur additionally writes every mutation to a
// write-ahead log (internal/wal) before it is acknowledged: when a mutating
// method returns, the mutation's log record is fsynced — so an ack a
// client observes implies the write survives a power cut of the whole
// node. With DurOptions.GroupCommit the fsync is amortized: concurrently
// admitted mutations share one fsync (the group-commit window is exactly
// the set of records buffered while the previous fsync was in flight), so
// each still returns only after ITS record is durable, but a batch of N
// concurrent writers pays ~1 fsync rather than N.
//
// Replicated, the contract covers every copy the ack vouches for: a write
// is acknowledged only once it is fsynced on the primary and on every
// non-suspect backup (the backup replies to a forward after its own log
// commit). The two fsyncs overlap: the primary appends the record, sends
// the forward, and only then waits for its own commit, so an R=2 write
// pays about one fsync of latency, not two in a row. A backup that fails a
// forward is marked suspect and stops counting until the router repairs
// it, exactly as for an in-memory cluster.
//
// Every DurOptions.SnapshotEvery mutations the store writes a compacted
// snapshot — the Export/ExportLocks image captured at a recorded log
// position, atomically renamed into place — and drops the log segments the
// snapshot covers. Snapshotting never blocks the write path: the image is
// read in chunks (see Export), and mutations admitted while the image is
// being read are harmless to recovery because replay is version/sequence
// gated (Import semantics) — re-applying a logged mutation an image
// already contains converges to the same state. Snapshot compaction is
// also where tombstone GC runs (see SetTombstoneTTL).
//
// Recovery (NewStoreDur on a non-empty directory) loads the newest intact
// snapshot, replays the log tail past it, and only then exposes the store:
// every acked write and every unexpired lock lease is restored with its
// original version/owner/expiry; released or expired leases come back only
// as invisible tombstones; a torn or corrupt log tail is truncated at the
// last intact record (those records were never acked — Commit had not
// returned). Recovery is per node and composes with replication: a cluster
// restart (Cluster.NewDurable over existing node directories) first
// recovers each node from its own disk, then runs the normal rebalance
// merge, so per-key max-version / per-lock max-seq wins across replicas
// exactly as it does after a failover.
package kvstore

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"elasticrmi/internal/simclock"
)

// Exported errors.
var (
	// ErrNotFound is returned by Get for a missing key.
	ErrNotFound = errors.New("kvstore: key not found")
	// ErrCASMismatch is returned by CompareAndSwap on version conflict.
	ErrCASMismatch = errors.New("kvstore: compare-and-swap version mismatch")
	// ErrLockHeld is returned by TryLock when another owner holds the lock.
	ErrLockHeld = errors.New("kvstore: lock held")
	// ErrNotLockOwner is returned by Unlock when the caller does not hold it.
	ErrNotLockOwner = errors.New("kvstore: not lock owner")
)

// Versioned is a value with its monotonically increasing version. Deleted
// marks a deletion tombstone: readers see the key as missing, but the
// tombstone's version keeps replicated and migrated states ordered — a
// stale live copy on a node that missed the delete can never outrank the
// deletion in a rebalance merge and resurrect the key. Versions are
// monotonic across a key's whole history, deletions included (a re-created
// key continues above its tombstone).
//
// The //ermi:codec mark gives it a generated binary codec (nested in the
// hot wire messages); Value decodes as a zero-copy view into the frame.
//
//ermi:codec
type Versioned struct {
	Value   []byte
	Version uint64
	Deleted bool
}

// LockInfo is the exportable state of one named lock: the holder, the
// absolute lease expiry, and a store-local monotonic mutation sequence.
// The sequence orders replicated lock updates (a backup installs an update
// only if it is newer than what it already holds), so a delayed
// re-delivery can never resurrect a released or superseded lease. An empty
// Owner is a release tombstone.
//
//ermi:codec
type LockInfo struct {
	Owner   string
	Expires time.Time
	Seq     uint64
}

type entry struct {
	value   []byte
	version uint64
	deleted bool
	tombAt  time.Time // when the tombstone was installed here (GC horizon)
}

type lockState struct {
	owner   string // "" = released tombstone (kept for its seq)
	expires time.Time
	seq     uint64
	stamp   time.Time // when this state was installed here (GC horizon)
}

// info is the exportable (replicated, migrated) form of st.
func (st lockState) info() LockInfo {
	return LockInfo{Owner: st.owner, Expires: st.expires, Seq: st.seq}
}

// defaultTombTTL is the default tombstone retention horizon. It must
// comfortably exceed the maximum replication/migration staleness — the
// longest a stale copy of a key or lock can survive on any node before a
// rebalance merge or repair reconciles it (seconds in practice: forwards
// are synchronous and rebalance runs inline with membership changes).
// After the horizon a tombstone has done its ordering work and only costs
// memory.
const defaultTombTTL = 5 * time.Minute

// gcEvery is how many mutations pass between amortized inline GC sweeps.
const gcEvery = 1024

// Store is the single-node storage engine. Safe for concurrent use.
type Store struct {
	clock simclock.Clock

	mu      sync.Mutex
	data    map[string]entry
	locks   map[string]lockState
	lockSeq uint64 // monotonic across all lock mutations on this store

	tombTTL  time.Duration
	opsSince int         // mutations since the last inline GC sweep
	dur      *durability // nil for a purely in-memory store
}

// NewStore creates an empty in-memory store; clock may be nil for the wall
// clock. See NewStoreDur for a durable one.
func NewStore(clock simclock.Clock) *Store {
	if clock == nil {
		clock = simclock.Real{}
	}
	return &Store{
		clock:   clock,
		data:    make(map[string]entry),
		locks:   make(map[string]lockState),
		tombTTL: defaultTombTTL,
	}
}

// SetTombstoneTTL sets the retention horizon after which deletion
// tombstones, lock release-tombstones and long-expired leases are pruned.
// The horizon must exceed the maximum replication staleness (see
// defaultTombTTL); shorter values are for tests.
func (s *Store) SetTombstoneTTL(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d > 0 {
		s.tombTTL = d
	}
}

// CompactTombstones runs a full tombstone GC sweep immediately.
func (s *Store) CompactTombstones() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gcLocked(s.clock.Now())
}

// gcLocked prunes tombstones past the retention horizon: deletion
// tombstones installed more than tombTTL ago, lock release-tombstones
// likewise, and held leases whose lease expired more than tombTTL ago
// (their sequence can no longer be outrun by any in-flight replica
// traffic). Fixes the unbounded-growth bug where a sustained put/delete
// or lock-churn workload grew the maps forever.
func (s *Store) gcLocked(now time.Time) {
	for k, e := range s.data {
		if e.deleted && !e.tombAt.IsZero() && now.Sub(e.tombAt) > s.tombTTL {
			delete(s.data, k)
		}
	}
	for name, st := range s.locks {
		switch {
		case st.owner == "" && !st.stamp.IsZero() && now.Sub(st.stamp) > s.tombTTL:
			delete(s.locks, name)
		case st.owner != "" && !st.expires.After(now) && now.Sub(st.expires) > s.tombTTL:
			delete(s.locks, name)
		}
	}
	s.opsSince = 0
}

// maybeGCLocked amortizes gcLocked over mutations so the sweep cost stays
// O(1) per operation.
func (s *Store) maybeGCLocked() {
	s.opsSince++
	if s.opsSince >= gcEvery {
		s.gcLocked(s.clock.Now())
	}
}

// Get returns the value and version stored at key.
func (s *Store) Get(key string) (Versioned, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.data[key]
	if !ok || e.deleted {
		return Versioned{}, fmt.Errorf("get %q: %w", key, ErrNotFound)
	}
	val := make([]byte, len(e.value))
	copy(val, e.value)
	return Versioned{Value: val, Version: e.version}, nil
}

// Put stores value at key and returns the new version. On a durable store
// it returns only after the write's log record is fsynced.
func (s *Store) Put(key string, value []byte) uint64 {
	ver, pos := s.put(key, value)
	s.durWait(pos)
	return ver
}

// put is Put without the durability wait: it applies the write and appends
// its log record, returning the position to wait for. The mutating methods
// below all come in this pair; the server's write path uses the unexported
// halves to overlap the local fsync with the backup forward.
func (s *Store) put(key string, value []byte) (uint64, logPos) {
	s.mu.Lock()
	e := s.data[key]
	e.version++
	e.deleted = false
	e.tombAt = time.Time{}
	e.value = make([]byte, len(value))
	copy(e.value, value)
	s.data[key] = e
	rec := s.entryRecLocked(key, e)
	s.maybeGCLocked()
	s.mu.Unlock()
	return e.version, s.durAppend(rec)
}

// Delete removes key, leaving a version-stamped tombstone so replicas and
// rebalance merges order the deletion against stale live copies (see
// Versioned.Deleted). Deleting a missing key is a no-op.
func (s *Store) Delete(key string) {
	_, _, pos := s.deleteV(key)
	s.durWait(pos)
}

// deleteV also returns the resulting tombstone, for replication; ok is
// false when the key did not exist.
func (s *Store) deleteV(key string) (Versioned, bool, logPos) {
	s.mu.Lock()
	e, ok := s.data[key]
	if !ok || e.deleted {
		s.mu.Unlock()
		return Versioned{}, false, 0
	}
	e.version++
	e.deleted = true
	e.value = nil
	e.tombAt = s.clock.Now()
	s.data[key] = e
	rec := s.entryRecLocked(key, e)
	s.maybeGCLocked()
	s.mu.Unlock()
	return Versioned{Version: e.version, Deleted: true}, true, s.durAppend(rec)
}

// Drop hard-removes keys — values, tombstones and version history. Used by
// rebalance cleanup on nodes leaving a key's replica set, so no stale copy
// survives to resurface in a later membership change.
func (s *Store) Drop(keys []string) { s.durWait(s.drop(keys)) }

func (s *Store) drop(keys []string) logPos {
	s.mu.Lock()
	for _, k := range keys {
		delete(s.data, k)
	}
	rec := s.dropRecLocked(durDrop, keys)
	s.mu.Unlock()
	return s.durAppend(rec)
}

// CompareAndSwap stores value at key iff the current version equals
// expectVersion (0 means "key must not exist"). On success it returns the
// new version; on conflict it returns ErrCASMismatch and the current value.
func (s *Store) CompareAndSwap(key string, value []byte, expectVersion uint64) (uint64, Versioned, error) {
	ver, cur, pos, err := s.compareAndSwap(key, value, expectVersion)
	s.durWait(pos)
	return ver, cur, err
}

func (s *Store) compareAndSwap(key string, value []byte, expectVersion uint64) (uint64, Versioned, logPos, error) {
	s.mu.Lock()
	e, exists := s.data[key]
	cur := uint64(0)
	if exists && !e.deleted {
		cur = e.version
	}
	if cur != expectVersion {
		val := make([]byte, len(e.value))
		copy(val, e.value)
		s.mu.Unlock()
		return 0, Versioned{Value: val, Version: cur}, 0, ErrCASMismatch
	}
	// A re-creation continues above the tombstone's version (e.version is
	// the tombstone when the key was deleted), keeping per-key history
	// monotonic for replication ordering.
	e.version++
	e.deleted = false
	e.tombAt = time.Time{}
	e.value = make([]byte, len(value))
	copy(e.value, value)
	s.data[key] = e
	rec := s.entryRecLocked(key, e)
	s.maybeGCLocked()
	s.mu.Unlock()
	return e.version, Versioned{}, s.durAppend(rec), nil
}

// AddInt64 atomically adds delta to the integer stored at key (missing keys
// count as 0) and returns the new value. The value is stored in decimal form
// so it remains readable through Get.
func (s *Store) AddInt64(key string, delta int64) (int64, error) {
	v, _, pos, err := s.addInt64(key, delta)
	s.durWait(pos)
	return v, err
}

// addInt64 also returns the key's resulting state, for replication.
func (s *Store) addInt64(key string, delta int64) (int64, Versioned, logPos, error) {
	s.mu.Lock()
	e := s.data[key]
	var cur int64
	if !e.deleted && len(e.value) > 0 {
		v, err := strconv.ParseInt(string(e.value), 10, 64)
		if err != nil {
			s.mu.Unlock()
			return 0, Versioned{}, 0, fmt.Errorf("add %q: %w", key, err)
		}
		cur = v
	}
	cur += delta
	e.version++
	e.deleted = false
	e.tombAt = time.Time{}
	e.value = []byte(strconv.FormatInt(cur, 10))
	s.data[key] = e
	rec := s.entryRecLocked(key, e)
	s.maybeGCLocked()
	s.mu.Unlock()
	return cur, Versioned{Value: e.value, Version: e.version}, s.durAppend(rec), nil
}

// Keys returns all keys with the given prefix, sorted.
func (s *Store) Keys(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for k, e := range s.data {
		if !e.deleted && strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored (live) keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, e := range s.data {
		if !e.deleted {
			n++
		}
	}
	return n
}

// TryLock attempts to acquire the named lock for owner with the given lease.
// Expired leases are broken. Re-acquiring a held lock by the same owner
// renews the lease.
func (s *Store) TryLock(name, owner string, lease time.Duration) error {
	_, pos, err := s.tryLock(name, owner, lease)
	s.durWait(pos)
	return err
}

// tryLock also returns the lock's resulting state, for replication.
func (s *Store) tryLock(name, owner string, lease time.Duration) (LockInfo, logPos, error) {
	if lease <= 0 {
		lease = 30 * time.Second
	}
	now := s.clock.Now()
	s.mu.Lock()
	st, held := s.locks[name]
	if held && st.owner != "" && st.owner != owner && st.expires.After(now) {
		s.mu.Unlock()
		return LockInfo{}, 0, fmt.Errorf("lock %q owned by %s: %w", name, st.owner, ErrLockHeld)
	}
	s.lockSeq++
	st = lockState{owner: owner, expires: now.Add(lease), seq: s.lockSeq, stamp: now}
	s.locks[name] = st
	rec := s.lockRecLocked(name, st)
	s.maybeGCLocked()
	s.mu.Unlock()
	return st.info(), s.durAppend(rec), nil
}

// Unlock releases the named lock held by owner. The release leaves a
// sequence-stamped tombstone so replicas can order it against in-flight
// lease updates.
func (s *Store) Unlock(name, owner string) error {
	_, pos, err := s.unlock(name, owner)
	s.durWait(pos)
	return err
}

// unlock also returns the lock's resulting release tombstone, for
// replication.
func (s *Store) unlock(name, owner string) (LockInfo, logPos, error) {
	s.mu.Lock()
	st, held := s.locks[name]
	if !held || st.owner != owner {
		s.mu.Unlock()
		return LockInfo{}, 0, fmt.Errorf("unlock %q by %s: %w", name, owner, ErrNotLockOwner)
	}
	s.lockSeq++
	st = lockState{owner: "", expires: time.Time{}, seq: s.lockSeq, stamp: s.clock.Now()}
	s.locks[name] = st
	rec := s.lockRecLocked(name, st)
	s.maybeGCLocked()
	s.mu.Unlock()
	return st.info(), s.durAppend(rec), nil
}

// LockOwner reports the current owner of the named lock, if unexpired.
func (s *Store) LockOwner(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, held := s.locks[name]
	if !held || st.owner == "" || !st.expires.After(s.clock.Now()) {
		return "", false
	}
	return st.owner, true
}

// exportChunkSize bounds how many entries are copied per lock
// acquisition in Export/ExportLocks, so a large snapshot never stalls
// the write path for more than one chunk's copy time.
const exportChunkSize = 512

// exportPause is a test hook invoked between export chunks with the store
// mutex released; it lets tests prove concurrent mutations are admitted
// mid-export.
var exportPause func()

// Export returns a snapshot of all entries whose key satisfies keep —
// live values and deletion tombstones alike, so migration and repair
// preserve deletion ordering. Used when the cluster membership changes and
// by the durability snapshotter.
//
// The image is taken in chunks, releasing the store mutex between them,
// so a concurrent Put never waits behind a full-image copy. The result is
// therefore a consistent-per-key (not point-in-time) snapshot: a key
// mutated mid-export may appear at either version. Every consumer merges
// with version/sequence gating (Import semantics), for which
// per-key-atomic is sufficient — a newer version observed early can only
// win again later.
func (s *Store) Export(keep func(key string) bool) map[string]Versioned {
	s.mu.Lock()
	keys := make([]string, 0, len(s.data))
	for k := range s.data {
		if keep == nil || keep(k) {
			keys = append(keys, k)
		}
	}
	s.mu.Unlock()
	out := make(map[string]Versioned, len(keys))
	for start := 0; start < len(keys); start += exportChunkSize {
		end := min(start+exportChunkSize, len(keys))
		s.mu.Lock()
		for _, k := range keys[start:end] {
			e, ok := s.data[k]
			if !ok {
				continue // dropped between chunks
			}
			val := make([]byte, len(e.value))
			copy(val, e.value)
			out[k] = Versioned{Value: val, Version: e.version, Deleted: e.deleted}
		}
		s.mu.Unlock()
		if exportPause != nil && end < len(keys) {
			exportPause()
		}
	}
	return out
}

// Import installs entries preserving versions; newer-or-equal versions win,
// so re-delivered or overlapping imports (migration retries, replica
// repair) are idempotent and can never roll a key back — nor resurrect a
// deletion, since tombstones outrank the values they superseded.
func (s *Store) Import(entries map[string]Versioned) { s.durWait(s.importEntries(entries)) }

func (s *Store) importEntries(entries map[string]Versioned) logPos {
	now := s.clock.Now()
	s.mu.Lock()
	var recs [][]byte
	for k, v := range entries {
		if !s.installEntryLocked(k, v, now) {
			continue
		}
		if rec := s.entryRecLocked(k, s.data[k]); rec != nil {
			recs = append(recs, rec)
		}
	}
	s.maybeGCLocked()
	s.mu.Unlock()
	return s.durAppend(recs...)
}

// installEntryLocked applies one versioned entry with the Import gate
// (newer-or-equal versions win). Shared by Import and WAL replay.
func (s *Store) installEntryLocked(k string, v Versioned, now time.Time) bool {
	if cur, ok := s.data[k]; ok && cur.version > v.Version {
		return false
	}
	e := entry{version: v.Version, deleted: v.Deleted}
	if v.Deleted {
		e.tombAt = now
	} else {
		e.value = make([]byte, len(v.Value))
		copy(e.value, v.Value)
	}
	s.data[k] = e
	return true
}

// ExportLocks snapshots the lock states whose name satisfies keep: the
// unexpired held leases with owners, absolute expiries and mutation
// sequences intact, plus release tombstones and expired leases (invisible
// to readers, but their sequences keep replicated updates ordered). It is
// the lock-table counterpart of Export: AddNode/RemoveNode migration must
// carry it alongside the data, or a held lock whose routed owner changes
// would appear free on the node that takes the name over. Chunked like
// Export: per-name-atomic, never stalls the write path.
func (s *Store) ExportLocks(keep func(name string) bool) map[string]LockInfo {
	s.mu.Lock()
	names := make([]string, 0, len(s.locks))
	for name := range s.locks {
		if keep == nil || keep(name) {
			names = append(names, name)
		}
	}
	s.mu.Unlock()
	out := make(map[string]LockInfo, len(names))
	for start := 0; start < len(names); start += exportChunkSize {
		end := min(start+exportChunkSize, len(names))
		s.mu.Lock()
		for _, name := range names[start:end] {
			st, ok := s.locks[name]
			if !ok {
				continue // dropped between chunks
			}
			out[name] = st.info()
		}
		s.mu.Unlock()
		if exportPause != nil && end < len(names) {
			exportPause()
		}
	}
	return out
}

// DropLocks removes the named locks' state entirely (leases, tombstones
// and their sequence history). Used by rebalance cleanup on nodes leaving
// a lock's replica set, so no stale copy survives to resurface in a later
// membership change.
func (s *Store) DropLocks(names []string) { s.durWait(s.dropLocks(names)) }

func (s *Store) dropLocks(names []string) logPos {
	s.mu.Lock()
	for _, name := range names {
		delete(s.locks, name)
	}
	rec := s.dropRecLocked(durLockDrop, names)
	s.mu.Unlock()
	return s.durAppend(rec)
}

// ImportLocks installs lock leases (held states and release tombstones).
// Per name, a newer sequence wins; the store's own sequence counter is
// advanced past every installed value so local mutations made after a
// promotion keep winning over anything replicated before it.
func (s *Store) ImportLocks(locks map[string]LockInfo) { s.durWait(s.importLocks(locks)) }

func (s *Store) importLocks(locks map[string]LockInfo) logPos {
	now := s.clock.Now()
	s.mu.Lock()
	var recs [][]byte
	for name, info := range locks {
		if !s.installLockLocked(name, info, now) {
			continue
		}
		if rec := s.lockRecLocked(name, s.locks[name]); rec != nil {
			recs = append(recs, rec)
		}
	}
	s.maybeGCLocked()
	s.mu.Unlock()
	return s.durAppend(recs...)
}

// installLockLocked applies one lock state with the ImportLocks gate (a
// newer sequence wins) and advances the local sequence counter past it.
// A lease that is already expired on arrival is installed as a release
// tombstone instead of verbatim: it is invisible to readers either way,
// but installing it held would let a dead lease occupy the table and win
// sequence comparisons as if it were live state. Shared by ImportLocks
// and WAL replay.
func (s *Store) installLockLocked(name string, info LockInfo, now time.Time) bool {
	if cur, ok := s.locks[name]; ok && cur.seq >= info.Seq {
		return false
	}
	st := lockState{owner: info.Owner, expires: info.Expires, seq: info.Seq, stamp: now}
	if st.owner != "" && !st.expires.After(now) {
		st.owner = ""
		st.expires = time.Time{}
	}
	s.locks[name] = st
	if info.Seq > s.lockSeq {
		s.lockSeq = info.Seq
	}
	return true
}
