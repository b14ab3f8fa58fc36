package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// Every stored value carries a header naming its key and write sequence,
// and a CRC-32C over key, sequence and body:
//
//	u16 keyLen | key | u64 seq | u32 crc | body
//
// so a read can tell a torn, misrouted or stale value from a good one.

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func headerLen(key string) int { return 2 + len(key) + 8 + 4 }

// makeValue returns a size-byte value for (key, seq) in buf, its body cut
// from noise at an offset derived from seq so successive writes differ.
func makeValue(buf []byte, key string, seq uint64, size int, noise []byte) []byte {
	h := headerLen(key)
	if size < h {
		size = h
	}
	v := buf[:size]
	binary.LittleEndian.PutUint16(v, uint16(len(key)))
	copy(v[2:], key)
	binary.LittleEndian.PutUint64(v[2+len(key):], seq)
	off := int(seq * 2654435761 % uint64(len(noise)-size+1))
	copy(v[h:], noise[off:off+size-h])
	binary.LittleEndian.PutUint32(v[h-4:], valueCRC(v, h))
	return v
}

func valueCRC(v []byte, h int) uint32 {
	c := crc32.Update(0, castagnoli, v[:h-4])
	return crc32.Update(c, castagnoli, v[h:])
}

// parseValue checks that v is intact and belongs to key, and returns its
// write sequence.
func parseValue(v []byte, key string) (uint64, error) {
	if len(v) < 2 {
		return 0, errors.New("value missing or truncated")
	}
	kl := int(binary.LittleEndian.Uint16(v))
	h := 2 + kl + 8 + 4
	if len(v) < h {
		return 0, fmt.Errorf("value of %d bytes truncated", len(v))
	}
	if got := string(v[2 : 2+kl]); got != key {
		return 0, fmt.Errorf("read %q returned the value of %q", key, got)
	}
	if binary.LittleEndian.Uint32(v[h-4:]) != valueCRC(v, h) {
		return 0, fmt.Errorf("value of %q fails its checksum", key)
	}
	return binary.LittleEndian.Uint64(v[2+kl:]), nil
}

// oracle checks every read against the writes acknowledged before it was
// issued, and the counters against the acknowledged increments. Time is a
// logical clock: one tick per write issue and per write ack.
type oracle struct {
	clock atomic.Uint64
	keys  []okey

	incrAcked, incrUnknown []atomic.Int64 // per key: Incr acked / failed
	addAcked, addUnknown   []atomic.Int64 // per key: Add deltas acked / failed

	violations atomic.Int64
	mu         sync.Mutex
	first      []string // the first few violations, for the report
}

type okey struct {
	mu     sync.Mutex
	writes map[uint64]wstamp
	// ackedIssue is the latest issue tick of any acknowledged write.
	ackedIssue uint64
}

// wstamp is one write's issue and ack ticks (ack 0: not acknowledged).
type wstamp struct{ issue, ack uint64 }

func newOracle(keys int) *oracle {
	o := &oracle{
		keys:        make([]okey, keys),
		incrAcked:   make([]atomic.Int64, keys),
		incrUnknown: make([]atomic.Int64, keys),
		addAcked:    make([]atomic.Int64, keys),
		addUnknown:  make([]atomic.Int64, keys),
	}
	for i := range o.keys {
		o.keys[i].writes = make(map[uint64]wstamp)
	}
	return o
}

func (o *oracle) tick() uint64 { return o.clock.Add(1) }

// beginWrite records that the write seq of key k is issued.
func (o *oracle) beginWrite(k uint32, seq uint64) {
	ks := &o.keys[k]
	ks.mu.Lock()
	ks.writes[seq] = wstamp{issue: o.tick()}
	ks.mu.Unlock()
}

// endWrite records the write's outcome. A failed write stays unacked: it
// may or may not have been applied, and either is a legal read.
func (o *oracle) endWrite(k uint32, seq uint64, ok bool) {
	if !ok {
		return
	}
	ks := &o.keys[k]
	ks.mu.Lock()
	w := ks.writes[seq]
	w.ack = o.tick()
	ks.writes[seq] = w
	if w.issue > ks.ackedIssue {
		ks.ackedIssue = w.issue
	}
	ks.mu.Unlock()
}

// beginRead snapshots what a read of key k, issued now, must not be older
// than.
func (o *oracle) beginRead(k uint32) uint64 {
	ks := &o.keys[k]
	ks.mu.Lock()
	defer ks.mu.Unlock()
	return ks.ackedIssue
}

// checkRead judges the value a read of key k returned. The read is stale
// when the write it returned was acknowledged before some other write was
// even issued, and that other write was acknowledged before the read was
// issued: the session layer's invalidate-before-ack promise forbids it.
func (o *oracle) checkRead(k uint32, key string, snap uint64, v []byte) error {
	seq, err := parseValue(v, key)
	if err != nil {
		return err
	}
	ks := &o.keys[k]
	ks.mu.Lock()
	w, ok := ks.writes[seq]
	ks.mu.Unlock()
	switch {
	case !ok:
		return fmt.Errorf("read %q returned write %d, which was never issued", key, seq)
	case w.ack != 0 && snap > w.ack:
		return fmt.Errorf("stale read of %q: write %d was overwritten by a write acknowledged before the read", key, seq)
	}
	return nil
}

// checkCounters judges the end-of-run values of key k's lock-protected
// counter and AddInt total: they must equal the acknowledged increments,
// give or take the increments whose outcome is unknown.
func (o *oracle) checkCounters(k uint32, key string, counter, total int64) error {
	if lo := o.incrAcked[k].Load(); counter < lo || counter > lo+o.incrUnknown[k].Load() {
		return fmt.Errorf("counter %q = %d, acknowledged increments %d (+%d unknown)", key, counter, lo, o.incrUnknown[k].Load())
	}
	if lo := o.addAcked[k].Load(); total < lo || total > lo+o.addUnknown[k].Load() {
		return fmt.Errorf("AddInt total %q = %d, acknowledged deltas %d (+%d unknown)", key, total, lo, o.addUnknown[k].Load())
	}
	return nil
}

// violation records a failed check.
func (o *oracle) violation(err error) {
	if o.violations.Add(1) <= 5 {
		o.mu.Lock()
		o.first = append(o.first, err.Error())
		o.mu.Unlock()
	}
}
