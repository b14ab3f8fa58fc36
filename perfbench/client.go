package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"elasticrmi/internal/core"
	"elasticrmi/internal/transport"
)

// errWrong marks an invocation that succeeded with a wrong result.
var errWrong = errors.New("wrong result")

// client issues the workload's requests through the stub and checks every
// reply against the oracle. It also watches replies for the two pool
// events the resizer waits on: the first reply served by a new member, and
// the stub's routing epoch catching up with the pool's.
type client struct {
	w     *spec
	d     *deployment
	o     *oracle
	tr    *tracer
	names []string // key index -> key
	noise []byte
	bufs  sync.Pool

	userBytes atomic.Int64         // value bytes of acknowledged puts
	issued    [numOps]atomic.Int64 // requests issued, by kind

	// Scale-out watch: replies from members above this UID come from the
	// member a grow just added (0: disarmed), and when that grow began (ns
	// on mono).
	watchAbove atomic.Int64
	watchStart atomic.Int64
	firstReply chan time.Duration
	// Route watch: the pool epoch a grow installed, and when it returned.
	convTarget atomic.Uint64
	convStart  atomic.Int64
	converged  chan time.Duration
	mono       time.Time
}

func newClient(w *spec, seed uint64, d *deployment, tr *tracer) *client {
	c := &client{
		w:          w,
		d:          d,
		o:          newOracle(w.keys),
		tr:         tr,
		names:      make([]string, w.keys),
		firstReply: make(chan time.Duration, 1),
		converged:  make(chan time.Duration, 1),
		mono:       time.Now(),
	}
	for i := range c.names {
		c.names[i] = fmt.Sprintf("k%05d", i)
	}
	maxValue := int(slices.Max(w.sizes))
	c.noise = make([]byte, maxValue+4096)
	r := rng(seed, w.name, "noise")
	for i := range c.noise {
		c.noise[i] = byte(r.Uint32())
	}
	c.bufs.New = func() any { b := make([]byte, maxValue); return &b }
	return c
}

func (c *client) since() int64 { return int64(time.Since(c.mono)) }

// do runs one request with write sequence seq and reports its outcome:
// nil, an invocation error, or errWrong when the oracle rejects the reply.
func (c *client) do(o op, seq uint64) error {
	c.issued[o.kind].Add(1)
	key := c.names[o.key]
	req := Req{Key: key}
	var snap uint64
	var buf *[]byte
	switch o.kind {
	case opGet:
		snap = c.o.beginRead(o.key)
	case opPut:
		buf = c.bufs.Get().(*[]byte)
		req.Value = makeValue(*buf, key, seq, int(o.size), c.noise)
		c.o.beginWrite(o.key, seq)
	case opAdd:
		req.Delta = o.delta
	}
	rep, err := c.invoke(opMethod[o.kind], &req)
	if buf != nil {
		c.bufs.Put(buf)
	}
	switch o.kind {
	case opGet:
		if err == nil {
			if cerr := c.o.checkRead(o.key, key, snap, rep.Value); cerr != nil {
				c.o.violation(cerr)
				err = errWrong
			}
		}
	case opPut:
		c.o.endWrite(o.key, seq, err == nil)
		if err == nil {
			c.userBytes.Add(int64(o.size))
		}
	case opIncr:
		if err == nil {
			c.o.incrAcked[o.key].Add(1)
		} else {
			c.o.incrUnknown[o.key].Add(1)
		}
	case opAdd:
		if err == nil {
			c.o.addAcked[o.key].Add(o.delta)
		} else {
			c.o.addUnknown[o.key].Add(o.delta)
		}
	}
	if err == nil {
		c.observe(rep.Member)
	}
	return err
}

// invoke is core.Call; when tracing is on it makes the same three calls
// (encode, invoke, decode) itself so each can be timed.
func (c *client) invoke(method string, req *Req) (Reply, error) {
	root, trace := c.tr.sample()
	if root < 0 {
		return core.Call[Req, Reply](c.d.stub, method, *req)
	}
	t := c.tr
	req.Trace = trace
	start := t.now()
	var rep Reply
	t0 := t.now()
	payload, err := transport.Encode(req)
	t.record(spEncode, req.Trace, root, t0, "", int64(len(payload)))
	if err != nil {
		return rep, err
	}
	inv := t.reserve()
	t0 = t.now()
	out, err := c.d.stub.Invoke(method, payload)
	t.fill(inv, span{kind: spInvoke, trace: req.Trace, parent: root, start: t0})
	transport.ReleasePayload(payload)
	if err == nil {
		t0 = t.now()
		err = transport.Decode(out, &rep)
		t.record(spDecode, req.Trace, root, t0, "", int64(len(out)))
		// Reply.Value is a view into out, so out stays out of the arena,
		// as in core.Call.
	}
	t.fill(root, span{kind: spClient, trace: req.Trace, parent: -1, start: start})
	return rep, err
}

// observe feeds one successful reply to the pool watches.
func (c *client) observe(uid int64) {
	if w := c.watchAbove.Load(); w != 0 && uid > w && c.watchAbove.CompareAndSwap(w, 0) {
		offer(c.firstReply, time.Duration(c.since()-c.watchStart.Load()))
	}
	if t := c.convTarget.Load(); t != 0 && c.d.stub.RouteEpoch() >= t && c.convTarget.CompareAndSwap(t, 0) {
		offer(c.converged, time.Duration(c.since()-c.convStart.Load()))
	}
}

// offer sends without blocking: each watch is armed once per grow and its
// channel emptied before it is armed again.
func offer(ch chan time.Duration, d time.Duration) {
	select {
	case ch <- d:
	default:
	}
}

// preload writes every key once (write sequence 0), reads each back so the
// session cache is warm, and proves the first invocations succeed.
func (c *client) preload(par int) error {
	var next atomic.Int64
	errs := make(chan error, par)
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := next.Add(1) - 1
				if k >= int64(c.w.keys) {
					errs <- nil
					return
				}
				if err := c.do(op{kind: opPut, key: uint32(k), size: c.w.sizes[k%int64(len(c.w.sizes))]}, 0); err != nil {
					errs <- fmt.Errorf("preload %s: %w", c.names[k], err)
					return
				}
				if err := c.do(op{kind: opGet, key: uint32(k)}, 0); err != nil {
					errs <- fmt.Errorf("preload read %s: %w", c.names[k], err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// verify reads every key once more after the load has stopped, and checks
// the counters against the acknowledged increments. It returns the number
// of invocations it made and of those that failed a check or errored.
func (c *client) verify() (attempted, failed int) {
	for k := range c.names {
		attempted++
		if err := c.do(op{kind: opGet, key: uint32(k)}, 0); err != nil {
			failed++
			if !errors.Is(err, errWrong) {
				c.o.violation(fmt.Errorf("final read %s: %w", c.names[k], err))
			}
		}
		if c.w.name != "state_write" {
			continue
		}
		attempted++
		rep, err := core.Call[Req, Reply](c.d.stub, mCheck, Req{Key: c.names[k]})
		if err == nil {
			err = c.o.checkCounters(uint32(k), c.names[k], rep.N, rep.Add)
		}
		if err != nil {
			failed++
			c.o.violation(err)
		}
	}
	return attempted, failed
}
