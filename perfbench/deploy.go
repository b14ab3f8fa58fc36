package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"elasticrmi/internal/cluster"
	"elasticrmi/internal/core"
	"elasticrmi/internal/kvstore"
)

const poolName = "perfbench"

// deployment is the whole stack in one process, every hop over loopback
// TCP: a cluster manager, a 3-node durable kvstore at R=2 with a
// group-committed WAL, one session shared by the pool, a registry, a pool
// of 2..3 members of the benchmark's elastic class, and a default stub.
type deployment struct {
	dir    string
	mgr    *cluster.Manager
	store  *kvstore.Cluster
	sess   *kvstore.ClusterSession
	regSrv *core.RegistryServer
	regCli *core.RegistryClient
	pool   *core.Pool
	stub   *core.Stub
}

// deploy brings the stack up with its store under dir. With a tracer, the
// pool's shared store is wrapped so every kvstore call is timed.
func deploy(dir string, tr *tracer) (d *deployment, err error) {
	d = &deployment{dir: dir}
	defer func() {
		if err != nil {
			d.close()
		}
	}()
	if d.mgr, err = cluster.New(cluster.Config{Nodes: 3, SlicesPerNode: 1}); err != nil {
		return nil, err
	}
	if d.store, err = kvstore.NewDurable(3, 2, nil, kvstore.DurOptions{Dir: dir, GroupCommit: true}); err != nil {
		return nil, err
	}
	d.sess = d.store.NewSession(kvstore.SessionOptions{})
	var shared kvstore.Shared = d.sess
	if tr != nil {
		shared = &tracedStore{Shared: d.sess, t: tr}
	}
	if d.regSrv, err = core.NewRegistryServer("127.0.0.1:0"); err != nil {
		return nil, err
	}
	if d.regCli, err = core.DialRegistry(d.regSrv.Addr()); err != nil {
		return nil, err
	}
	d.pool, err = core.NewPool(core.Config{
		Name:        poolName,
		MinPoolSize: 2,
		MaxPoolSize: 3,
		// Only the benchmark's explicit Resize calls change the pool.
		BurstInterval: 24 * time.Hour,
	}, memberFactory(tr), core.Deps{Cluster: d.mgr, Store: shared, Registry: d.regCli})
	if err != nil {
		return nil, err
	}
	if d.stub, err = core.LookupStub(poolName, d.regCli); err != nil {
		return nil, err
	}
	return d, nil
}

// close tears the stack down in reverse order and removes its files.
func (d *deployment) close() {
	if d.stub != nil {
		d.stub.Close()
	}
	if d.pool != nil {
		d.pool.Close()
	}
	if d.regCli != nil {
		d.regCli.Close()
	}
	if d.regSrv != nil {
		d.regSrv.Close()
	}
	if d.sess != nil {
		d.sess.Close()
	}
	if d.store != nil {
		d.store.Close()
	}
	if d.mgr != nil {
		d.mgr.Close()
	}
	os.RemoveAll(d.dir)
}

// diskBytes sums the sizes of the store's files (WAL segments and
// snapshots of every node).
func diskBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err == nil && !e.IsDir() {
			if info, ierr := e.Info(); ierr == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// member is one instance of the benchmark's elastic class. Its shared
// state lives in the pool's store: field v/<key> holds values, c/<key> a
// lock-protected counter and a/<key> an AddInt total.
type member struct {
	uid int64
	st  *core.State
	tr  *tracer
}

func memberFactory(tr *tracer) core.Factory {
	return func(ctx *core.MemberContext) (core.Object, error) {
		m := &member{uid: ctx.UID, st: ctx.State, tr: tr}
		mux := core.NewMux()
		core.Handle(mux, mGet, m.get)
		core.Handle(mux, mPut, m.put)
		core.Handle(mux, mIncr, m.incr)
		core.Handle(mux, mAdd, m.add)
		core.Handle(mux, mCheck, m.check)
		return mux, nil
	}
}

// call is one traced member invocation: the handler span's slot and the
// trace it belongs to.
type call struct {
	m     *member
	trace uint64
	id    int32
	start int64
}

func (m *member) begin(req *Req) call {
	if req.Trace == 0 {
		return call{m: m, id: -1}
	}
	return call{m: m, trace: req.Trace, id: m.tr.reserve(), start: m.tr.now()}
}

func (c call) end() {
	if c.id >= 0 {
		c.m.tr.fill(c.id, span{kind: spHandle, trace: c.trace, parent: -1, start: c.start, aux: c.m.uid})
	}
}

// storeKey is the kvstore key core.State uses for field; it is built only
// when the call is traced.
func (c call) storeKey(field string) string {
	if c.id < 0 {
		return ""
	}
	return c.m.st.Key(field)
}

// timed runs one core.State call on store key key inside a span of the
// given kind.
func (c call) timed(kind uint8, key string, fn func() error) error {
	if c.id < 0 {
		return fn()
	}
	c.m.tr.inState.Add(1)
	t0 := c.m.tr.now()
	err := fn()
	c.m.tr.record(kind, c.trace, c.id, t0, key, 0)
	c.m.tr.inState.Add(-1)
	return err
}

func (m *member) get(req Req) (rep Reply, err error) {
	c := m.begin(&req)
	defer c.end()
	err = c.timed(spStateGet, c.storeKey("v/"+req.Key), func() (err error) {
		rep.Value, err = m.st.GetBytes("v/" + req.Key)
		return err
	})
	rep.Member = m.uid
	return rep, err
}

func (m *member) put(req Req) (Reply, error) {
	c := m.begin(&req)
	defer c.end()
	err := c.timed(spStatePut, c.storeKey("v/"+req.Key), func() error { return m.st.PutBytes("v/"+req.Key, req.Value) })
	return Reply{Member: m.uid}, err
}

// incr is a lock-protected read-modify-write of the key's counter. A held
// lock is retried: it only means another member is in the same critical
// section.
func (m *member) incr(req Req) (rep Reply, err error) {
	c := m.begin(&req)
	defer c.end()
	lock := poolName + "/l/" + req.Key
	var release func() error
	for release == nil {
		var ok bool
		err = c.timed(spStateLock, lock, func() (err error) {
			var rel func() error
			rel, ok, err = m.st.TryLock(lock)
			if ok {
				release = rel
			}
			return err
		})
		if err != nil {
			return rep, err
		}
		if !ok {
			runtime.Gosched()
		}
	}
	var raw []byte
	err = c.timed(spStateGet, c.storeKey("c/"+req.Key), func() (err error) {
		raw, err = m.st.GetBytes("c/" + req.Key)
		return err
	})
	if err == nil {
		var n int64
		if len(raw) == 8 {
			n = int64(binary.LittleEndian.Uint64(raw))
		}
		rep.N = n + 1
		err = c.timed(spStatePut, c.storeKey("c/"+req.Key), func() error {
			return m.st.PutBytes("c/"+req.Key, binary.LittleEndian.AppendUint64(nil, uint64(rep.N)))
		})
	}
	if rerr := c.timed(spStateUnlock, lock, release); err == nil && rerr != nil {
		err = fmt.Errorf("release %s: %w", lock, rerr)
	}
	rep.Member = m.uid
	return rep, err
}

func (m *member) add(req Req) (rep Reply, err error) {
	c := m.begin(&req)
	defer c.end()
	err = c.timed(spStateAdd, c.storeKey("a/"+req.Key), func() (err error) {
		rep.N, err = m.st.AddInt("a/"+req.Key, req.Delta)
		return err
	})
	rep.Member = m.uid
	return rep, err
}

// check reads the key's counter and AddInt total for the end-of-run
// oracle.
func (m *member) check(req Req) (rep Reply, err error) {
	raw, err := m.st.GetBytes("c/" + req.Key)
	if err != nil {
		return rep, err
	}
	if len(raw) == 8 {
		rep.N = int64(binary.LittleEndian.Uint64(raw))
	}
	rep.Add, err = m.st.GetInt("a/" + req.Key)
	rep.Member = m.uid
	return rep, err
}
