package kvstore

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"elasticrmi/internal/transport"
)

// defaultCallTimeout bounds individual store operations.
const defaultCallTimeout = 10 * time.Second

// Client talks to a single store node. Safe for concurrent use.
type Client struct {
	mu   sync.Mutex
	conn *transport.Client
	addr string
}

// NewClient connects to the store node at addr.
func NewClient(addr string) (*Client, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("kvstore client: %w", err)
	}
	return &Client{conn: conn, addr: addr}, nil
}

// Addr returns the node address this client talks to.
func (c *Client) Addr() string { return c.addr }

// Close releases the connection. The handle lock is not held across the
// close: transport.Client.Close waits for the reader goroutine to drain
// (a blocking receive) and is itself idempotent, so holding mu here
// would only let a slow drain stall every caller snapshotting the
// connection.
func (c *Client) Close() error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}

// shedRetries bounds how many times a call the server provably never
// executed (admission shed, queue expiry) is retried before the error
// surfaces to the caller.
const shedRetries = 5

// callShedRetry runs do, retrying with a short doubling backoff while it
// fails with transport.ErrOverloaded or transport.ErrExpired. Both refusal
// statuses guarantee the handler never ran, so the retry is safe even for
// non-idempotent operations (Put, AddInt64, TryLock). Treating them as
// fatal would be wrong twice over: an ordinary caller would surface a
// transient queue blip as an operation failure, and a session keepalive or
// invalidation ack hitting one shed reply would tear down a healthy
// session.
func callShedRetry(sleep func(time.Duration), do func() error) error {
	backoff := time.Millisecond
	for attempt := 0; ; attempt++ {
		err := do()
		if err == nil || attempt >= shedRetries ||
			(!errors.Is(err, transport.ErrOverloaded) && !errors.Is(err, transport.ErrExpired)) {
			return err
		}
		sleep(backoff)
		backoff *= 2
	}
}

func (c *Client) call(method string, req, reply interface{}) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	err := callShedRetry(time.Sleep, func() error {
		return conn.CallDecode(ServiceName, method, req, reply, defaultCallTimeout)
	})
	if err != nil {
		return unwireError(err)
	}
	return nil
}

// AsyncPut is the future of a pipelined Put (see GoPut).
type AsyncPut struct {
	call *transport.Call
	// done is captured at creation: Version releases the pooled call, after
	// which the call object must not be touched, but this channel stays
	// valid (completion always closes it first).
	done    <-chan struct{}
	once    sync.Once
	version uint64
	err     error
}

// Done returns a channel closed when the put completes.
func (p *AsyncPut) Done() <-chan struct{} { return p.done }

// Version blocks (bounded by the store's call timeout, like Put) until the
// put completes and returns the stored version. Repeated calls return the
// same result.
func (p *AsyncPut) Version() (uint64, error) {
	p.once.Do(func() {
		out, err := p.call.Wait(defaultCallTimeout) // releases the call
		if err != nil {
			p.err = unwireError(err)
			return
		}
		var rep putReply
		if err := transport.Decode(out, &rep); err != nil {
			p.err = err
			return
		}
		p.version = rep.Version
	})
	return p.version, p.err
}

// GoPut pipelines a Put: many puts can be in flight on the single store
// connection, so a writer's throughput is bounded by the store, not by the
// round-trip latency of each put. The future resolves to the new version.
func (c *Client) GoPut(key string, value []byte) *AsyncPut {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	call := conn.GoDecode(ServiceName, "Put", &putReq{Key: key, Val: value})
	return &AsyncPut{call: call, done: call.Done()}
}

// Get fetches key.
func (c *Client) Get(key string) (Versioned, error) {
	var rep getReply
	if err := c.call("Get", &getReq{Key: key}, &rep); err != nil {
		return Versioned{}, err
	}
	return rep.Val, nil
}

// Put stores value at key and returns the new version.
func (c *Client) Put(key string, value []byte) (uint64, error) {
	var rep putReply
	if err := c.call("Put", &putReq{Key: key, Val: value}, &rep); err != nil {
		return 0, err
	}
	return rep.Version, nil
}

// Delete removes key.
func (c *Client) Delete(key string) error {
	var rep delReply
	return c.call("Delete", &delReq{Key: key}, &rep)
}

// CompareAndSwap conditionally replaces key at expectVersion.
func (c *Client) CompareAndSwap(key string, value []byte, expectVersion uint64) (uint64, error) {
	var rep casReply
	if err := c.call("CAS", &casReq{Key: key, Val: value, ExpectVersion: expectVersion}, &rep); err != nil {
		return 0, err
	}
	return rep.Version, nil
}

// AddInt64 atomically adds delta to the integer at key.
func (c *Client) AddInt64(key string, delta int64) (int64, error) {
	var rep addReply
	if err := c.call("Add", &addReq{Key: key, Delta: delta}, &rep); err != nil {
		return 0, err
	}
	return rep.Value, nil
}

// Keys lists keys with the given prefix.
func (c *Client) Keys(prefix string) ([]string, error) {
	var rep keysReply
	if err := c.call("Keys", &keysReq{Prefix: prefix}, &rep); err != nil {
		return nil, err
	}
	return rep.Keys, nil
}

// TryLock attempts to take the named lock.
func (c *Client) TryLock(name, owner string, lease time.Duration) error {
	var rep lockReply
	return c.call("TryLock", &lockReq{Name: name, Owner: owner, Lease: lease}, &rep)
}

// Unlock releases the named lock.
func (c *Client) Unlock(name, owner string) error {
	var rep unlockReply
	return c.call("Unlock", &unlockReq{Name: name, Owner: owner}, &rep)
}

// Export snapshots entries with the prefix (used by shard migration).
func (c *Client) Export(prefix string) (map[string]Versioned, error) {
	var rep exportReply
	if err := c.call("Export", &exportReq{Prefix: prefix}, &rep); err != nil {
		return nil, err
	}
	return rep.Entries, nil
}

// Import installs entries preserving versions (used by shard migration).
func (c *Client) Import(entries map[string]Versioned) error {
	var rep importReply
	return c.call("Import", &importReq{Entries: entries}, &rep)
}

// ExportLocks snapshots unexpired lock leases with the prefix (owner,
// absolute expiry and sequence intact) — the lock-table counterpart of
// Export, used by shard migration.
func (c *Client) ExportLocks(prefix string) (map[string]LockInfo, error) {
	var rep exportLocksReply
	if err := c.call("ExportLocks", &exportLocksReq{Prefix: prefix}, &rep); err != nil {
		return nil, err
	}
	return rep.Locks, nil
}

// ImportLocks installs lock leases (used by shard migration).
func (c *Client) ImportLocks(locks map[string]LockInfo) error {
	var rep importLocksReply
	return c.call("ImportLocks", &importLocksReq{Locks: locks}, &rep)
}

// replicate sends one replication message and waits for it (rebalance
// cleanup), bounded by replicateTimeout like the write path's forwards.
func (c *Client) replicate(r replReq) error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	var rep replReply
	if err := conn.CallDecode(ServiceName, "Replicate", &r, &rep, replicateTimeout); err != nil {
		return unwireError(err)
	}
	return nil
}

// goReplicate starts forwarding one encoded write delta (a replReq) to a
// backup and returns the call; the primary waits for it with
// replicateTimeout. payload must stay valid until the call completes.
func (c *Client) goReplicate(payload []byte) *transport.Call {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	return conn.GoBudget(ServiceName, "Replicate", payload, replicateTimeout)
}

// Convenience typed accessors used by core.State (the preprocessor-
// generated Store.get/Store.put calls of Fig. 6 in the paper).

// GetString fetches key as a string; missing keys return "".
func (c *Client) GetString(key string) (string, error) {
	v, err := c.Get(key)
	if err != nil {
		if errors.Is(err, ErrNotFound) {
			return "", nil
		}
		return "", err
	}
	return string(v.Value), nil
}

// PutString stores a string at key.
func (c *Client) PutString(key, value string) error {
	_, err := c.Put(key, []byte(value))
	return err
}

// GetInt64 fetches key as an int64; missing keys return 0.
func (c *Client) GetInt64(key string) (int64, error) {
	v, err := c.Get(key)
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

// PutInt64 stores an int64 at key.
func (c *Client) PutInt64(key string, value int64) error {
	_, err := c.Put(key, []byte(strconv.FormatInt(value, 10)))
	return err
}
