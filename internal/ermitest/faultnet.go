package ermitest

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elasticrmi/internal/group"
	"elasticrmi/internal/transport"
)

// Fault is the shared control plane of a fault-injected network: every
// connection accepted through a listener wrapped with it consults the same
// knobs, so a test can degrade a whole server at runtime. All methods are
// safe for concurrent use while traffic flows.
//
// The knobs map onto the failure modes distributed tests need:
//
//   - SetLatency: every Read/Write on every connection stalls first —
//     a slow network or an overloaded peer.
//   - Partition: both directions stall completely until healed — the
//     TCP-like partition where no byte is lost, only delayed. Closing a
//     connection unblocks its stalled operations.
//   - DropEveryN: every Nth write is silently discarded while claiming
//     success — framing corruption that must kill the connection without
//     killing the server.
//   - TruncateAfter: after a byte budget is spent, the connection emits a
//     final partial write and closes — a peer dying mid-frame.
type Fault struct {
	latency       atomic.Int64 // ns added to each Read and Write
	partitioned   atomic.Bool
	dropEvery     atomic.Int64 // every Nth Write discarded; 0 disables
	writeCount    atomic.Int64
	truncateLeft  atomic.Int64 // remaining Write byte budget; -1 disables
	truncateArmed atomic.Bool
}

// NewFault returns a control plane with every fault disabled.
func NewFault() *Fault {
	f := &Fault{}
	f.truncateLeft.Store(-1)
	return f
}

// SetLatency injects d of delay into every subsequent Read and Write.
func (f *Fault) SetLatency(d time.Duration) { f.latency.Store(int64(d)) }

// Partition stalls all traffic (both directions) while on; healing releases
// the stalled operations with no bytes lost.
func (f *Fault) Partition(on bool) { f.partitioned.Store(on) }

// DropEveryN silently discards every nth write across all connections
// (n <= 0 disables). Discarded writes claim success, so the peer sees a
// gap mid-stream — a framing-level corruption.
func (f *Fault) DropEveryN(n int64) {
	f.writeCount.Store(0)
	f.dropEvery.Store(n)
}

// TruncateAfter arms a write budget of n bytes across all connections: the
// write that exhausts it is emitted truncated and the connection closed,
// leaving the peer a partial frame.
func (f *Fault) TruncateAfter(n int64) {
	f.truncateLeft.Store(n)
	f.truncateArmed.Store(true)
}

// Clear disables every fault, returning the network to health. Already
// severed connections stay severed; new traffic flows cleanly.
func (f *Fault) Clear() {
	f.latency.Store(0)
	f.partitioned.Store(false)
	f.dropEvery.Store(0)
	f.truncateArmed.Store(false)
	f.truncateLeft.Store(-1)
}

// errInjected marks failures produced by the harness itself.
var errInjected = errors.New("ermitest: injected fault")

// Listener wraps an accepting socket so every accepted connection is
// subject to the Fault's knobs.
type Listener struct {
	net.Listener
	F *Fault
}

// WrapListener subjects every connection accepted by lis to f.
func WrapListener(lis net.Listener, f *Fault) *Listener {
	return &Listener{Listener: lis, F: f}
}

// Accept implements net.Listener.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return WrapConn(conn, l.F), nil
}

// Conn is a net.Conn under fault injection.
type Conn struct {
	net.Conn
	f *Fault

	closed atomic.Bool
	once   sync.Once
}

// WrapConn subjects an established connection to f.
func WrapConn(conn net.Conn, f *Fault) *Conn {
	return &Conn{Conn: conn, f: f}
}

// stall applies latency and blocks through partitions. It returns an error
// once the connection is closed so stalled operations terminate.
func (c *Conn) stall() error {
	if d := c.f.latency.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	for c.f.partitioned.Load() {
		if c.closed.Load() {
			return net.ErrClosed
		}
		time.Sleep(200 * time.Microsecond)
	}
	if c.closed.Load() {
		return net.ErrClosed
	}
	return nil
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.stall(); err != nil {
		return 0, err
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.stall(); err != nil {
		return 0, err
	}
	if n := c.f.dropEvery.Load(); n > 0 && c.f.writeCount.Add(1)%n == 0 {
		return len(p), nil // discarded, claiming success
	}
	if c.f.truncateArmed.Load() {
		left := c.f.truncateLeft.Add(-int64(len(p)))
		if left < 0 {
			keep := int64(len(p)) + left
			if keep > 0 {
				_, _ = c.Conn.Write(p[:keep])
			}
			c.Close()
			return int(max64(keep, 0)), errInjected
		}
	}
	return c.Conn.Write(p)
}

// Close implements net.Conn; it also releases operations stalled in a
// partition.
func (c *Conn) Close() error {
	c.closed.Store(true)
	var err error
	c.once.Do(func() { err = c.Conn.Close() })
	return err
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// ServeFaulty starts a transport server whose every connection runs under
// the Fault's knobs, with cleanup.
func ServeFaulty(t testing.TB, handler transport.Handler, f *Fault) *transport.Server {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ermitest: listen: %v", err)
	}
	srv, err := transport.ServeListener(WrapListener(lis, f), handler)
	if err != nil {
		t.Fatalf("ermitest: serve: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// Relay is a TCP relay in front of one server whose two directions fail
// independently: bytes from the server to a client pass through Down's
// knobs, bytes from a client to the server flow untouched. It models a
// client whose inbound path stalls — a frozen reader, a one-way partition —
// while its own requests still arrive, the interleaving a lease protocol
// must survive.
type Relay struct {
	Down *Fault

	lis    net.Listener
	target string
	mu     sync.Mutex
	conns  []net.Conn
	closed bool
}

// StartRelay listens on a loopback port and relays every accepted
// connection to target, with cleanup.
func StartRelay(t testing.TB, target string, down *Fault) *Relay {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("ermitest: relay listen: %v", err)
	}
	r := &Relay{Down: down, lis: lis, target: target}
	go r.accept()
	t.Cleanup(r.Close)
	return r
}

// Addr is the address clients dial instead of the target's.
func (r *Relay) Addr() string { return r.lis.Addr().String() }

func (r *Relay) accept() {
	for {
		client, err := r.lis.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", r.target)
		if err != nil {
			client.Close()
			continue
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			client.Close()
			server.Close()
			return
		}
		// The client side is closed through its fault wrapper, which also
		// releases a write stalled in a partition.
		down := WrapConn(client, r.Down)
		r.conns = append(r.conns, down, server)
		r.mu.Unlock()
		sever := func() { down.Close(); server.Close() }
		go pipe(server, client, sever)
		go pipe(down, server, sever)
	}
}

// pipe copies src to dst until either side fails, then severs the pair.
func pipe(dst io.Writer, src io.Reader, sever func()) {
	_, _ = io.CopyBuffer(dst, src, make([]byte, 32<<10))
	sever()
}

// Close stops the relay and severs every relayed connection.
func (r *Relay) Close() {
	r.mu.Lock()
	r.closed = true
	conns := r.conns
	r.conns = nil
	r.mu.Unlock()
	r.lis.Close()
	for _, c := range conns {
		c.Close()
	}
}

// DialServer connects a transport client to srv with cleanup.
func DialServer(t testing.TB, srv *transport.Server) *transport.Client {
	t.Helper()
	c, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("ermitest: dial %s: %v", srv.Addr(), err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// StartGroup spins up n group members sharing one installed view
// (coordinator first), with cleanup — the fixture every group-layer test
// needs before it can exercise broadcast or failure detection.
func StartGroup(t testing.TB, n int, heartbeat time.Duration) []*group.Member {
	t.Helper()
	members := make([]*group.Member, n)
	addrs := make([]string, n)
	for i := range members {
		m, err := group.NewMember(group.Config{HeartbeatInterval: heartbeat})
		if err != nil {
			t.Fatalf("ermitest: group member %d: %v", i, err)
		}
		t.Cleanup(func() { m.Close() })
		members[i] = m
		addrs[i] = m.Addr()
	}
	view := group.View{ID: 1, Members: addrs}
	for _, m := range members {
		if err := m.InstallView(view); err != nil {
			t.Fatalf("ermitest: InstallView: %v", err)
		}
	}
	return members
}

// Collect receives exactly n messages from m or fails the test at the
// timeout.
func Collect(t testing.TB, m *group.Member, n int, timeout time.Duration) []group.Message {
	t.Helper()
	var out []group.Message
	deadline := time.After(timeout)
	for len(out) < n {
		select {
		case msg := <-m.Messages():
			out = append(out, msg)
		case <-deadline:
			t.Fatalf("ermitest: received %d/%d messages before timeout", len(out), n)
		}
	}
	return out
}
