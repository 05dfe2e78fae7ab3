package live

import (
	"math"
	"runtime"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/transport"
)

const handoffDim = 4096 // 32 KiB frames: larger than one socket write

// handoffRing starts a two-server ring that synchronizes often, so pooled
// broadcast copies are in flight beside the handed-off reply buffers.
func handoffRing(t *testing.T) []*Server {
	t.Helper()
	servers := make([]*Server, 2)
	addrs := make([]string, 2)
	for i := range servers {
		srv, err := NewServer(i, "127.0.0.1:0", ServerConfig(i, 2, 1, fl.DefaultHyper(2, 2)), make([]float64, handoffDim), i == 0)
		if err != nil {
			t.Fatal(err)
		}
		servers[i], addrs[i] = srv, srv.Addr()
	}
	for _, srv := range servers {
		if err := srv.ConnectPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	return servers
}

// dialClient connects client id to srv and returns after the first model.
func dialClient(t *testing.T, srv *Server, id int) *transport.Conn {
	t.Helper()
	conn, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&transport.Msg{Kind: transport.KindHello, From: id, Bid: RoleClient}); err != nil {
		t.Fatal(err)
	}
	var first transport.Msg
	if err := conn.RecvInto(&first); err != nil {
		t.Fatal(err)
	}
	if first.Kind != transport.KindModelReply || len(first.Params) != handoffDim {
		t.Fatalf("first model: kind %v, %d params", first.Kind, len(first.Params))
	}
	return conn
}

// constantUpdate is update j of a pipelining client: every element j+1.
// The ring starts from the zero model and merges and averages only such
// vectors, so every model — and every reply — is a constant vector too. A
// reply whose buffer a reader was still receiving into would not be.
func constantUpdate(id, j int) *transport.Msg {
	up := &transport.Msg{Kind: transport.KindClientUpdate, From: id, Params: make([]float64, handoffDim)}
	for i := range up.Params {
		up.Params[i] = float64(j + 1)
	}
	return up
}

// TestPipelinedUpdatesGetWholeReplies: a client that sends its updates
// back to back, without waiting for replies, keeps the server's reader
// sending: the server's reader sends reply j and only then receives update
// j+1, into a fresh buffer. Each reply leaves in the buffer its update
// arrived in, so the receive must never land in a buffer still being
// sent: every reply is whole (length D, finite, constant — see
// constantUpdate), every update is counted, and every pooled buffer is
// back once the ring has closed.
func TestPipelinedUpdatesGetWholeReplies(t *testing.T) {
	servers := handoffRing(t)
	srv := servers[0]
	conn := dialClient(t, srv, 100)

	const updates = 200
	sendErr := make(chan error, 1)
	go func() {
		for j := 0; j < updates; j++ {
			if err := conn.Send(constantUpdate(100, j)); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()
	var reply transport.Msg
	for j := 0; j < updates; j++ {
		if err := conn.RecvInto(&reply); err != nil {
			t.Fatalf("reply %d: %v", j, err)
		}
		if reply.Kind != transport.KindModelReply || len(reply.Params) != handoffDim {
			t.Fatalf("reply %d: kind %v, %d params", j, reply.Kind, len(reply.Params))
		}
		for i, v := range reply.Params {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("reply %d: params[%d] = %v", j, i, v)
			}
			if v != reply.Params[0] {
				t.Fatalf("reply %d is torn: params[%d] = %v beside params[0] = %v", j, i, v, reply.Params[0])
			}
		}
	}
	if err := <-sendErr; err != nil {
		t.Fatalf("sending: %v", err)
	}
	waitFor(t, "every pipelined update to be counted", 5*time.Second, func() bool {
		return srv.Updates() == updates
	})
	_ = conn.Close()
	closeAll(servers)
	for i, s := range servers {
		if live := s.pool.Live(); live != 0 {
			t.Errorf("server %d: %d pooled buffers still out after close", i, live)
		}
	}
}

// TestReplyBufferReturnsWithoutAReceiver: a reply's buffer goes back to
// the pool exactly once also when nobody takes the reply — the client is
// not (or no longer) registered, or its connection died with replies still
// queued behind it.
func TestReplyBufferReturnsWithoutAReceiver(t *testing.T) {
	servers := handoffRing(t)
	srv := servers[0]

	// No such client: the buffer returns inside the call.
	buf := srv.pool.Get(handoffDim)
	srv.mu.Lock()
	(*serverOutbound)(srv).ReplyClient(12345, buf, 1, 0.05)
	srv.mu.Unlock()
	if live := srv.pool.Live(); live != 0 {
		t.Fatalf("a reply to an unknown client left %d buffers out, want 0", live)
	}

	// A client that pipelines updates and hangs up without reading one
	// reply: its reader's send fails with a reply parked, and returns the
	// reply's buffer all the same.
	conn := dialClient(t, srv, 100)
	const updates = 64
	sent := 0
	for ; sent < updates; sent++ {
		if err := conn.Send(constantUpdate(100, sent)); err != nil {
			break // the server may already have given up on us
		}
	}
	_ = conn.Close()
	if sent == 0 {
		t.Fatal("no update left the client")
	}

	closeAll(servers)
	for i, s := range servers {
		if live := s.pool.Live(); live != 0 {
			t.Errorf("server %d: %d pooled buffers still out after close, want 0", i, live)
		}
	}
	if srv.Updates() > sent {
		t.Errorf("server counted %d updates of %d sent", srv.Updates(), sent)
	}
}

// TestClientLinkEndsWithItsConnection: one client id connects fifty
// times. Even rounds hang up before the next hello, so the reader's exit
// has to retire the link; odd rounds stay connected until the next hello
// has replaced them, so the re-hello has to close the replaced connection.
// Either way no link may outlive its connection: after Close every one of
// the fifty connections is closed on the server's side and no goroutine of
// the server is left.
func TestClientLinkEndsWithItsConnection(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, err := NewServer(0, "127.0.0.1:0", ServerConfig(0, 1, 1, fl.DefaultHyper(1, 1)), make([]float64, handoffDim), true)
	if err != nil {
		t.Fatal(err)
	}
	const id, rounds = 7, 50
	var links []*clientLink
	var replaced *transport.Conn
	for i := 0; i < rounds; i++ {
		conn := dialClient(t, srv, id)
		srv.mu.Lock()
		links = append(links, srv.clients[id])
		srv.mu.Unlock()
		if replaced != nil {
			_ = replaced.Close()
			replaced = nil
		}
		if i%2 == 0 {
			_ = conn.Close()
		} else {
			replaced = conn
		}
	}
	_ = replaced.Close()
	srv.Close()

	for i, l := range links {
		if l == nil {
			t.Fatalf("round %d: no link registered after the first model arrived", i)
		}
		if err := l.conn.SetWriteDeadline(time.Time{}); err == nil {
			t.Errorf("round %d: the server's end of the connection is still open after Close", i)
		}
	}
	// Close has waited for every reader; the poll only covers one between
	// its last statement and its exit.
	waitFor(t, "the server's goroutines to exit", 5*time.Second, func() bool {
		return runtime.NumGoroutine() <= before
	})
}

// TestIdleServerHoldsNoModelBuffer: a server holds a model buffer only
// while a frame is in it. In a three-server ring with one client each,
// after the hellos, a few updates per client and a sync round, every
// server's pool has nothing out once the links are quiet — though every
// client and every peer link is still connected, and each of those
// connections has a reader waiting on it.
func TestIdleServerHoldsNoModelBuffer(t *testing.T) {
	const n = 3
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range servers {
		cfg := ServerConfig(i, n, 1, fl.DefaultHyper(n, n))
		cfg.HInter, cfg.HIntra = math.Inf(1), 2 // the token holder starts a round after its second update
		srv, err := NewServer(i, "127.0.0.1:0", cfg, make([]float64, handoffDim), i == 0)
		if err != nil {
			t.Fatal(err)
		}
		servers[i], addrs[i] = srv, srv.Addr()
	}
	defer closeAll(servers)
	for _, srv := range servers {
		if err := srv.ConnectPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	for i, srv := range servers {
		conn := dialClient(t, srv, 100+i)
		defer func() { _ = conn.Close() }()
		var reply transport.Msg
		for j := range 4 {
			if err := conn.Send(constantUpdate(100+i, j)); err != nil {
				t.Fatal(err)
			}
			if err := conn.RecvInto(&reply); err != nil || reply.Kind != transport.KindModelReply {
				t.Fatalf("server %d, update %d: reply %v, %v", i, j, reply.Kind, err)
			}
		}
	}
	// The round ends when the holder has every member's model and passes
	// the token on; by then every broadcast has been sent or is on its way.
	// The holder starts a round at its second update, under the handler,
	// so its broadcast is on its way before the reply to that update.
	if servers[0].SyncsTriggered() == 0 {
		t.Fatal("no sync round started")
	}
	// Each server sent its client one frame more than it received (the
	// first model), so the links are quiet once the rest of what the
	// servers sent each other has been dispatched.
	w := int64(transport.MsgWireBytes(constantUpdate(0, 0)))
	waitFor(t, "the links to go quiet", 5*time.Second, func() bool {
		var unread int64
		for _, s := range servers {
			unread += s.txBytes.Load() - s.rxBytes.Load()
		}
		return unread == n*w
	})
	waitFor(t, "every pooled buffer to return", 5*time.Second, func() bool {
		for _, s := range servers {
			if s.pool.Live() != 0 {
				return false
			}
		}
		return true
	})
	for i, s := range servers {
		s.mu.Lock()
		clients, peers := len(s.clients), len(s.peers)
		s.mu.Unlock()
		if clients != 1 || peers != n-1 {
			t.Errorf("server %d: %d clients and %d peer links while idle, want 1 and %d", i, clients, peers, n-1)
		}
	}
}
