package live

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/transport"
)

// stalledSender is a peer link whose peer stopped reading: Send blocks
// until Close, as a write stuck on a socket ends when the socket closes.
type stalledSender struct {
	transport.Sender
	release chan struct{}
	once    sync.Once
	closed  atomic.Bool
}

func newStalledSender() *stalledSender { return &stalledSender{release: make(chan struct{})} }

func (s *stalledSender) Send(*transport.Msg) error {
	<-s.release
	return errors.New("stalled peer")
}

func (s *stalledSender) Close() error {
	s.closed.Store(true)
	s.once.Do(func() { close(s.release) })
	return s.Sender.Close()
}

// pairWithLink starts two servers and links server 0 to server 1, with
// server 0's token timeout (which sets its links' stall time; no ticker
// runs, so it arms nothing else) and setup applied before it dials.
func pairWithLink(t *testing.T, initial []float64, tokenTimeout float64, setup func(a *Server)) []*Server {
	t.Helper()
	servers := make([]*Server, 2)
	for i := range servers {
		cfg := ServerConfig(i, 2, 1, fl.DefaultHyper(2, 2))
		if i == 0 {
			cfg.TokenTimeout = tokenTimeout
		}
		srv, err := NewServer(i, "127.0.0.1:0", cfg, initial, i == 0)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	setup(servers[0])
	if err := servers[0].ConnectPeers([]string{servers[0].Addr(), servers[1].Addr()}); err != nil {
		t.Fatal(err)
	}
	return servers
}

// broadcastBurst sends frames broadcasts of kind "model" or "age" from a
// under its mutex, as the core's handlers do, and reports whether they all
// returned within limit.
func broadcastBurst(a *Server, kind string, frames int, initial []float64, limit time.Duration) bool {
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.mu.Lock()
		defer a.mu.Unlock()
		out := (*serverOutbound)(a)
		for i := range frames {
			if kind == "model" {
				out.BroadcastModel(initial, float64(i), i+1, 0, a.core.Membership())
			} else {
				out.BroadcastAge(float64(i), a.core.Membership())
			}
		}
	}()
	select {
	case <-done:
		return true
	case <-time.After(limit):
		return false
	}
}

// TestStalledPeerNeverBlocksItsSender: a peer link whose Send never
// returns takes every broadcast without blocking, though they run under
// the server's mutex — 2 000 frames are past the 1 024 a bounded queue
// would hold, where a blocking enqueue would stop the server. Once its
// Send has taken longer than the stall time (here the 0.2 s token
// timeout), the next frame fails the link: its connection is closed and
// every queued frame goes back to the pool.
func TestStalledPeerNeverBlocksItsSender(t *testing.T) {
	factory, _, _ := liveFactory(t)
	initial := factory(1).Params()
	for _, kind := range []string{"model", "age"} {
		stall := newStalledSender()
		servers := pairWithLink(t, initial, 0.2, func(a *Server) {
			a.SetPeerWrapper(func(_ int, conn transport.Sender) transport.Sender {
				stall.Sender = conn
				return stall
			})
		})
		a := servers[0]
		const frames = 2000
		if !broadcastBurst(a, kind, frames, initial, 10*time.Second) {
			t.Fatalf("%s frames: a broadcast to a stalled peer blocked its sender", kind)
		}
		time.Sleep(300 * time.Millisecond)
		broadcastBurst(a, kind, 1, initial, 10*time.Second)
		a.mu.Lock()
		failed := a.peers[1].failed.Load()
		a.mu.Unlock()
		if !failed || !stall.closed.Load() {
			t.Errorf("%s frames: a link stalled past its stall time: failed %v, connection closed %v; want both", kind, failed, stall.closed.Load())
		}
		waitFor(t, kind+" frames back in the pool", 5*time.Second, func() bool { return a.pool.Live() == 0 })
		closeAll(servers)
	}
}

// TestSlowPeerLinkHoldsItsBacklog: a healthy link with Tab. 4's longest
// one-way delay (Sydney to Paris, 280 ms) holds every frame enqueued
// during that delay — here 3 000 age frames and 12 model frames at once,
// past both the 1 024-frame channel and the 8-model-frame byte cap a
// bounded queue would have failed the link at. The link must not fail,
// and every frame arrives.
func TestSlowPeerLinkHoldsItsBacklog(t *testing.T) {
	factory, _, _ := liveFactory(t)
	initial := factory(1).Params()
	servers := pairWithLink(t, initial, 0, func(a *Server) { a.InjectLatency(280*time.Millisecond, 0) })
	defer closeAll(servers)
	a, b := servers[0], servers[1]

	if !broadcastBurst(a, "age", 3000, initial, 10*time.Second) || !broadcastBurst(a, "model", 12, initial, 10*time.Second) {
		t.Fatal("a broadcast to a slow peer blocked its sender")
	}
	waitFor(t, "every frame to arrive", 10*time.Second, func() bool { return b.rxBytes.Load() == a.txBytes.Load() })
	a.mu.Lock()
	failed := a.peers[1].failed.Load()
	a.mu.Unlock()
	if failed || b.Rejects() != 0 {
		t.Errorf("a slow, healthy link: failed %v, %d frames refused; want neither", failed, b.Rejects())
	}
}

// TestStalledPeerLinkIsReplaced: in a 3-server ring with token recovery
// armed, server 0's first link to server 1 stalls. Past the 1 s token
// timeout the link fails, the reconnect loop replaces it, server 0 keeps
// answering its clients throughout, synchronization goes on over the new
// link, and the ring ends with exactly one token.
func TestStalledPeerLinkIsReplaced(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test skipped in -short mode")
	}
	const n = 3
	factory, shards, _ := liveFactory(t)
	initial := factory(1).Params()
	table := &addrTable{addrs: make([]string, n)}
	servers := make([]*Server, n)
	for i := range servers {
		cfg := ServerConfig(i, n, 2, fl.DefaultHyper(n*2, n))
		cfg.HInter, cfg.HIntra = 3, 20
		cfg.TokenTimeout, cfg.SyncRetry = 1.0, 0.5 // wall seconds
		srv, err := NewServer(i, "127.0.0.1:0", cfg, initial, i == 0)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		table.set(i, srv.Addr())
	}
	stall := newStalledSender()
	var stalled atomic.Bool
	servers[0].SetPeerWrapper(func(peer int, conn transport.Sender) transport.Sender {
		if peer != 1 || stalled.Swap(true) {
			return conn
		}
		stall.Sender = conn
		return stall
	})
	for _, srv := range servers {
		if err := srv.ConnectPeers(table.addrs); err != nil {
			t.Fatal(err)
		}
		srv.StartTokenTicker(100 * time.Millisecond)
		srv.StartPeerReconnect(150*time.Millisecond, table.get)
	}

	stop := make(chan struct{})
	var clientWG sync.WaitGroup
	for ci := range 2 * n {
		c := &Client{ID: ci, Model: factory(int64(100 + ci)), Shard: shards[ci], Epochs: 1}
		home := ci / 2
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			c.RunLoop(func() string { return table.get(home) }, 100*time.Millisecond, stop)
		}()
	}
	syncs := func() (total int) {
		for _, srv := range servers {
			total += srv.SyncsTriggered()
		}
		return total
	}

	waitFor(t, "the stalled link to be replaced", 20*time.Second, func() bool {
		return stall.closed.Load() && servers[0].reconnects.Load() > 0
	})
	updates, rounds := servers[0].Updates(), syncs()
	waitFor(t, "server 0 to keep answering its clients", 10*time.Second, func() bool {
		return servers[0].Updates() >= updates+10
	})
	waitFor(t, "synchronization over the new link", 10*time.Second, func() bool {
		return syncs() > rounds
	})

	// The ring ends with one token. Servers that heard nothing while the
	// link stalled regenerate theirs, and the bid order retires the losers
	// as they move on; then, over a second of sampling, no two servers hold
	// one at once, and one does at some point.
	waitFor(t, "a single token", 20*time.Second, func() bool {
		seen := false
		for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
			holders := 0
			for _, srv := range servers {
				if srv.HoldsToken() {
					holders++
				}
			}
			if holders > 1 {
				return false
			}
			seen = seen || holders == 1
		}
		return seen
	})
	close(stop)
	closeAll(servers)
	clientWG.Wait()
}

// gatedSender is a peer link that sends nothing until its gate opens.
type gatedSender struct {
	transport.Sender
	gate chan struct{}
	once sync.Once
}

func (g *gatedSender) open() { g.once.Do(func() { close(g.gate) }) }

func (g *gatedSender) Send(m *transport.Msg) error {
	<-g.gate
	return g.Sender.Send(m)
}

// TestBroadcastIsOneSharedBuffer: a model broadcast to two peers is one
// pooled buffer, shared by both outboxes, and it comes back exactly once,
// after the last outbox lets go of it. Server 0's link to server 1 stalls
// and fails past its stall time; its link to server 2 sends once its gate
// opens. A copy per peer leaves two buffers out, a countdown that returns
// the buffer at the first outbox leaves none while the stalled link still
// holds the frame, and a double return leaves the pool's count below zero.
func TestBroadcastIsOneSharedBuffer(t *testing.T) {
	const n, dim = 3, 64
	initial := make([]float64, dim)
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range servers {
		cfg := ServerConfig(i, n, 1, fl.DefaultHyper(n, n))
		if i == 0 {
			cfg.TokenTimeout = 0.2 // the links' stall time; no ticker runs
		}
		srv, err := NewServer(i, "127.0.0.1:0", cfg, initial, i == 0)
		if err != nil {
			t.Fatal(err)
		}
		servers[i], addrs[i] = srv, srv.Addr()
	}
	defer closeAll(servers)
	a := servers[0]
	stall := newStalledSender()
	gated := &gatedSender{gate: make(chan struct{})}
	a.SetPeerWrapper(func(peer int, conn transport.Sender) transport.Sender {
		if peer == 1 {
			stall.Sender = conn
			return stall
		}
		gated.Sender = conn
		return gated
	})
	if err := a.ConnectPeers(addrs); err != nil {
		t.Fatal(err)
	}
	a.mu.Lock()
	stalled, sending := a.peers[1], a.peers[2]
	a.mu.Unlock()
	defer func() { // a failed check must not leave Close waiting on either link
		gated.open()
		stall.once.Do(func() { close(stall.release) })
	}()

	if !broadcastBurst(a, "model", 1, initial, 5*time.Second) {
		t.Fatal("the broadcast blocked its sender")
	}
	if live := a.pool.Live(); live != 1 {
		t.Fatalf("a broadcast to two peers has %d pooled buffers out, want 1", live)
	}
	gated.open()
	waitFor(t, "the open link to send its frame", 5*time.Second, func() bool { return sending.depth.Load() == 0 })
	if live := a.pool.Live(); live != 1 {
		t.Fatalf("with the stalled link still holding the frame, %d pooled buffers are out, want 1", live)
	}
	time.Sleep(300 * time.Millisecond)
	broadcastBurst(a, "age", 1, initial, 5*time.Second) // sees the stall and fails the link
	waitFor(t, "the failed link to let go of its frames", 5*time.Second, func() bool { return stalled.depth.Load() == 0 })
	if !stalled.failed.Load() || sending.failed.Load() {
		t.Errorf("link to server 1 failed %v, to server 2 failed %v; want true and false", stalled.failed.Load(), sending.failed.Load())
	}
	if live := a.pool.Live(); live != 0 {
		t.Errorf("after both links let go of the broadcast, %d pooled buffers are out, want 0", live)
	}
}
