package live

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/transport"
)

const (
	floodDim     = 16384 // 128 KiB frames, the benchmark's model size
	floodUpdates = 1400  // more frames than any queue a server could hold for one client
	// poolBound is how many pooled buffers a server may have out with one
	// client stalled and one being served: a reply parked on the stalled
	// client's link, and a frame each in the other reader's hands.
	poolBound = 4
)

// floodServer starts a one-server ring and a client (id 100) that sends it
// updates without ever reading a reply, and returns once the flood has
// stalled: the server's update count has stood still for 300 ms. stop
// closes the flooding connection and waits for its sender.
func floodServer(t *testing.T) (srv *Server, stop func()) {
	t.Helper()
	srv, err := NewServer(0, "127.0.0.1:0", ServerConfig(0, 1, 2, fl.DefaultHyper(1, 2)), make([]float64, floodDim), true)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(&transport.Msg{Kind: transport.KindHello, From: 100, Bid: RoleClient}); err != nil {
		t.Fatal(err)
	}
	sent := make(chan int, 1)
	go func() {
		up := transport.Msg{Kind: transport.KindClientUpdate, From: 100, Params: make([]float64, floodDim)}
		n := 0
		for ; n < floodUpdates && conn.Send(&up) == nil; n++ {
		}
		sent <- n
	}()
	last, since := -1, time.Now()
	waitFor(t, "the flood to stall", 30*time.Second, func() bool {
		if n := srv.Updates(); n != last {
			last, since = n, time.Now()
		}
		return time.Since(since) > 300*time.Millisecond
	})
	return srv, func() {
		_ = conn.Close()
		t.Logf("the flooding client sent %d updates, the server merged %d", <-sent, last)
	}
}

// TestClientThatNeverReadsStallsOnlyItself: a client that sends updates
// and never reads a reply stalls its own connection and nothing else. The
// server holds a constant number of pooled buffers for it, not a queue of
// replies, and a second client is still served.
func TestClientThatNeverReadsStallsOnlyItself(t *testing.T) {
	srv, stop := floodServer(t)
	defer srv.Close()
	defer stop()
	live := srv.pool.Live()
	t.Logf("%d pooled buffers out with the flood stalled", live)
	if live > poolBound {
		t.Errorf("the stalled client holds %d pooled buffers (%d MB), want at most %d", live, live*8*floodDim>>20, poolBound)
	}

	conn, err := transport.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if err := conn.Send(&transport.Msg{Kind: transport.KindHello, From: 101, Bid: RoleClient}); err != nil {
		t.Fatal(err)
	}
	var in transport.Msg
	if err := conn.RecvInto(&in); err != nil {
		t.Fatalf("the second client got no first model: %v", err)
	}
	up := transport.Msg{Kind: transport.KindClientUpdate, From: 101, Params: make([]float64, floodDim), Age: in.Age}
	if err := conn.Send(&up); err != nil {
		t.Fatal(err)
	}
	if err := conn.RecvInto(&in); err != nil || in.Kind != transport.KindModelReply {
		t.Fatalf("the second client's update got no reply: kind %v, %v", in.Kind, err)
	}
	if live := srv.pool.Live(); live > poolBound {
		t.Errorf("%d pooled buffers out after serving the second client, want at most %d", live, poolBound)
	}
}

// TestCloseDoesNotWaitForAClientThatStoppedReading: Close writes to each
// client under a deadline, so a client whose socket is full holds it up
// for helloTimeout at most.
func TestCloseDoesNotWaitForAClientThatStoppedReading(t *testing.T) {
	srv, stop := floodServer(t)
	defer stop()
	start := time.Now()
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Logf("Close returned after %v", time.Since(start).Round(time.Millisecond))
	case <-time.After(helloTimeout + time.Second):
		t.Fatalf("Close still blocked after %v", time.Since(start).Round(time.Millisecond))
	}
}

// TestCloseAnswersAcceptedUpdatesBeforeShutdown closes a server while its
// clients are mid-update: eight raw clients in a closed loop and a RunLoop
// client that trains. Every update the server counted must have been
// answered before the shutdown frame — the replies the raw clients read sum
// to the server's count — every raw client must read that shutdown frame,
// and the RunLoop client must return on it rather than redial.
func TestCloseAnswersAcceptedUpdatesBeforeShutdown(t *testing.T) {
	factory, shards, _ := liveFactory(t)
	initial := factory(1).Params()
	dim := len(initial)
	srv, err := NewServer(0, "127.0.0.1:0", ServerConfig(0, 1, 9, fl.DefaultHyper(1, 9)), initial, true)
	if err != nil {
		t.Fatal(err)
	}

	stopLoop := make(chan struct{})
	defer close(stopLoop)
	loopDone := make(chan struct{})
	trainer := &Client{ID: 50, Model: factory(50), Shard: shards[0], Epochs: 1}
	go func() {
		trainer.RunLoop(func() string { return srv.Addr() }, 20*time.Millisecond, stopLoop)
		close(loopDone)
	}()

	const clients = 8
	replies := make([]int, clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		id := 100 + c
		conn, err := transport.Dial(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		if err := conn.Send(&transport.Msg{Kind: transport.KindHello, From: id, Bid: RoleClient}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var in transport.Msg
			if err := conn.RecvInto(&in); err != nil {
				errs <- fmt.Errorf("client %d: no first model: %v", id, err)
				return
			}
			up := transport.Msg{Kind: transport.KindClientUpdate, From: id, Params: make([]float64, dim)}
			for {
				up.Age = in.Age
				if err := conn.Send(&up); err != nil {
					errs <- fmt.Errorf("client %d: send after %d replies: %v", id, replies[c], err)
					return
				}
				if err := conn.RecvInto(&in); err != nil {
					errs <- fmt.Errorf("client %d: connection ended after %d replies without a shutdown frame: %v", id, replies[c], err)
					return
				}
				switch in.Kind {
				case transport.KindModelReply:
					replies[c]++
				case transport.KindShutdown:
					return
				default:
					errs <- fmt.Errorf("client %d: got %v", id, in.Kind)
					return
				}
			}
		}()
	}

	// Once a client is registered its first model is due before the
	// shutdown frame, so the trainer trains at least once. A connection
	// whose hello the server has not read yet gets no shutdown frame, so
	// every raw client must be registered too before the close.
	waitFor(t, "updates to flow", 10*time.Second, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.updates.Load() >= 100 && srv.clients[trainer.ID] != nil && len(srv.clients) == clients+1
	})
	srv.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	select {
	case <-loopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("the RunLoop client did not end on an orderly shutdown")
	}
	// A reply makes each client send again, so every client's last update
	// went unanswered, and the trainer, which sent one update per reply
	// after its first model, read one reply fewer than it trained.
	answered := trainer.Updates() - 1
	for _, n := range replies {
		answered += n
	}
	if got := srv.Updates(); answered != got {
		t.Errorf("clients read %d replies, the server counted %d updates", answered, got)
	}
}

// TestClientLinkIsOneGoroutine: a client connection costs the server one
// goroutine, its reader, which also writes the client's frames. A writer
// goroutine per client would double the count.
func TestClientLinkIsOneGoroutine(t *testing.T) {
	srv, err := NewServer(0, "127.0.0.1:0", ServerConfig(0, 1, 16, fl.DefaultHyper(1, 16)), make([]float64, handoffDim), true)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const clients, slack = 16, 2
	before := runtime.NumGoroutine()
	for id := 0; id < clients; id++ {
		conn := dialClient(t, srv, id)
		defer func() { _ = conn.Close() }()
	}
	if grown := runtime.NumGoroutine() - before; grown > clients+slack {
		t.Errorf("%d client connections grew the goroutine count by %d, want at most %d", clients, grown, clients+slack)
	}
}
