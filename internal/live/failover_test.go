package live

import (
	"os"
	"sync"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// addrTable is the shared "service discovery" of the failover test:
// servers and clients look addresses up per dial attempt, so a restarted
// server can come back on a different port.
type addrTable struct {
	mu    sync.Mutex
	addrs []string
}

func (a *addrTable) get(id int) string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.addrs[id]
}

func (a *addrTable) set(id int, addr string) {
	a.mu.Lock()
	a.addrs[id] = addr
	a.mu.Unlock()
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLiveFailover is the live-runtime failover integration test, run
// in-process so -race covers the recovery paths: three real TCP servers
// with token-loss recovery armed, six clients on redialing RunLoops. The
// current token holder is checkpointed and then killed mid-run (no
// shutdown frames, connections severed). The survivors must detect the
// silent ring and regenerate the token; after the killed server restarts
// from its checkpoint on a fresh port, peer reconnection re-wires the
// ring, its clients redial, and synchronization keeps advancing.
func TestLiveFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP failover test skipped in -short mode")
	}
	const n = 3
	factory, shards, _ := liveFactory(t)
	initial := factory(1).Params()

	mkCfg := func(id int) spyker.Config {
		cfg := ServerConfig(id, n, 2, fl.DefaultHyper(n*2, n))
		cfg.HInter = 3
		cfg.HIntra = 20
		cfg.TokenTimeout = 1.0 // wall seconds
		cfg.SyncRetry = 0.5
		return cfg
	}

	table := &addrTable{addrs: make([]string, n)}
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		srv, err := NewServer(i, "127.0.0.1:0", mkCfg(i), initial, i == 0)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		table.set(i, srv.Addr())
	}
	start := func(srv *Server) {
		srv.StartTokenTicker(100 * time.Millisecond)
		srv.StartPeerReconnect(150*time.Millisecond, table.get)
	}
	for _, srv := range servers {
		if err := srv.ConnectPeers(table.addrs); err != nil {
			t.Fatal(err)
		}
		start(srv)
	}

	// Six clients, two per server, all on redialing loops so the killed
	// server's clients survive its downtime.
	stop := make(chan struct{})
	var clientWG sync.WaitGroup
	for ci := 0; ci < 6; ci++ {
		c := &Client{ID: ci, Model: factory(int64(100 + ci)), Shard: shards[ci], Epochs: 1}
		home := ci / 2
		clientWG.Add(1)
		go func() {
			defer clientWG.Done()
			c.RunLoop(func() string { return table.get(home) }, 100*time.Millisecond, stop)
		}()
	}

	syncs := func() int {
		total := 0
		for _, srv := range servers {
			if srv != nil {
				total += srv.SyncsTriggered()
			}
		}
		return total
	}
	waitFor(t, "first synchronizations", 10*time.Second, func() bool { return syncs() >= 2 })

	// Kill whichever server holds the token right now (fall back to 0 if
	// it is in flight when the deadline hits — killing any server still
	// exercises recovery, since rounds need all three).
	victim := 0
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		found := false
		for i, srv := range servers {
			if srv.HoldsToken() {
				victim, found = i, true
				break
			}
		}
		if found {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	ckpt := t.TempDir() + "/victim.gob"
	if err := servers[victim].CheckpointToFile(ckpt); err != nil {
		t.Fatal(err)
	}
	t.Logf("killing server %d (holds token: %v)", victim, servers[victim].HoldsToken())
	servers[victim].Kill()
	table.set(victim, "") // down: clients and peers skip it until restart
	servers[victim] = nil

	// Survivors must detect the silent ring and mint a replacement token.
	waitFor(t, "token regeneration by a survivor", 10*time.Second, func() bool {
		for _, srv := range servers {
			if srv != nil && srv.TokenRegens() > 0 {
				return true
			}
		}
		return false
	})

	// Restart from the checkpoint on a fresh port and rejoin the ring.
	f, err := os.Open(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := ReadCheckpoint(f)
	_ = f.Close()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewServerFromCheckpoint("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	servers[victim] = restored
	table.set(victim, restored.Addr())
	if err := restored.ConnectPeers(table.addrs); err != nil {
		t.Fatal(err)
	}
	start(restored)

	// Post-rejoin: full rounds need all three servers again, so overall
	// synchronization must advance past its pre-restart count, and the
	// restored server must both see its clients come back and take part.
	syncsAtRestart := syncs()
	waitFor(t, "synchronization to advance past the restart", 15*time.Second, func() bool {
		return syncs() > syncsAtRestart
	})
	waitFor(t, "clients to re-engage the restored server", 15*time.Second, func() bool {
		return restored.Updates() > sumUpdates(st.Updates)
	})

	regens := 0
	for _, srv := range servers {
		regens += srv.TokenRegens()
	}
	t.Logf("failover complete: syncs %d (was %d at restart), regens %d, restored updates %d",
		syncs(), syncsAtRestart, regens, restored.Updates())

	close(stop)
	closeAll(servers)
	clientWG.Wait()
}
