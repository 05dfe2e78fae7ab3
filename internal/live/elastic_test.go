package live

import (
	"sync"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// TestLiveHotAdd is the live-runtime elastic-membership integration test,
// run in-process so -race covers the join paths: a two-server TCP ring
// trains with four clients, then a third server hot-adds itself through
// the join handshake — no restart, no pre-provisioned address. The
// sponsor admits it from a snapshot, bumps the membership epoch, and the
// epoch ripples over the ring until every server — including the one
// that never spoke to the joiner directly — has rewired onto the
// three-member ring and the joiner completes sync rounds of its own.
func TestLiveHotAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test skipped in -short mode")
	}
	const n = 2
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
		// Beyond the seed table the reconnect loop falls back to the
		// learned address book, which is how joiner links self-heal.
		srv.StartPeerReconnect(150*time.Millisecond, func(id int) string {
			if id < n {
				return table.get(id)
			}
			return ""
		})
	}
	for _, srv := range servers {
		if err := srv.ConnectPeers(table.addrs[:n]); err != nil {
			t.Fatal(err)
		}
		start(srv)
	}

	stop := make(chan struct{})
	var clientWG sync.WaitGroup
	for ci := 0; ci < 4; ci++ {
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
			total += srv.SyncsTriggered()
		}
		return total
	}
	waitFor(t, "first synchronizations on the 2-ring", 10*time.Second, func() bool {
		return syncs() >= 2
	})

	// Hot-add: the joiner knows only its sponsor's address.
	syncsBefore := syncs()
	joiner, err := JoinCluster(servers[0].Addr(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	servers = append(servers, joiner)
	start(joiner)

	want := ring.Membership{Epoch: 1, Members: []int{0, 1, 2}}
	waitFor(t, "every server to adopt the three-member ring", 10*time.Second, func() bool {
		for _, srv := range servers {
			if ring.Compare(srv.Membership(), want) != 0 {
				return false
			}
		}
		return true
	})

	// A re-homed client keeps the joiner fed with updates.
	c := &Client{ID: 4, Model: factory(104), Shard: shards[4], Epochs: 1}
	clientWG.Add(1)
	go func() {
		defer clientWG.Done()
		c.RunLoop(func() string { return joiner.Addr() }, 100*time.Millisecond, stop)
	}()

	// The joiner must take part in completed rounds — a full round now
	// needs all three broadcasts, so this proves the 2-ring's members
	// rewired onto it and it rewired onto them.
	waitFor(t, "the joiner to complete sync rounds", 15*time.Second, func() bool {
		return joiner.SyncsJoined() > 0 && joiner.Updates() > 0
	})
	waitFor(t, "the grown ring to keep synchronizing", 15*time.Second, func() bool {
		return syncs() > syncsBefore
	})

	t.Logf("hot-add complete: membership %v, joiner syncs %d, joiner updates %d, ring syncs %d (was %d)",
		joiner.Membership(), joiner.SyncsJoined(), joiner.Updates(), syncs(), syncsBefore)

	close(stop)
	closeAll(servers)
	clientWG.Wait()
}
