package live

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/spyker"
	"github.com/spyker-fl/spyker/internal/transport"
)

// TestServerTelemetry boots a 2-server ring, drives one sync round with
// hand-rolled client updates, and checks the telemetry snapshot tracks
// the token's movement, the membership address book, peer link state,
// and the staleness histogram — and that the snapshot survives its own
// wire codec.
func TestServerTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test skipped in -short mode")
	}
	const n = 2
	initial := make([]float64, 8)
	mk := func(id int) spyker.Config {
		cfg := ServerConfig(id, n, 1, fl.DefaultHyper(n*1, n))
		cfg.HInter = 2 // two updates trigger a sync round
		cfg.TokenTimeout = 5
		cfg.SyncRetry = 2.5
		return cfg
	}
	reg := obs.NewRegistry()
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		srv, err := NewServer(i, "127.0.0.1:0", mk(i), initial, i == 0)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}
	defer func() {
		// Peer links only drain when both ends close: tear down together.
		var wg sync.WaitGroup
		for _, srv := range servers {
			wg.Add(1)
			go func(s *Server) { defer wg.Done(); s.Close() }(srv)
		}
		wg.Wait()
	}()
	servers[0].Instrument(obs.NewMetricsSink(reg))
	servers[0].SetDebugAddr("127.0.0.1:7070")
	addrs := []string{servers[0].Addr(), servers[1].Addr()}
	for _, srv := range servers {
		if err := srv.ConnectPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}

	tel := servers[0].Telemetry()
	if tel.Version != obs.TelemetryVersion || tel.Server != 0 {
		t.Fatalf("snapshot identity: %+v", tel)
	}
	if !tel.HoldsToken || tel.TokenSilence < 0 || tel.TokenSilence > 5 {
		t.Errorf("initial holder token state: holds=%v silence=%v", tel.HoldsToken, tel.TokenSilence)
	}
	if tel.Addr != addrs[0] || tel.DebugAddr != "127.0.0.1:7070" {
		t.Errorf("addresses: %q %q", tel.Addr, tel.DebugAddr)
	}
	if len(tel.Members) != n || len(tel.Addrs) != n || tel.Addrs[1] != addrs[1] {
		t.Errorf("address book: members=%v addrs=%v", tel.Members, tel.Addrs)
	}
	if len(tel.Peers) != 1 || tel.Peers[0].Peer != 1 || tel.Peers[0].Failed {
		t.Errorf("peer links: %+v", tel.Peers)
	}
	if tel.TokenTimeout != 5 || tel.SyncRetry != 2.5 {
		t.Errorf("recovery config: %+v", tel)
	}

	// One hand-rolled client: two updates push server 0 over HInter, the
	// round completes, and the token moves to server 1.
	conn, err := transport.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.Send(&transport.Msg{Kind: transport.KindHello, From: 0, Bid: RoleClient}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		reply, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if reply.Kind != transport.KindModelReply {
			t.Fatalf("expected model reply, got %v", reply.Kind)
		}
		up := &transport.Msg{
			Kind: transport.KindClientUpdate, From: 0,
			Params: append([]float64(nil), reply.Params...), Age: reply.Age,
			UID: obs.UpdateUID(0, int64(i+1)),
		}
		if err := conn.Send(up); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "token handoff to server 1", 5*time.Second, func() bool {
		return servers[1].HoldsToken()
	})

	tel = servers[0].Telemetry()
	if tel.HoldsToken {
		t.Error("server 0 still reports the token after the handoff")
	}
	if tel.Updates != 2 {
		t.Errorf("updates = %d, want 2", tel.Updates)
	}
	if tel.SyncsTriggered != 1 {
		t.Errorf("syncs triggered = %d, want 1", tel.SyncsTriggered)
	}
	if tel.TokenSilence > 5 {
		t.Errorf("token silence %v after fresh handoff", tel.TokenSilence)
	}
	if got := tel.StalenessTotal(); got != 2 {
		t.Errorf("staleness histogram holds %d updates, want 2", got)
	}

	// The uninstrumented server snapshots too, without a histogram.
	tel1 := servers[1].Telemetry()
	if !tel1.HoldsToken || tel1.Server != 1 {
		t.Errorf("server 1 snapshot: %+v", tel1)
	}
	if len(tel1.StalenessCounts) != 0 {
		t.Errorf("uninstrumented server grew a histogram: %+v", tel1.StalenessCounts)
	}

	// Wire round-trip.
	var buf bytes.Buffer
	if err := obs.WriteTelemetry(&buf, tel); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ReadTelemetry(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Server != tel.Server || back.Updates != tel.Updates || back.Epoch != tel.Epoch {
		t.Errorf("round trip mismatch: %+v vs %+v", back, tel)
	}

	// The per-link byte series the sink derived from server 0's message
	// events sum to its exact frame totals. Every note runs under s.mu and
	// emits synchronously, so holding it freezes both sides.
	servers[0].mu.Lock()
	tx, rx := servers[0].txBytes.Load(), servers[0].rxBytes.Load()
	snap := reg.Snapshot()
	servers[0].mu.Unlock()
	var sent, recv int64
	for name, v := range snap {
		if strings.HasPrefix(name, obs.MetricLinkBytesSent+".s0->") {
			sent += v.(int64)
		}
		if strings.HasPrefix(name, obs.MetricLinkBytesRecv+".") && strings.HasSuffix(name, "->s0") {
			recv += v.(int64)
		}
	}
	if tx == 0 || sent != tx {
		t.Errorf("%s.s0->* series sum to %d, server 0 sent %d bytes", obs.MetricLinkBytesSent, sent, tx)
	}
	if rx == 0 || recv != rx {
		t.Errorf("%s.*->s0 series sum to %d, server 0 received %d bytes", obs.MetricLinkBytesRecv, recv, rx)
	}
}

// TestTelemetryStalenessIsPerServer instruments two servers into one
// registry, as RunCluster does, and sends client updates to server 1
// alone: server 1's telemetry holds their staleness, server 0's holds
// none, though the registry's cluster-wide histogram counts them all.
func TestTelemetryStalenessIsPerServer(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test skipped in -short mode")
	}
	const n, updates = 2, 5
	reg := obs.NewRegistry()
	sink := obs.NewMetricsSink(reg)
	servers := make([]*Server, n)
	addrs := make([]string, n)
	for i := range servers {
		cfg := ServerConfig(i, n, 1, fl.DefaultHyper(n, n))
		cfg.HInter, cfg.HIntra = math.Inf(1), math.Inf(1) // client merges only
		srv, err := NewServer(i, "127.0.0.1:0", cfg, make([]float64, 8), i == 0)
		if err != nil {
			t.Fatal(err)
		}
		srv.Instrument(sink)
		servers[i], addrs[i] = srv, srv.Addr()
	}
	defer closeAll(servers)
	for _, srv := range servers {
		if err := srv.ConnectPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}

	conn, err := transport.Dial(addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = conn.Close() }()
	if err := conn.Send(&transport.Msg{Kind: transport.KindHello, From: 1, Bid: RoleClient}); err != nil {
		t.Fatal(err)
	}
	// The client keeps training from the first model, age 0, so update i
	// merges with staleness i: 0+1+2+3+4.
	const staleSum = updates * (updates - 1) / 2
	for i := 0; i < updates; i++ {
		reply, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		up := &transport.Msg{Kind: transport.KindClientUpdate, From: 1, Params: reply.Params}
		if err := conn.Send(up); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "server 1 to merge every update", 5*time.Second, func() bool {
		return servers[1].Updates() == updates
	})

	if got := servers[1].Telemetry(); got.StalenessTotal() != updates || got.StalenessSum != staleSum {
		t.Errorf("server 1 reports %d staleness samples summing to %v, want %d summing to %d",
			got.StalenessTotal(), got.StalenessSum, updates, staleSum)
	}
	if got := servers[0].Telemetry(); got.Updates != 0 || got.StalenessTotal() != 0 {
		t.Errorf("server 0 merged %d updates but reports %d staleness samples", got.Updates, got.StalenessTotal())
	}
	if got := reg.Histogram(obs.MetricStaleness, nil).Count(); got != updates {
		t.Errorf("the shared registry's staleness histogram counts %d, want %d", got, updates)
	}
}
