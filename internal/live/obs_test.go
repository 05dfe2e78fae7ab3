package live

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
)

// TestLiveClusterObservability runs a small instrumented cluster and
// checks that the trace carries message events from every layer, that the
// registry fills with derived metrics, and that the periodic stats log
// produces per-server lines. Exercised under -race by CI.
func TestLiveClusterObservability(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP test skipped in -short mode")
	}
	factory, shards, _ := liveFactory(t)
	hyper := fl.DefaultHyper(6, 2)
	hyper.HInter = 3
	hyper.HIntra = 20

	tracer := obs.NewTracer(0)
	reg := obs.NewRegistry()
	var statsBuf bytes.Buffer
	stats, err := RunCluster(ClusterConfig{
		NumServers: 2,
		NumClients: 6,
		Hyper:      hyper,
		NewModel:   factory,
		Shards:     shards,
		Seed:       1,
		Trace:      tracer,
		Metrics:    reg,
		StatsEvery: 200 * time.Millisecond,
		StatsOut:   &statsBuf,
	}, 1200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalUpdates() < 5 {
		t.Fatalf("only %d updates flowed", stats.TotalUpdates())
	}

	events := tracer.Events()
	if len(events) == 0 {
		t.Fatal("instrumented cluster produced no events")
	}
	kinds := map[obs.EventKind]int{}
	sawServerMsg := false
	for _, e := range events {
		kinds[e.Kind]++
		if (e.Kind == obs.KindMsgSend || e.Kind == obs.KindMsgRecv) && e.Node >= obs.ServerNode {
			sawServerMsg = true
			if e.Bytes <= 0 {
				t.Errorf("message event without byte size: %+v", e)
			}
		}
	}
	if kinds[obs.KindClientUpdate] == 0 {
		t.Error("no client-update events from the protocol core")
	}
	if kinds[obs.KindMsgSend] == 0 || kinds[obs.KindMsgRecv] == 0 {
		t.Errorf("missing message events: %d sends, %d recvs",
			kinds[obs.KindMsgSend], kinds[obs.KindMsgRecv])
	}
	if !sawServerMsg {
		t.Error("no message event carried a ServerNode-offset node ID")
	}

	// The metrics deriver must have filled the registry from the stream.
	snap := reg.Snapshot()
	if v, ok := snap[obs.MetricUpdates].(int64); !ok || v == 0 {
		t.Errorf("registry %s = %v, want > 0", obs.MetricUpdates, snap[obs.MetricUpdates])
	}
	if v, ok := snap[obs.MetricBytesSent].(int64); !ok || v == 0 {
		t.Errorf("registry %s = %v, want > 0", obs.MetricBytesSent, snap[obs.MetricBytesSent])
	}

	// Periodic stats: at least one snapshot of both servers.
	lines := strings.Split(strings.TrimSpace(statsBuf.String()), "\n")
	if len(lines) < 2 {
		t.Errorf("stats log has %d lines, want at least one per server", len(lines))
	}
	if !strings.Contains(statsBuf.String(), "server 0:") || !strings.Contains(statsBuf.String(), "server 1:") {
		t.Errorf("stats log missing per-server lines:\n%s", statsBuf.String())
	}

	// Causal provenance: live traces must reconstruct the same lineage
	// structure as simulator traces. Every client-update event carries a
	// client-minted UID and a frontier, and at least one update's
	// influence must have propagated to the other server via a traced
	// broadcast hop.
	for _, e := range events {
		if e.Kind == obs.KindClientUpdate {
			if _, _, ok := e.UID.Update(); !ok {
				t.Fatalf("client-update event without update UID: %+v", e)
			}
			if len(e.Front) == 0 {
				t.Fatalf("client-update event without frontier: %+v", e)
			}
		}
	}
	lin := obs.BuildLineage(events)
	if lin.Untracked != 0 {
		t.Errorf("%d untracked updates in a fully instrumented live run", lin.Untracked)
	}
	if len(lin.Updates) == 0 {
		t.Fatal("live trace reconstructed no update lineage")
	}
	var propagated *obs.UpdateLineage
	for _, u := range lin.Updates {
		if u.ReachedAll(2) {
			propagated = u
			break
		}
	}
	if propagated == nil {
		t.Fatal("no update propagated across servers in the live trace")
	}
	a := propagated.Arrivals[0]
	// Each server stamps events with its own start epoch; servers are
	// created sub-millisecond apart, so allow 10ms of clock skew.
	if a.Server == propagated.Origin || a.Time < propagated.Merged-0.01 {
		t.Errorf("implausible arrival %+v for journey %+v", a, propagated)
	}
	if chain := propagated.HopChain(a.Server); len(chain) == 0 {
		t.Errorf("no hop chain to server %d for %s", a.Server, propagated.Name())
	}

	// The per-link queueing-delay histograms must have matched send/recv
	// pairs on at least one server-server link.
	matched := false
	for i := 0; i < 2 && !matched; i++ {
		for j := 0; j < 2; j++ {
			if i == j {
				continue
			}
			h := reg.Histogram(obs.LinkDelayMetric(obs.ServerNode+i, obs.ServerNode+j), nil)
			if h.Count() > 0 {
				matched = true
				break
			}
		}
	}
	if !matched {
		t.Error("no link-delay histogram filled for any server-server link")
	}
}

// TestCheckpointEmitsEvent verifies that persisting a server snapshot
// produces a checkpoint event carrying the encoded size.
func TestCheckpointEmitsEvent(t *testing.T) {
	factory, _, _ := liveFactory(t)
	initial := factory(1).Params()
	cfg := ServerConfig(0, 2, 3, fl.DefaultHyper(6, 2))
	srv, err := NewServer(0, "127.0.0.1:0", cfg, initial, true)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	tracer := obs.NewTracer(0)
	srv.Instrument(tracer, nil)

	var buf bytes.Buffer
	if err := srv.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	var ev *obs.Event
	for _, e := range tracer.Events() {
		if e.Kind == obs.KindCheckpoint {
			e := e
			ev = &e
		}
	}
	if ev == nil {
		t.Fatal("no checkpoint event emitted")
	}
	if ev.Bytes != buf.Len() {
		t.Errorf("checkpoint event reports %d bytes, encoded %d", ev.Bytes, buf.Len())
	}
	if ev.Node != 0 {
		t.Errorf("checkpoint event node = %d, want 0", ev.Node)
	}
}
