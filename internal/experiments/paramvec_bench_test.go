package experiments

import (
	"math/rand"
	"testing"

	"github.com/spyker-fl/spyker/internal/data"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/nn"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// nopOutbound swallows everything a ServerCore emits, so the benchmarks
// below measure the aggregation math itself, not a transport.
type nopOutbound struct{}

func (nopOutbound) ReplyClient(int, []float64, float64, float64)                     {}
func (nopOutbound) BroadcastModel([]float64, float64, int, obs.UID, ring.Membership) {}
func (nopOutbound) BroadcastAge(float64, ring.Membership)                            {}
func (nopOutbound) SendToken(t spyker.Token, next int)                               {}

func benchModel(b *testing.B) fl.Model {
	b.Helper()
	ds := data.GenerateImages(data.MNISTLike(20, 30, 1))
	rng := rand.New(rand.NewSource(1))
	ch, h, w := ds.Shape()
	conv := nn.NewConv2D(ch, h, w, 6, 3, rng)
	pool := nn.NewMaxPool2D(6, 10, 10)
	net := nn.NewNetwork(
		conv, nn.NewReLU(conv.OutSize()), pool,
		nn.NewDense(pool.OutSize(), 32, rng), nn.NewReLU(32),
		nn.NewDense(32, ds.NumClasses(), rng),
	)
	return fl.NewClassifier(net, ds, ds.TestSet(), 10, 1)
}

// BenchmarkParamsRoundTrip measures the cost of one full model
// export/import cycle — the unit of every simulated or live model
// exchange.
func BenchmarkParamsRoundTrip(b *testing.B) {
	m := benchModel(b)
	p := m.Params()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p = m.Params()
		m.SetParams(p)
	}
	_ = p
}

// BenchmarkServerAggregate measures the Spyker server's client-update hot
// path: staleness-weighted merge plus the model reply, over a
// realistically sized (25k-parameter) flat vector.
func BenchmarkServerAggregate(b *testing.B) { benchmarkServerAggregate(b, 0) }

// BenchmarkServerAggregateClipped is the same hot path with
// Byzantine-robust norm clipping enabled, which additionally computes the
// update delta and its norm per update.
func BenchmarkServerAggregateClipped(b *testing.B) { benchmarkServerAggregate(b, 3) }

// benchmarkServerAggregate feeds a core eight clients' updates in turn.
// The handler consumes an update — it comes back holding the server's
// model — so a vector merged twice would be a fixed point with a zero
// delta the second time. Each client therefore has its own vector, and
// all eight are re-filled outside the timer once each has been merged —
// from two pristine updates in alternation, because a model fed one update
// for ever converges onto it and the deltas vanish all the same.
func benchmarkServerAggregate(b *testing.B, clip float64) {
	const n, clients = 25000, 8
	cfg := spyker.Config{
		ID: 0, NumServers: 1, NumClients: clients,
		EtaServer: 0.6, Phi: 1.5, EtaA: 0.6,
		HInter: 1e18, HIntra: 1e18, // never trigger a sync mid-benchmark
		ClientLR:         0.05,
		RobustClipFactor: clip,
	}
	initial := make([]float64, n)
	pristine := [2][]float64{make([]float64, n), make([]float64, n)}
	rng := rand.New(rand.NewSource(2))
	for i := range initial {
		initial[i] = rng.NormFloat64()
		pristine[0][i] = rng.NormFloat64()
		pristine[1][i] = rng.NormFloat64()
	}
	updates := make([][]float64, clients)
	for k := range updates {
		updates[k] = make([]float64, n)
	}
	core := spyker.NewServerCore(cfg, initial, false, nopOutbound{})
	refill := func() {
		for j, u := range updates {
			copy(u, pristine[j%2])
		}
	}
	// Two untimed rounds first: a client's first update inserts its map
	// entries (the maps finish growing on the next write after that) and
	// the clip path's first grows its scratch, so that the CI smoke run
	// (-benchtime=1x) reports the steady state's 0 allocs/op.
	for round := 0; round < 2; round++ {
		refill()
		for k, u := range updates {
			core.HandleClientUpdate(k, u, core.Age(), 0)
		}
	}
	refill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % clients
		if k == 0 && i > 0 {
			b.StopTimer()
			refill()
			b.StartTimer()
		}
		core.HandleClientUpdate(k, updates[k], core.Age(), 0)
	}
}
