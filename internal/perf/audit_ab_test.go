package perf

import (
	"math/rand"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/obs/audit"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// The allocation assertions below run the exact fixture the
// spyker/server-aggregate scenario measures (newAggregateStep), so they
// gate the same hot path the benchmark history (BENCH_*.json) tracks.

// TestAuditDisarmedZeroAlloc pins the passivity contract's perf half:
// with no auditor armed, the client-update hot path stays at 0
// allocs/op — the audit extension costs exactly one nil check.
func TestAuditDisarmedZeroAlloc(t *testing.T) {
	core, step := newAggregateStep(7, modelDim)
	// Warm up: the first merge may grow the clip-path scratch once.
	for i := 0; i < 16; i++ {
		step()
	}
	before := append([]float64(nil), core.Params()...)
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("disarmed server-aggregate: %.1f allocs/op, want 0", allocs)
	}
	requireModelMoved(t, before, core.Params())
}

// TestAuditArmedZeroAllocSteadyState checks the armed path too: once
// every client's profile exists, auditing a merge reuses pooled scratch
// and allocates nothing.
func TestAuditArmedZeroAllocSteadyState(t *testing.T) {
	core, step := newAggregateStep(7, modelDim)
	core.ArmAudit(audit.NewRecorder(audit.Config{}, 0, obs.Nop{}))
	// Warm up past profile creation and window fills for all 8 clients.
	for i := 0; i < aggregateClients*24; i++ {
		step()
	}
	before := append([]float64(nil), core.Params()...)
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("armed server-aggregate: %.1f allocs/op, want 0", allocs)
	}
	requireModelMoved(t, before, core.Params())
}

// requireModelMoved fails when the measured steps merged nothing: a
// fixture that replays a consumed vector would sit on a fixed point.
func requireModelMoved(t *testing.T, before, after []float64) {
	t.Helper()
	for i := range before {
		if before[i] != after[i] {
			return
		}
	}
	t.Fatal("the measured steps left the model where it was: every merged delta was zero")
}

// TestAuditArmedByteIdenticalModel is the passivity contract's
// correctness half: an armed core merges to the byte-identical model an
// unarmed core does, update for update.
func TestAuditArmedByteIdenticalModel(t *testing.T) {
	// A small dimension keeps 300 merges fast; the merge math is
	// dimension-uniform.
	const dim = 512
	cfg := spyker.Config{
		ID: 0, NumServers: 1, NumClients: 8,
		EtaServer: 0.6, Phi: 1.5, EtaA: 0.6,
		HInter: 1e18, HIntra: 1e18,
		ClientLR: 0.05,
	}
	mk := func() *spyker.ServerCore {
		r := rand.New(rand.NewSource(7))
		return spyker.NewServerCore(cfg, randVec(r, dim), false, nopOutbound{})
	}
	plain := mk()
	armed := mk()
	armed.ArmAudit(audit.NewRecorder(audit.Config{}, 0, obs.Nop{}))

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		// The handler consumes its vector (the reply is written into it),
		// so each core merges a copy of its own.
		u := randVec(rng, dim)
		plain.HandleClientUpdate(i%8, append([]float64(nil), u...), plain.Age())
		armed.HandleClientUpdate(i%8, u, armed.Age())
	}
	if plain.Age() != armed.Age() {
		t.Fatalf("ages diverged: plain %v armed %v", plain.Age(), armed.Age())
	}
	pw, aw := plain.Params(), armed.Params()
	for i := range pw {
		if pw[i] != aw[i] {
			t.Fatalf("model diverged at [%d]: plain %v armed %v", i, pw[i], aw[i])
		}
	}
}
