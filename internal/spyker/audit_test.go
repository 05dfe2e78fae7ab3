package spyker

import (
	"math/rand"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/obs/audit"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// aggregateClients is how many clients take turns in the aggregate
// fixture; aggregateDim is the flat-model size the aggregation benchmarks
// standardized on (~25k parameters, the MNIST CNN).
const (
	aggregateClients = 8
	aggregateDim     = 25000
)

// aggregateConfig is a lone server that never synchronizes: only the
// client-update path runs.
func aggregateConfig() Config {
	cfg := coreConfig(0, 1, aggregateClients)
	cfg.HInter, cfg.HIntra = 1e18, 1e18
	cfg.DecayEnabled = false
	return cfg
}

// loneOutbound is an Outbound for a core with no peers: the reply is
// dropped and there is nobody to broadcast to.
func loneOutbound() Outbound { return &loopbackOut{cores: new([]*ServerCore)} }

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// newAggregateStep builds the aggregate fixture: one core and the step
// that hands it the next client's update. The handler consumes an update —
// the vector comes back holding the server's model, the reply — so merging
// one vector twice would merge a fixed point, with a zero delta the second
// time. Every client therefore has a vector of its own, and the step that
// starts a round first re-fills all of them from two pristine updates in
// alternation — two, because a model fed one update for ever converges
// onto it and the deltas vanish all the same.
func newAggregateStep(seed int64, dim int) (*ServerCore, func()) {
	rng := rand.New(rand.NewSource(seed))
	core := NewServerCore(aggregateConfig(), randVec(rng, dim), false, loneOutbound())
	pristine := [2][]float64{randVec(rng, dim), randVec(rng, dim)}
	updates := make([][]float64, aggregateClients)
	for k := range updates {
		updates[k] = make([]float64, dim)
	}
	k := 0
	return core, func() {
		if k%aggregateClients == 0 {
			for i, u := range updates {
				copy(u, pristine[i%2])
			}
		}
		core.HandleClientUpdate(k%aggregateClients, updates[k%aggregateClients], core.Age(), 0)
		k++
	}
}

// TestAuditDisarmedZeroAlloc pins the passivity contract's perf half:
// with no auditor armed, the client-update hot path stays at 0
// allocs/op — the audit extension costs exactly one nil check.
func TestAuditDisarmedZeroAlloc(t *testing.T) {
	core, step := newAggregateStep(7, aggregateDim)
	// Warm up: the first merge may grow the clip-path scratch once.
	for i := 0; i < 16; i++ {
		step()
	}
	before := tensor.Clone(core.Params())
	if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
		t.Fatalf("disarmed server-aggregate: %.1f allocs/op, want 0", allocs)
	}
	requireModelMoved(t, before, core.Params())
}

// TestAuditArmedZeroAllocSteadyState checks the armed path too: once
// every client's profile exists, auditing a merge reuses pooled scratch
// and allocates nothing.
func TestAuditArmedZeroAllocSteadyState(t *testing.T) {
	core, step := newAggregateStep(7, aggregateDim)
	core.ArmAudit(audit.NewRecorder(0, obs.Nop{}))
	// Warm up past profile creation and window fills for all 8 clients.
	for i := 0; i < aggregateClients*24; i++ {
		step()
	}
	before := tensor.Clone(core.Params())
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
	mk := func() *ServerCore {
		r := rand.New(rand.NewSource(7))
		return NewServerCore(aggregateConfig(), randVec(r, dim), false, loneOutbound())
	}
	plain := mk()
	armed := mk()
	armed.ArmAudit(audit.NewRecorder(0, obs.Nop{}))

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 300; i++ {
		// The handler consumes its vector (the reply is written into it),
		// so each core merges a copy of its own.
		u := randVec(rng, dim)
		plain.HandleClientUpdate(i%8, tensor.Clone(u), plain.Age(), 0)
		armed.HandleClientUpdate(i%8, u, armed.Age(), 0)
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
