package baselines

import (
	"math/rand"
	"sort"

	"github.com/spyker-fl/spyker/internal/fl"
)

// FedAvg is the original synchronous single-server baseline (McMahan et
// al. 2017): every round the server samples a set of clients
// (Hyper.FedAvgFraction; default everyone), ships them the global model,
// waits for every sampled update, and replaces the model with the
// data-weighted average over the round's participants.
type FedAvg struct {
	server *roundServer
}

var _ fl.Algorithm = (*FedAvg)(nil)

// Name implements fl.Algorithm.
func (f *FedAvg) Name() string { return "FedAvg" }

// Build implements fl.Algorithm. Like FedAsync, FedAvg collapses the
// deployment onto server 0.
func (f *FedAvg) Build(env *fl.Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	all := make([]int, len(env.Clients))
	for ci := range all {
		all[ci] = ci
	}
	shares, _ := env.DataShares(all)
	s := newRoundServer(env, 0, env.Hyper.ProcFedAvg, env.NewModel(env.Seed).Params(), all, shares)
	f.server = s
	s.models = func() [][]float64 { return [][]float64{s.w} }
	rng := rand.New(rand.NewSource(env.Seed + 31))
	s.sample = func() []int { return sampleClients(all, env.Hyper.FedAvgFraction, rng) }
	s.after = s.startRound
	s.startRound()
	return nil
}

// sampleClients draws a round's participant set from all (ascending) — the
// paper's "the server selects a set of clients"; a fraction of 0 or 1
// means everyone — and returns it in ascending order.
func sampleClients(all []int, frac float64, rng *rand.Rand) []int {
	if frac <= 0 || frac >= 1 {
		return all
	}
	k := int(float64(len(all)) * frac)
	if k < 1 {
		k = 1
	}
	// Shuffle a copy: the seeded draw must start from the same ascending
	// base order every round.
	picked := append([]int(nil), all...)
	rng.Shuffle(len(picked), func(i, j int) { picked[i], picked[j] = picked[j], picked[i] })
	picked = picked[:k]
	sort.Ints(picked)
	return picked
}

// GlobalParams exposes the live global model for tests.
func (f *FedAvg) GlobalParams() []float64 { return f.server.w }

// Rounds exposes how many rounds have started.
func (f *FedAvg) Rounds() int { return f.server.round }
