package baselines

import "github.com/spyker-fl/spyker/internal/fl"

// FedAvg is the original synchronous single-server baseline (McMahan et
// al. 2017) with full participation: every round the server ships every
// client the global model, waits for all their updates, and replaces the
// model with their data-weighted average.
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
	// FedAvg weighs an update by its share of the shares' own float sum,
	// which is 1 only up to rounding.
	var total float64
	for _, ci := range all {
		total += shares[ci]
	}
	for _, ci := range all {
		shares[ci] /= total
	}
	s := newRoundServer(env, 0, env.Hyper.ProcFedAvg, env.NewModel(env.Seed).Params(), all, shares)
	f.server = s
	s.models = func() [][]float64 { return [][]float64{s.w} }
	s.after = s.startRound
	s.startRound()
	return nil
}

// GlobalParams exposes the live global model for tests.
func (f *FedAvg) GlobalParams() []float64 { return f.server.w }

// Rounds exposes how many rounds have started.
func (f *FedAvg) Rounds() int { return f.server.round }
