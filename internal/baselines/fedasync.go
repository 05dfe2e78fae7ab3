// Package baselines implements the comparison algorithms of the paper's
// evaluation: FedAvg (synchronous single-server), FedAsync (asynchronous
// single-server), HierFAVG (synchronous hierarchical multi-server), and
// Sync-Spyker (Spyker with a synchronous server-model exchange). All run
// under the same discrete-event environment as Spyker itself.
package baselines

import (
	"math"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// asyncServer is the single asynchronous server FedAsync and FedBuff both
// run: the deployment collapses onto server 0 — every client talks to it
// across whatever latency separates their regions — and each update,
// tagged with the model version it was trained from, is handled the moment
// the server's queue gets to it.
type asyncServer struct {
	env     *fl.Env
	queue   *fl.ProcQueue
	w       []float64
	version int
	clients map[int]*fl.SimClient
}

// buildAsyncServer builds the server and its clients and starts every
// client on the initial model, which it also returns. handle sees each
// update once it has cleared the processing queue.
func buildAsyncServer(env *fl.Env, handle func(client int, update []float64, ver int)) (*asyncServer, []float64, error) {
	if err := env.Validate(); err != nil {
		return nil, nil, err
	}
	initial := env.NewModel(env.Seed).Params()
	s := &asyncServer{
		env:     env,
		queue:   fl.NewProcQueue(env.Sim, 0, env.Observer),
		w:       tensor.Clone(initial),
		clients: make(map[int]*fl.SimClient, len(env.Clients)),
	}
	// An update's meta is the model version it was trained from.
	deliver := newInbox(env, s.queue, env.Hyper.ProcFedAsync, func(client int, update []float64, ver float64) {
		handle(client, update, int(ver))
	}).deliver
	for ci := range env.Clients {
		c := env.NewSimClient(ci, 0, deliver)
		s.clients[ci] = c
		c.HandleModel(initial, 0, env.Hyper.ClientLR)
	}
	return s, initial, nil
}

// stalenessDiscount is (1+staleness)^(-StalenessExp) for an update trained
// from model version ver.
func (s *asyncServer) stalenessDiscount(ver int) float64 {
	staleness := float64(s.version - ver)
	if staleness < 0 {
		staleness = 0
	}
	// math.Pow answers the exponent -0.5 with 1/Sqrt, calling no exp.
	return math.Pow(1+staleness, -s.env.Hyper.StalenessExp)
}

func (s *asyncServer) params() [][]float64 { return [][]float64{s.w} }

// FedAsync is the asynchronous single-server baseline (Xie et al. 2019):
// the server merges every client update the moment it arrives, weighted by
// alpha * (1+staleness)^(-a), and immediately returns the new global model
// to that client.
type FedAsync struct {
	server *asyncServer
}

var _ fl.Algorithm = (*FedAsync)(nil)

// Name implements fl.Algorithm.
func (f *FedAsync) Name() string { return "FedAsync" }

// Build implements fl.Algorithm.
func (f *FedAsync) Build(env *fl.Env) (err error) {
	f.server, _, err = buildAsyncServer(env, f.handleUpdate)
	return err
}

func (f *FedAsync) handleUpdate(client int, update []float64, ver int) {
	s := f.server
	alphaT := s.env.Hyper.Alpha * s.stalenessDiscount(ver)
	paramvec.Vec(s.w).WeightedMergeInto(alphaT, update)
	s.version++

	s.env.Observer.ClientUpdateProcessed(s.env.Sim.Now(), 0, client, s.params)
	s.env.SendModel(0, s.clients[client], s.w, float64(s.version), s.env.Hyper.ClientLR)
}

// GlobalParams exposes the live global model for tests.
func (f *FedAsync) GlobalParams() []float64 { return f.server.w }

// Version exposes the number of aggregated updates for tests.
func (f *FedAsync) Version() int { return f.server.version }
