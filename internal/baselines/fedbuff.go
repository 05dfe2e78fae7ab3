package baselines

import (
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// FedBuff is a modern buffered-asynchronous baseline beyond the paper's
// comparison set (Nguyen et al., AISTATS 2022): the single server replies
// to every client immediately (keeping them busy, like FedAsync) but
// buffers the staleness-weighted update *deltas* and only folds them into
// the global model once K of them have accumulated. Buffering trades a
// little freshness for much lower variance per aggregation.
type FedBuff struct {
	server *asyncServer

	// lastSent remembers the exact model each client received, so the
	// server can recover the client's local delta from the returned
	// parameters.
	lastSent map[int][]float64

	buffer   []float64 // accumulated staleness-weighted deltas
	buffered int
	flushes  int
}

var _ fl.Algorithm = (*FedBuff)(nil)

// Name implements fl.Algorithm.
func (f *FedBuff) Name() string { return "FedBuff" }

// Build implements fl.Algorithm.
func (f *FedBuff) Build(env *fl.Env) error {
	s, initial, err := buildAsyncServer(env, f.handleUpdate)
	if err != nil {
		return err
	}
	f.server = s
	f.lastSent = make(map[int][]float64, len(env.Clients))
	for ci := range env.Clients {
		f.lastSent[ci] = initial
	}
	f.buffer = make([]float64, len(initial))
	return nil
}

// bufferK returns the aggregation buffer size: one tenth of the client
// population, at least 4 — the K≈10..30 regime the FedBuff paper uses for
// populations like ours.
func (f *FedBuff) bufferK() int {
	k := len(f.server.clients) / 10
	if k < 4 {
		k = 4
	}
	return k
}

func (f *FedBuff) handleUpdate(client int, update []float64, ver int) {
	s := f.server
	paramvec.Vec(f.buffer).AddScaledDiff(s.stalenessDiscount(ver), update, f.lastSent[client])
	f.buffered++

	if f.buffered >= f.bufferK() {
		inv := 1 / float64(f.buffered)
		paramvec.Vec(s.w).AxpyInto(s.env.Hyper.Alpha*2*inv, f.buffer)
		paramvec.Vec(f.buffer).Zero()
		f.buffered = 0
		s.version++
		f.flushes++
	}

	s.env.Observer.ClientUpdateProcessed(s.env.Sim.Now(), 0, client, s.params)

	// The reply stays owned (not pooled): lastSent legitimately retains it
	// until the client's next update, to recover the local delta.
	reply := tensor.Clone(s.w)
	f.lastSent[client] = reply
	s.env.SendOwned(0, s.clients[client], reply, float64(s.version), s.env.Hyper.ClientLR)
}

// GlobalParams exposes the live global model for tests.
func (f *FedBuff) GlobalParams() []float64 { return f.server.w }

// Flushes reports how many buffer aggregations have been applied.
func (f *FedBuff) Flushes() int { return f.flushes }
