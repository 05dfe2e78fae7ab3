package baselines

import (
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// roundServer is the synchronous-round actor FedAvg's server and
// HierFAVG's edges both are: ship the model to every client, wait for all
// their updates, replace the model with their data-weighted average, and
// let after decide what follows — the next round (FedAvg, and an edge
// between cloud rounds) or the trip to the cloud.
type roundServer struct {
	env     *fl.Env
	id      int
	queue   *fl.ProcQueue
	proc    float64 // Tab. 3 delay one received client model costs
	w       []float64
	clients map[int]*fl.SimClient
	shares  map[int]float64    // averaging weight per client
	models  func() [][]float64 // every server model of the algorithm, for the observer
	after   func()             // runs once a round's average is in w

	pending map[int][]float64 // client -> update of the current round
	round   int
}

// newRoundServer builds server id's actor and its clients; shares weighs
// their updates in the round average.
func newRoundServer(env *fl.Env, id int, proc float64, initial []float64, clients []int, shares map[int]float64) *roundServer {
	s := &roundServer{
		env:     env,
		id:      id,
		queue:   fl.NewProcQueue(env.Sim, id, env.Observer),
		proc:    proc,
		w:       tensor.Clone(initial),
		clients: make(map[int]*fl.SimClient, len(clients)),
		shares:  shares,
		pending: make(map[int][]float64),
	}
	for _, ci := range clients {
		s.clients[ci] = env.NewSimClient(ci, id, func(clientID int, update []float64, _ any, _ obs.UID) {
			// Each received client model occupies the server for its Tab. 3
			// aggregation delay; the per-round weighted average itself is
			// then cheap. With full participation this makes round length
			// grow linearly with the client count, the server-side
			// bottleneck Tab. 5 exposes.
			s.queue.Submit(s.proc, func() { s.receive(clientID, update) })
		})
	}
	return s
}

// startRound ships every client one shared snapshot of the current model.
func (s *roundServer) startRound() {
	s.round++
	snapshot := s.env.Snapshot(s.w, len(s.clients))
	src := s.env.ServerEndpoint(s.id)
	// Ascending walk: the send order schedules simulator events, so it
	// must not depend on map iteration order.
	for _, ci := range fl.SortedKeys(s.clients) {
		cc := s.clients[ci]
		s.env.Net.Send(src, s.env.ClientEndpoint(ci), s.env.ModelBytes, geo.ClientServer, func() {
			cc.HandleModel(snapshot.Vec, nil, s.env.Hyper.ClientLR)
			snapshot.Release()
		})
	}
}

// receive stores one processed client update; when every client has
// reported it averages the round into w and hands over to after.
func (s *roundServer) receive(client int, update []float64) {
	s.pending[client] = update
	s.env.Observer.ClientUpdateProcessed(s.env.Sim.Now(), s.id, client, s.models)
	if len(s.pending) < len(s.clients) {
		return
	}
	round := s.pending
	s.pending = make(map[int][]float64)
	// Sorted walks: float accumulation is not associative, so the merge
	// order must not depend on map iteration order.
	w := paramvec.Vec(s.w)
	w.Zero()
	for _, ci := range fl.SortedKeys(round) {
		w.AxpyInto(s.shares[ci], round[ci])
	}
	s.after()
}
