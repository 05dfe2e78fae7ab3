package baselines

import (
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/simulation"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// inbox takes a server's clients' updates: each occupies the server's
// processing queue for proc seconds as a typed job and then goes to
// receive. The baselines run without failure injection (a fault plan
// needs fault.Cluster, which only Spyker implements), so each update is
// delivered, and queued, exactly once.
type inbox struct {
	queue   *fl.ProcQueue
	proc    float64
	job     simulation.Kind
	updates simulation.Slab[queuedUpdate]
	receive func(client int, update []float64, meta float64)
}

type queuedUpdate struct {
	client int
	update []float64
	meta   float64
}

func newInbox(env *fl.Env, queue *fl.ProcQueue, proc float64, receive func(client int, update []float64, meta float64)) *inbox {
	b := &inbox{queue: queue, proc: proc, receive: receive}
	b.job = env.Sim.Handle(b.complete)
	return b
}

// deliver is the clients' fl.SimClient.Deliver: the update joins the queue.
func (b *inbox) deliver(client int, update []float64, meta float64, _ obs.UID) {
	i, u := b.updates.New()
	*u = queuedUpdate{client: client, update: update, meta: meta}
	b.queue.Submit(b.proc, simulation.Job{Kind: b.job, Arg: i})
}

// complete is an update's job completing.
func (b *inbox) complete(i int) {
	u := *b.updates.At(i)
	b.updates.Free(i)
	b.receive(u.client, u.update, u.meta)
}

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
	// Each received client model occupies the server for its Tab. 3
	// aggregation delay; the per-round weighted average itself is then
	// cheap. With full participation this makes round length grow linearly
	// with the client count, the server-side bottleneck Tab. 5 exposes.
	deliver := newInbox(env, s.queue, proc, s.receive).deliver
	for _, ci := range clients {
		s.clients[ci] = env.NewSimClient(ci, id, deliver)
	}
	return s
}

// startRound ships every client one shared snapshot of the current model.
func (s *roundServer) startRound() {
	s.round++
	snapshot := s.env.Snapshot(s.w, len(s.clients))
	// Ascending walk: the send order schedules simulator events, so it
	// must not depend on map iteration order.
	for _, ci := range fl.SortedKeys(s.clients) {
		s.env.SendShared(s.id, s.clients[ci], snapshot, 0, s.env.Hyper.ClientLR)
	}
}

// receive stores one processed client update; when every client has
// reported it averages the round into w and hands over to after.
func (s *roundServer) receive(client int, update []float64, _ float64) {
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
