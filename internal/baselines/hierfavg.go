package baselines

import (
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/simulation"
)

// HierFAVG is the hierarchical multi-server baseline (Liu et al. 2020):
// edge servers run synchronous FedAvg rounds with their own clients, and
// every HierEdgeRounds rounds all edges synchronously ship their models to
// a cloud server that computes the data-weighted global average and
// redistributes it. The cloud is colocated with edge server 0, as the
// paper places the principal server in one of the regions.
type HierFAVG struct {
	env     *fl.Env
	edges   []*roundServer
	weights []float64 // each edge's share of the global data
	cloud   *hierCloud

	// The typed events of the edge<->cloud exchange: a model's arrival,
	// which queues it at its receiver, and the cloud's and an edge's job
	// for it; msgs are their records (one per message, freed by the job).
	arrive, atCloud, atEdge simulation.Kind
	msgs                    simulation.Slab[hierMsg]
}

// hierMsg is one model between an edge and the cloud: an edge's snapshot
// on its way up, or the shared global model on its way down to edge.
type hierMsg struct {
	edge   int
	model  paramvec.Vec
	global *fl.SharedVec
	queue  *fl.ProcQueue // the receiver's, with its delay and the job
	proc   float64
	job    simulation.Kind
}

var _ fl.Algorithm = (*HierFAVG)(nil)

// Name implements fl.Algorithm.
func (h *HierFAVG) Name() string { return "HierFAVG" }

type hierCloud struct {
	alg      *HierFAVG
	endpoint geo.Endpoint
	queue    *fl.ProcQueue
	pending  map[int][]float64
	rounds   int
}

// Build implements fl.Algorithm.
func (h *HierFAVG) Build(env *fl.Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	h.env = env
	h.arrive = env.Sim.Handle(h.queueAtReceiver)
	h.atCloud = env.Sim.Handle(h.receiveAtCloud)
	h.atEdge = env.Sim.Handle(h.receiveAtEdge)
	initial := env.NewModel(env.Seed).Params()

	total := 0
	for _, c := range env.Clients {
		total += len(c.Shard)
	}

	h.cloud = &hierCloud{
		alg:      h,
		endpoint: geo.Endpoint{ID: 2_000_000, Region: env.Servers[0].Region},
		queue:    fl.NewProcQueue(env.Sim, len(env.Servers), env.Observer),
		pending:  make(map[int][]float64),
	}

	h.edges = make([]*roundServer, len(env.Servers))
	h.weights = make([]float64, len(env.Servers))
	for si := range env.Servers {
		// Within-edge shares weigh the edge's round average, the edge's
		// share of all data its model in the cloud's.
		shares, edgeData := env.DataShares(env.Servers[si].Clients)
		h.weights[si] = float64(edgeData) / float64(total)
		e := newRoundServer(env, si, env.ProcFor(si, env.Hyper.ProcHier), initial, env.Servers[si].Clients, shares)
		e.models = h.params
		e.after = func() {
			if e.round%env.Hyper.HierEdgeRounds == 0 {
				h.sendToCloud(e)
			} else {
				e.startRound()
			}
		}
		h.edges[si] = e
	}
	for _, e := range h.edges {
		e.startRound()
	}
	return nil
}

func (h *HierFAVG) params() [][]float64 {
	out := make([][]float64, len(h.edges))
	for i, e := range h.edges {
		out[i] = e.w
	}
	return out
}

func (h *HierFAVG) sendToCloud(e *roundServer) {
	env := h.env
	// Pooled: the cloud holds the snapshot in pending until the global
	// round completes, then recycles it (see hierCloud.receive).
	snapshot := env.Pool.Get(len(e.w))
	snapshot.CopyFrom(e.w)
	cloud := h.cloud
	// Each edge model costs one aggregation delay on the cloud queue.
	h.send(env.ServerEndpoint(e.id), cloud.endpoint,
		hierMsg{edge: e.id, model: snapshot, queue: cloud.queue, proc: env.Hyper.ProcHier, job: h.atCloud})
}

// send ships m, which queues as m.job at its receiver on arrival. The
// baselines run without failure injection (see inbox): it arrives once.
func (h *HierFAVG) send(src, dst geo.Endpoint, m hierMsg) {
	i, r := h.msgs.New()
	*r = m
	h.env.Net.Post(src, dst, h.env.ModelBytes, geo.ServerServer, 0,
		simulation.Job{Kind: h.arrive, Arg: i})
}

// queueAtReceiver is a model's arrival.
func (h *HierFAVG) queueAtReceiver(i int) {
	m := h.msgs.At(i)
	m.queue.Submit(m.proc, simulation.Job{Kind: m.job, Arg: i})
}

// receiveAtCloud is an edge model's job completing at the cloud.
func (h *HierFAVG) receiveAtCloud(i int) {
	m := *h.msgs.At(i)
	h.msgs.Free(i)
	h.cloud.receive(m.edge, m.model)
}

// receiveAtEdge is the global model's job completing at an edge, which
// starts the edge's next round from it.
func (h *HierFAVG) receiveAtEdge(i int) {
	m := *h.msgs.At(i)
	h.msgs.Free(i)
	edge := h.edges[m.edge]
	copy(edge.w, m.global.Vec)
	edge.startRound()
	m.global.Release()
}

func (c *hierCloud) receive(edge int, model paramvec.Vec) {
	c.pending[edge] = model
	if len(c.pending) < len(c.alg.edges) {
		return
	}
	round := c.pending
	c.pending = make(map[int][]float64)
	env := c.alg.env
	c.rounds++
	sum := env.Pool.Get(len(round[0]))
	sum.Zero()
	// Sorted walk: float accumulation order must not depend on map order.
	for _, ei := range fl.SortedKeys(round) {
		sum.AxpyInto(c.alg.weights[ei], round[ei])
		env.Pool.Put(round[ei])
	}
	global := env.Share(sum, len(c.alg.edges))
	for _, edge := range c.alg.edges {
		c.alg.send(c.endpoint, env.ServerEndpoint(edge.id),
			hierMsg{edge: edge.id, global: global, queue: edge.queue, proc: edge.proc, job: c.alg.atEdge})
	}
}

// CloudRounds reports how many global aggregations completed.
func (h *HierFAVG) CloudRounds() int { return h.cloud.rounds }

// EdgeParams exposes the live edge models for tests.
func (h *HierFAVG) EdgeParams() [][]float64 { return h.params() }
