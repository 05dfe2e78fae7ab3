package baselines

import (
	"fmt"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/simulation"
	"github.com/spyker-fl/spyker/internal/spyker"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// SyncSpyker is the partially synchronous Spyker variant of the paper's
// evaluation: client/server interactions stay asynchronous (same staleness
// weighting and learning-rate decay as Spyker), but servers exchange
// models with a synchronous protocol. Periodically all servers stop
// processing client updates, buffer them, broadcast their models, wait for
// every peer model, aggregate them in a deterministic order (an
// age-weighted average over server IDs, so every server ends up with the
// same model), and then drain the buffered client updates.
type SyncSpyker struct {
	env     *fl.Env
	servers []*syncServer

	// The typed events of the exchange: a peer model's arrival and a
	// server's aggregation job, and their records.
	peerModel, finish simulation.Kind
	msgs              simulation.Slab[syncMsg]
}

// syncMsg is a peer model on its way to server to, or the models of a
// round to aggregate at to.
type syncMsg struct {
	to    *syncServer
	from  int
	model serverModel
	round map[int]serverModel
}

var _ fl.Algorithm = (*SyncSpyker)(nil)

// Name implements fl.Algorithm.
func (s *SyncSpyker) Name() string { return "Sync-Spyker" }

type syncServer struct {
	alg     *SyncSpyker
	id      int
	queue   *fl.ProcQueue
	inbox   *inbox
	w       []float64
	age     float64
	clients map[int]*fl.SimClient

	updates map[int]int
	total   int

	syncing  bool
	buffered []bufferedUpdate
	received map[int]serverModel
	syncs    int
}

type bufferedUpdate struct {
	client int
	params []float64
	age    float64
}

type serverModel struct {
	params *fl.SharedVec
	age    float64
}

// Build implements fl.Algorithm.
func (s *SyncSpyker) Build(env *fl.Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	if env.Hyper.SyncPeriod <= 0 {
		return fmt.Errorf("baselines: sync-spyker needs a positive SyncPeriod")
	}
	s.env = env
	s.peerModel = env.Sim.Handle(s.receiveModel)
	s.finish = env.Sim.Handle(s.finishSync)
	initial := env.NewModel(env.Seed).Params()

	s.servers = make([]*syncServer, len(env.Servers))
	for si := range env.Servers {
		srv := &syncServer{
			alg:      s,
			id:       si,
			queue:    fl.NewProcQueue(env.Sim, si, env.Observer),
			w:        tensor.Clone(initial),
			clients:  make(map[int]*fl.SimClient),
			updates:  make(map[int]int),
			received: make(map[int]serverModel),
		}
		srv.inbox = newInbox(env, srv.queue, env.ProcFor(si, env.Hyper.ProcSyncSpyker), srv.applyUpdate)
		s.servers[si] = srv
		// An update's meta is the age of the model it was trained from.
		deliver := srv.deliverUpdate
		for _, ci := range env.Servers[si].Clients {
			c := env.NewSimClient(ci, si, deliver)
			srv.clients[ci] = c
			c.HandleModel(initial, 0, env.Hyper.ClientLR)
		}
	}

	// All servers start an exchange on the shared period; the simulator's
	// virtual clocks are perfectly synchronized, as the paper's emulation
	// assumes.
	var schedule func(t float64)
	schedule = func(t float64) {
		env.Sim.ScheduleAt(t, func() {
			// A round only starts when every server finished the previous
			// one; otherwise two rounds' models could interleave.
			allIdle := true
			for _, srv := range s.servers {
				if srv.syncing {
					allIdle = false
					break
				}
			}
			if allIdle {
				for _, srv := range s.servers {
					srv.beginSync()
				}
			}
			schedule(t + env.Hyper.SyncPeriod)
		})
	}
	schedule(env.Hyper.SyncPeriod)
	return nil
}

func (s *SyncSpyker) params() [][]float64 {
	out := make([][]float64, len(s.servers))
	for i, srv := range s.servers {
		out[i] = srv.w
	}
	return out
}

// deliverUpdate either buffers (during a synchronization, per the paper:
// "servers stop processing local updates from clients, and instead store
// them") or submits the update for processing.
func (srv *syncServer) deliverUpdate(client int, params []float64, age float64, uid obs.UID) {
	if srv.syncing {
		srv.buffered = append(srv.buffered, bufferedUpdate{client, params, age})
		return
	}
	srv.inbox.deliver(client, params, age, uid)
}

// applyUpdate is an update's job completing.
func (srv *syncServer) applyUpdate(client int, params []float64, age float64) {
	env := srv.alg.env
	srv.updates[client]++
	srv.total++
	lr := env.Hyper.ClientLR
	damp := 1.0
	if env.Hyper.DecayEnabled {
		uBar := float64(srv.total) / float64(len(srv.clients))
		lr = spyker.DecayRate(env.Hyper.ClientLR, env.Hyper.Beta,
			env.Hyper.EtaMin, float64(srv.updates[client]), uBar)
		if env.Hyper.ClientLR > 0 {
			// Same server-side dampening as Spyker: see
			// spyker.ServerCore.HandleClientUpdate.
			damp = lr / env.Hyper.ClientLR
		}
	}
	wk := spyker.StalenessWeight(srv.age, age)
	paramvec.Vec(srv.w).WeightedMergeInto(env.Hyper.EtaServer*wk*damp, params)
	srv.age++
	env.Observer.ClientUpdateProcessed(env.Sim.Now(), srv.id, client, srv.alg.params)

	env.SendModel(srv.id, srv.clients[client], srv.w, srv.age, lr)
}

// beginSync broadcasts this server's model to every peer and enters the
// buffering state.
func (srv *syncServer) beginSync() {
	env := srv.alg.env
	srv.syncing = true
	// One pooled snapshot serves the whole exchange: this server's own
	// aggregation and every peer's read it, and the last to finish recycles
	// it (see maybeFinishSync).
	model := serverModel{env.Snapshot(srv.w, len(srv.alg.servers)), srv.age}
	srv.received[srv.id] = model
	src := env.ServerEndpoint(srv.id)
	for _, p := range srv.alg.servers {
		if p.id == srv.id {
			continue
		}
		// Baselines run without failure injection (see inbox): the model
		// arrives once.
		i, m := srv.alg.msgs.New()
		*m = syncMsg{to: p, from: srv.id, model: model}
		env.Net.Post(src, env.ServerEndpoint(p.id), env.ModelBytes, geo.ServerServer, 0,
			simulation.Job{Kind: srv.alg.peerModel, Arg: i})
	}
	srv.maybeFinishSync()
}

// receiveModel is a peer model's arrival.
func (s *SyncSpyker) receiveModel(i int) {
	m := *s.msgs.At(i)
	s.msgs.Free(i)
	m.to.received[m.from] = m.model
	m.to.maybeFinishSync()
}

// maybeFinishSync completes the exchange once all peer models arrived: all
// servers deterministically compute the same age-weighted average and then
// drain their buffered client updates.
func (srv *syncServer) maybeFinishSync() {
	env := srv.alg.env
	if !srv.syncing || len(srv.received) < len(srv.alg.servers) {
		return
	}
	round := srv.received
	srv.received = make(map[int]serverModel)
	i, m := srv.alg.msgs.New()
	*m = syncMsg{to: srv, round: round}
	srv.queue.Submit(env.ProcFor(srv.id, env.Hyper.ProcSyncSpyker), simulation.Job{Kind: srv.alg.finish, Arg: i})
}

// finishSync is a round's aggregation job completing.
func (s *SyncSpyker) finishSync(i int) {
	r := *s.msgs.At(i)
	s.msgs.Free(i)
	srv, round := r.to, r.round
	var totalAge float64
	for id := range srv.alg.servers {
		totalAge += round[id].age
	}
	w := paramvec.Vec(srv.w)
	w.Zero()
	if totalAge > 0 {
		for id := range srv.alg.servers {
			m := round[id]
			w.AxpyInto(m.age/totalAge, m.params.Vec)
		}
		srv.age = totalAge / float64(len(srv.alg.servers))
	} else {
		// Nothing trained anywhere yet: plain average keeps servers
		// identical.
		for id := range srv.alg.servers {
			w.AxpyInto(1/float64(len(srv.alg.servers)), round[id].params.Vec)
		}
	}
	for id := range srv.alg.servers {
		round[id].params.Release()
	}
	srv.syncs++
	srv.syncing = false
	buffered := srv.buffered
	srv.buffered = nil
	for _, b := range buffered {
		srv.inbox.deliver(b.client, b.params, b.age, 0)
	}
}

// Syncs reports the number of completed synchronous exchanges on server 0.
func (s *SyncSpyker) Syncs() int { return s.servers[0].syncs }

// ServerParams exposes the live server models for tests.
func (s *SyncSpyker) ServerParams() [][]float64 { return s.params() }
