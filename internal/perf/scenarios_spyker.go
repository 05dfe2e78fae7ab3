package perf

import (
	"fmt"
	"math/rand"

	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// nopOutbound swallows everything a ServerCore emits, so the aggregation
// scenario measures the protocol math itself, not a transport.
type nopOutbound struct{}

func (nopOutbound) ReplyClient(int, []float64, float64, float64)                     {}
func (nopOutbound) BroadcastModel([]float64, float64, int, []int64, ring.Membership) {}
func (nopOutbound) BroadcastAge(float64, ring.Membership)                            {}
func (nopOutbound) SendToken(spyker.Token, int)                                      {}

// aggregateClients is how many clients take turns in the server-aggregate
// fixture.
const aggregateClients = 8

// newAggregateStep builds the server-aggregate fixture: one core and the
// step that hands it the next client's update. The handler consumes an
// update — the vector comes back holding the server's model, the reply —
// so merging one vector twice would merge a fixed point, with a zero delta
// the second time. Every client therefore has a vector of its own, and the
// step that starts a round first re-fills all of them from two pristine
// updates in alternation — two, because a model fed one update for ever
// converges onto it and the deltas vanish all the same. One step in
// aggregateClients is slower for the re-fill; the runner reports the median
// step, which is one without it.
func newAggregateStep(seed int64, dim int) (*spyker.ServerCore, func()) {
	cfg := spyker.Config{
		ID: 0, NumServers: 1, NumClients: aggregateClients,
		EtaServer: 0.6, Phi: 1.5, EtaA: 0.6,
		HInter: 1e18, HIntra: 1e18, // never trigger a sync mid-measurement
		ClientLR: 0.05,
	}
	rng := rand.New(rand.NewSource(seed))
	core := spyker.NewServerCore(cfg, randVec(rng, dim), false, nopOutbound{})
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
		core.HandleClientUpdate(k%aggregateClients, updates[k%aggregateClients], core.Age())
		k++
	}
}

func init() {
	// The client-update hot path: staleness-weighted merge plus reply.
	// PR 2 took this to 0 allocs/op; the comparator's alloc gate keeps it
	// there.
	Register(Scenario{
		Name:  "spyker/server-aggregate",
		Layer: LayerSpyker,
		Smoke: true,
		Setup: func() (Instance, error) {
			_, step := newAggregateStep(7, modelDim)
			return Instance{Step: step}, nil
		},
	})

	// One full token-triggered synchronization round (Alg. 2) across four
	// servers wired memory-to-memory: trigger at the token holder, N
	// model broadcasts, N*(N-1) sigmoid merges, token forwarded around
	// the ring. This is the protocol's collective hot path; the transport
	// cost is measured separately by geo/ and live/ scenarios.
	Register(Scenario{
		Name:  "spyker/token-sync-round",
		Layer: LayerSpyker,
		Smoke: true,
		Setup: func() (Instance, error) {
			const n = 4
			const hInter = 10.0
			mail := &ringMail{}
			rng := rand.New(rand.NewSource(8))
			for i := 0; i < n; i++ {
				cfg := spyker.Config{
					ID: i, NumServers: n, NumClients: 8,
					EtaServer: 0.6, Phi: 1.5, EtaA: 0.6,
					HInter: hInter, HIntra: 1e18,
					ClientLR: 0.05,
				}
				mail.cores = append(mail.cores,
					spyker.NewServerCore(cfg, randVec(rng, modelDim), i == 0, &mailOutbound{ring: mail, id: i}))
			}
			rounds := 0
			return Instance{
				Step: func() {
					holder := mail.holder()
					// Feigning a drifted peer age trips the h_inter
					// trigger; the round's own direct reports overwrite it
					// with the true ages, so exactly one round runs.
					peer := (holderID(mail) + 1) % n
					holder.HandleAge(peer, holder.Age()+hInter+1)
					mail.pump()
					rounds++
				},
				Extras: func() map[string]float64 {
					syncs := 0
					for _, c := range mail.cores {
						syncs += c.SyncsTriggered()
					}
					return map[string]float64{
						"rounds":           float64(rounds),
						"syncs_triggered":  float64(syncs),
						"merges_per_round": float64(n * (n - 1)),
					}
				},
			}, nil
		},
	})
}

// ringMail wires N ServerCores memory-to-memory with a FIFO mailbox, so a
// synchronization round executes its message cascade in delivery order
// without a transport (and without unbounded recursion).
type ringMail struct {
	cores []*spyker.ServerCore
	queue []func()
}

func (r *ringMail) holder() *spyker.ServerCore {
	return r.cores[holderID(r)]
}

func holderID(r *ringMail) int {
	for i, c := range r.cores {
		if c.HasToken() {
			return i
		}
	}
	panic("perf: no core holds the token")
}

func (r *ringMail) pump() {
	for len(r.queue) > 0 {
		fn := r.queue[0]
		r.queue = r.queue[1:]
		fn()
	}
}

// mailOutbound implements spyker.Outbound by enqueueing deliveries into
// the shared mailbox. Params and frontier are borrows of the sender's
// live state (Outbound contract), so they are copied at send time exactly
// like a real transport would. The membership passes through uncopied,
// like the DES does: ring.Membership slices are immutable by contract.
type mailOutbound struct {
	ring *ringMail
	id   int
}

var _ spyker.Outbound = (*mailOutbound)(nil)

func (o *mailOutbound) ReplyClient(int, []float64, float64, float64) {}

func (o *mailOutbound) BroadcastModel(params []float64, age float64, bid int, front []int64, mem ring.Membership) {
	p := append([]float64(nil), params...)
	f := append([]int64(nil), front...)
	from := o.id
	for j := range o.ring.cores {
		if j == from {
			continue
		}
		j := j
		o.ring.queue = append(o.ring.queue, func() {
			o.ring.cores[j].HandleServerModelTraced(from, p, age, bid, f, mem)
		})
	}
}

func (o *mailOutbound) BroadcastAge(age float64, mem ring.Membership) {
	from := o.id
	for j := range o.ring.cores {
		if j == from {
			continue
		}
		j := j
		o.ring.queue = append(o.ring.queue, func() {
			o.ring.cores[j].HandleAgeTagged(from, age, mem)
		})
	}
}

func (o *mailOutbound) SendToken(t spyker.Token, next int) {
	if next < 0 || next >= len(o.ring.cores) {
		panic(fmt.Sprintf("perf: token to unknown server %d", next))
	}
	o.ring.queue = append(o.ring.queue, func() {
		o.ring.cores[next].HandleToken(t)
	})
}
