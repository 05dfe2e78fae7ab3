package spyker

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/simulation"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// newChain is a merge chain on sim's workers, as newSimServer makes one.
func newChain(sim *simulation.Sim) *mergeChain {
	c := &mergeChain{sim: sim}
	c.task.Fn = c.run
	return c
}

// TestDetachedMergeJoinsAtEveryReader: under the simulator a core's plain
// client merge runs off the event loop (mergeChain), and whatever reads the
// model next joins it first. Each case merges one client update inside
// a running Sim and drives one reader straight after it, in the same event;
// what the reader hands out, the reply, and the model left behind must
// equal the same steps on a core that merges inline. With several
// processors a reader that skipped the join would see the model before the
// merge; a -race build takes the portable sweep, whose writes the race
// detector sees (the AVX2 one hides them).
func TestDetachedMergeJoinsAtEveryReader(t *testing.T) {
	const dim = 1 << 14 // big enough that a worker is still merging when the reader comes
	rng := rand.New(rand.NewSource(1))
	vec := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	initial, update, remote := vec(), vec(), vec()
	merge := func(s *ServerCore) { s.HandleClientUpdate(3, tensor.Clone(update), 0, 0) }
	lastModel := func(out *fakeOut) []float64 { return out.models[len(out.models)-1].params }

	cases := []struct {
		name  string
		cfg   func(*Config) // nil: coreConfig as it is
		holds bool
		// steps merges the update and reads the model at once, returning
		// what the reader handed out.
		steps func(s *ServerCore, out *fakeOut) []float64
	}{
		{"sync trigger", func(c *Config) { c.HIntra = 1 }, true, func(s *ServerCore, out *fakeOut) []float64 {
			merge(s) // the merge ages the model past HIntra: the holder broadcasts it
			return lastModel(out)
		}},
		{"HandleServerModel", nil, false, func(s *ServerCore, out *fakeOut) []float64 {
			merge(s)
			s.HandleServerModel(1, remote, 5, 1, 0, ring.Membership{}) // joins the round, then aggregates
			return lastModel(out)
		}},
		{"Params", nil, false, func(s *ServerCore, _ *fakeOut) []float64 {
			merge(s)
			return tensor.Clone(s.Params())
		}},
		{"SnapshotInto", nil, false, func(s *ServerCore, _ *fakeOut) []float64 {
			merge(s)
			var st State
			s.SnapshotInto(&st)
			return st.W
		}},
		{"AdmitMember", nil, false, func(s *ServerCore, _ *fakeOut) []float64 {
			merge(s)
			st, err := s.AdmitMember(2)
			if err != nil {
				t.Fatal(err)
			}
			return st.W
		}},
		{"ReengageClient", nil, false, func(s *ServerCore, out *fakeOut) []float64 {
			merge(s)
			s.ReengageClient(4)
			return out.replies[len(out.replies)-1].params
		}},
		{"reply delivery", nil, false, func(s *ServerCore, out *fakeOut) []float64 {
			merge(s)
			reply := out.replies[0].params
			if c, ok := s.merger.(*mergeChain); ok {
				c.joinReply(reply) // what the DES glue does before delivering it
			}
			return tensor.Clone(reply)
		}},
		{"Tick retry", func(c *Config) { c.SyncRetry = 1 }, true, func(s *ServerCore, out *fakeOut) []float64 {
			s.HandleAge(1, 100, ring.Membership{}) // drift: the holder opens a round server 1 never answers
			s.Tick(0)
			merge(s)
			s.Tick(1) // the round is stuck: the holder re-broadcasts its model
			return lastModel(out)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := coreConfig(0, 2, 8)
			if tc.cfg != nil {
				tc.cfg(&cfg)
			}
			run := func(detach bool) (seen, reply, final []float64) {
				out := &fakeOut{}
				s := NewServerCore(cfg, initial, tc.holds, out)
				sim := simulation.New()
				if detach {
					s.merger = newChain(sim)
				}
				sim.Schedule(1, func() { seen = tc.steps(s, out) })
				sim.Run(math.Inf(1))
				// Run has finished every detached task, so the reply is whole.
				return seen, out.replies[0].params, tensor.Clone(s.Params())
			}
			wantSeen, wantReply, wantFinal := run(false)
			for i := 0; i < 20; i++ {
				seen, reply, final := run(true)
				if !slices.Equal(seen, wantSeen) {
					t.Fatalf("run %d: the reader saw another model than with the merge inline", i)
				}
				if !slices.Equal(reply, wantReply) || !slices.Equal(final, wantFinal) {
					t.Fatalf("run %d: the reply or the final model differs from the inline merge's", i)
				}
			}
			if slices.Equal(wantSeen, initial) {
				t.Fatal("the reader saw the initial model: the case does not read after the merge")
			}
		})
	}
}

// TestMergeChainMatchesSequentialMerges: a burst of k client updates at one
// server in one virtual instant chains k merges onto the server's one merge
// task — the ninth finds the chain full and joins it. The model must end
// with the bits of k merges one after the other on the loop, and every
// reply must be whole when it is delivered, whichever order the deliveries
// come in and whether a later merge of the chain is still pending. Run it
// at -cpu 1,4: with one processor nearly every chain is stolen back onto
// the loop, with four nearly none is.
func TestMergeChainMatchesSequentialMerges(t *testing.T) {
	const dim = 1 << 14
	rng := rand.New(rand.NewSource(2))
	vec := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	initial := vec()
	updates := make([][]float64, chainLen+1)
	for i := range updates {
		updates[i] = vec()
	}
	for k := 1; k <= len(updates); k++ {
		for _, reverse := range []bool{false, true} {
			// run merges updates[:k] at t=1, as k clients' updates arriving
			// together, and delivers the k replies in a later event at the
			// same instant.
			run := func(detach bool) (replies [][]float64, final []float64) {
				out := &fakeOut{}
				s := NewServerCore(coreConfig(0, 2, 16), initial, false, out)
				sim := simulation.New()
				chain := newChain(sim)
				if detach {
					s.merger = chain
				}
				burst := make([][]float64, k)
				for j := range burst {
					burst[j] = tensor.Clone(updates[j])
				}
				sim.Schedule(1, func() {
					for j, u := range burst {
						s.HandleClientUpdate(j, u, 0, 0)
					}
				})
				sim.Schedule(1, func() {
					replies = make([][]float64, k)
					for n := range k {
						j := n
						if reverse {
							j = k - 1 - n
						}
						chain.joinReply(out.replies[j].params)
						replies[j] = tensor.Clone(out.replies[j].params)
					}
					final = tensor.Clone(s.Params())
				})
				sim.Run(math.Inf(1))
				return replies, final
			}
			wantReplies, wantFinal := run(false)
			for i := 0; i < 20; i++ {
				replies, final := run(true)
				for j := range replies {
					if !slices.Equal(replies[j], wantReplies[j]) {
						t.Fatalf("k=%d reverse=%v run %d: reply %d was delivered before its merge was whole", k, reverse, i, j)
					}
				}
				if !slices.Equal(final, wantFinal) {
					t.Fatalf("k=%d reverse=%v run %d: the model differs from %d merges on the loop", k, reverse, i, k)
				}
			}
		}
	}
}

// TestAdoptJoinsThePendingChain: a simServer's merge chain outlives its
// cores, so adopt may swap in a core — a restarted one from its checkpoint,
// a joining one from a sponsor's state — while the old core's merges are
// still chained. The old merges must finish into the old model and make the
// old replies whole before adopt returns, and the new core's first merge
// must land in its own model; every vector must equal the same steps merged
// inline. Run it at -cpu 1,4 and under -race, like the chain test.
func TestAdoptJoinsThePendingChain(t *testing.T) {
	const dim = 1 << 14
	rng := rand.New(rand.NewSource(3))
	vec := func() []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	initial, first := vec(), vec()
	burst := make([][]float64, chainLen-1)
	for i := range burst {
		burst[i] = vec()
	}
	sponsor := NewServerCore(coreConfig(1, 2, 8), vec(), false, &fakeOut{})
	joining, err := sponsor.AdmitMember(2)
	if err != nil {
		t.Fatal(err)
	}
	swaps := []struct {
		name  string
		state func(ckpt State) State
	}{
		{"restart", func(ckpt State) State { return ckpt }},
		{"join", func(State) State { return joining }},
	}
	for _, tc := range swaps {
		t.Run(tc.name, func(t *testing.T) {
			run := func(detach bool) (oldModel []float64, replies [][]float64, newModel []float64) {
				out := &fakeOut{}
				old := NewServerCore(coreConfig(0, 2, 8), initial, false, out)
				var ckpt State
				old.SnapshotInto(&ckpt)
				next, err := RestoreServerCore(tc.state(ckpt), &fakeOut{})
				if err != nil {
					t.Fatal(err)
				}
				sim := simulation.New()
				srv := &simServer{env: &fl.Env{Sim: sim}}
				srv.chain.sim, srv.chain.task.Fn = sim, srv.chain.run
				if detach {
					srv.adopt(old)
				}
				sim.Schedule(1, func() {
					for j, u := range burst {
						old.HandleClientUpdate(j, tensor.Clone(u), 0, 0)
					}
					if detach {
						srv.adopt(next)
					}
					// Read without joining: adopt must have joined already.
					oldModel = tensor.Clone(old.w)
					for _, r := range out.replies {
						replies = append(replies, tensor.Clone(r.params))
					}
					next.HandleClientUpdate(0, tensor.Clone(first), 0, 0)
					newModel = tensor.Clone(next.Params())
				})
				sim.Run(math.Inf(1))
				return oldModel, replies, newModel
			}
			wantOld, wantReplies, wantNew := run(false)
			if slices.Equal(wantOld, initial) || len(wantReplies) != len(burst) {
				t.Fatal("the old core merged nothing: the case does not swap with a chain pending")
			}
			for i := 0; i < 20; i++ {
				oldModel, replies, newModel := run(true)
				if !slices.Equal(oldModel, wantOld) {
					t.Fatalf("run %d: the old core's model differs from its inline merges when adopt returned", i)
				}
				for j := range replies {
					if !slices.Equal(replies[j], wantReplies[j]) {
						t.Fatalf("run %d: reply %d was not whole when adopt returned", i, j)
					}
				}
				if !slices.Equal(newModel, wantNew) {
					t.Fatalf("run %d: the new core's first merge differs from merging it inline", i)
				}
			}
		})
	}
}
