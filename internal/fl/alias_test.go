package fl

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spyker-fl/spyker/internal/data"
	"github.com/spyker-fl/spyker/internal/nn"
	"github.com/spyker-fl/spyker/internal/obs"
)

// copyModel is the shape of a hand-written Model (the benchmark's stub is
// one): SetParams copies into a vector the model owns, ParamsView lends
// that vector, Train moves it.
type copyModel struct{ w []float64 }

func (m *copyModel) NumParams() int        { return len(m.w) }
func (m *copyModel) Params() []float64     { return append([]float64(nil), m.w...) }
func (m *copyModel) ParamsView() []float64 { return m.w }
func (m *copyModel) SetParams(p []float64) { copy(m.w, p) }
func (m *copyModel) Train(_ []int, epochs int, lr float64) {
	for e := 0; e < epochs; e++ {
		for i := range m.w {
			m.w[i] += lr * (float64(i) - m.w[i])
		}
	}
}
func (m *copyModel) Evaluate() (float64, float64) { return 0, 0 }

// aliasCases builds, per model kind, a factory of identical models and the
// shard a client trains on.
func aliasCases() []struct {
	name  string
	model func() Model
	shard []int
} {
	img := data.GenerateImages(data.MNISTLike(60, 20, 1))
	txt := data.GenerateText(data.WikiTextLike(1500, 300, 1))
	seq := func(n int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = i
		}
		return s
	}
	return []struct {
		name  string
		model func() Model
		shard []int
	}{
		{"copy-model", func() Model { return &copyModel{w: make([]float64, 37)} }, nil},
		{"classifier", func() Model {
			rng := rand.New(rand.NewSource(5))
			ch, h, w := img.Shape()
			conv := nn.NewConv2D(ch, h, w, 3, 3, rng)
			pool := nn.NewMaxPool2D(3, 10, 10)
			net := nn.NewNetwork(conv, nn.NewReLU(conv.OutSize()), pool, nn.NewDense(pool.OutSize(), 10, rng))
			return NewClassifier(net, img, img.TestSet(), 10, 5)
		}, seq(40)},
		{"language-model", func() Model {
			rng := rand.New(rand.NewSource(5))
			return NewLanguageModel(nn.NewCharLM(txt.Vocab(), 4, 8, rng), txt, 5)
		}, seq(30)},
	}
}

// protocolCycles drives one client through rounds of the protocol against
// a stand-in server that merges every update into its model and answers
// with the result. inPlace is the consume-and-reply path: the server
// writes the answer over the update it was handed — for an honest client
// the live view of the client's own model — and hands that same vector to
// HandleModel. Otherwise the update is left alone and the answer is a
// private copy, the way a transport that copies delivers it. setup, when
// non-nil, edits the environment and the client before the first model
// arrives. It returns when each update reached the server, and the bits it
// carried; the server stops answering after rounds updates.
func protocolCycles(t *testing.T, model Model, shard []int, rounds int, inPlace bool, setup func(*Env, *SimClient)) (sentAt []float64, sent [][]uint64) {
	t.Helper()
	env, sim := clientEnv()
	spec := env.Clients[0]
	spec.Shard, spec.Epochs = shard, 1
	server := model.Params() // a server that starts from the client's initial model
	for i := range server {
		server[i] += 0.01 * float64(i%7)
	}
	var c *SimClient
	c = &SimClient{
		Env: env, Spec: spec, Model: model,
		Deliver: func(_ int, update []float64, meta float64, _ obs.UID) {
			bits := make([]uint64, len(update))
			for i, v := range update {
				bits[i] = math.Float64bits(v)
			}
			sent = append(sent, bits)
			sentAt = append(sentAt, sim.Now())
			if len(sent) >= rounds {
				return
			}
			reply := update
			if !inPlace {
				reply = make([]float64, len(update))
			}
			for i := range server {
				server[i] += 0.4 * (update[i] - server[i])
				reply[i] = server[i]
			}
			c.HandleModel(reply, meta, 0.05)
		},
	}
	if setup != nil {
		setup(env, c)
	}
	c.HandleModel(append([]float64(nil), server...), 0, 0.05)
	sim.Run(100)
	if len(sent) < rounds {
		t.Fatalf("%d updates delivered, want %d", len(sent), rounds)
	}
	return sentAt, sent
}

// TestHandleModelGivenItsOwnView: a reply that arrives in the model's own
// parameter view — already holding the new model, so loading it copies a
// vector onto itself — leads to the same send times and the same update
// bits as a reply that arrives in a private copy.
func TestHandleModelGivenItsOwnView(t *testing.T) {
	for _, tc := range aliasCases() {
		t.Run(tc.name, func(t *testing.T) {
			const rounds = 4
			m := tc.model()
			if view := m.ParamsView(); len(view) > 0 && &view[0] != &m.ParamsView()[0] {
				t.Fatal("ParamsView is not a stable view; the aliased path never arises for this model")
			}
			atCopy, sentCopy := protocolCycles(t, tc.model(), tc.shard, rounds, false, nil)
			atView, sentView := protocolCycles(t, m, tc.shard, rounds, true, nil)
			for r := 0; r < rounds; r++ {
				if atCopy[r] != atView[r] {
					t.Fatalf("round %d: sent at %v with a private reply, at %v with an aliased one", r, atCopy[r], atView[r])
				}
				for i := range sentCopy[r] {
					if sentCopy[r][i] != sentView[r][i] {
						t.Fatalf("round %d: update[%d] = %x with a private reply, %x with an aliased one",
							r, i, sentCopy[r][i], sentView[r][i])
					}
				}
			}
		})
	}
}

// TestOnlyHonestClientsSendTheirView: the server writes its reply into
// the vector an update arrives in. For an honest client that vector is the
// model's own view, by design. A Byzantine payload and the hardened copy
// of a fault-armed run must each be a vector of their own, or the reply
// would overwrite a model whose owner still reads it (tamper compares the trained model with the received one; a
// fault-armed client may train again before its update is consumed).
func TestOnlyHonestClientsSendTheirView(t *testing.T) {
	type variant struct {
		name     string
		setup    func(*Env, *SimClient)
		wantView bool
	}
	variants := []variant{
		{"honest", func(*Env, *SimClient) {}, true},
		{"sign-flip", func(_ *Env, c *SimClient) { c.Spec.Byzantine = ByzantineSignFlip }, false},
		{"noise", func(_ *Env, c *SimClient) { c.Spec.Byzantine = ByzantineNoise }, false},
		{"scaled-noise", func(_ *Env, c *SimClient) { c.Spec.Byzantine = ByzantineScaledNoise }, false},
		{"collude", func(_ *Env, c *SimClient) { c.Spec.Byzantine = ByzantineCollude }, false},
		{"copy-updates", func(_ *Env, c *SimClient) { c.CopyUpdates = true }, false},
	}
	for _, tc := range aliasCases() {
		for _, v := range variants {
			t.Run(tc.name+"/"+v.name, func(t *testing.T) {
				env, sim := clientEnv()
				model := tc.model()
				spec := env.Clients[0]
				spec.Shard, spec.Epochs = tc.shard, 1
				var got []float64
				c := &SimClient{
					Env: env, Spec: spec, Model: model,
					Deliver: func(_ int, update []float64, _ float64, _ obs.UID) { got = update },
				}
				v.setup(env, c)
				c.HandleModel(model.Params(), 0, 0.05)
				sim.Run(100)
				if got == nil {
					t.Fatal("no update delivered")
				}
				isView := &got[0] == &model.ParamsView()[0]
				if isView != v.wantView {
					t.Fatalf("update is a view of the model: %v, want %v", isView, v.wantView)
				}
			})
		}
	}
}
