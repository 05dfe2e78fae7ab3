package fl

import (
	"bytes"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
)

// plainModel hides a model behind the Model interface alone: whatever it
// wraps, it carries no marker, so SimClient trains it on the event loop —
// the reference the detached path is compared against.
type plainModel struct{ Model }

// yieldingModel does train off the loop (it is declared in this package, so
// it can say so) and yields the processor around every step on both sides,
// which shifts, from one cycle to the next, whether a worker or the joining
// loop gets to run the training.
type yieldingModel struct{ Model }

func (m *yieldingModel) trainsIsolated() Model { return m }
func (m *yieldingModel) SetParams(p []float64) {
	runtime.Gosched()
	m.Model.SetParams(p)
	runtime.Gosched()
}
func (m *yieldingModel) Train(shard []int, epochs int, lr float64) {
	runtime.Gosched()
	m.Model.Train(shard, epochs, lr)
	runtime.Gosched()
}

// TestDetachedTrainingMatchesInline: for the two models that train off the
// event loop, a client's send times and update bits are those of the same
// client trained inline — along the honest path, every path that reads the
// trained vector at once, an absence window, and a model that arrives while
// the previous update is still on its way.
func TestDetachedTrainingMatchesInline(t *testing.T) {
	midCycleModel := func(e *Env, c *SimClient) {
		e.Sim.Schedule(0.25, func() {
			stale := make([]float64, c.Model.NumParams())
			for i := range stale {
				stale[i] = 0.01 * float64(i%5)
			}
			c.HandleModel(stale, 7, 0.05)
		})
	}
	variants := []struct {
		name  string
		setup func(*Env, *SimClient)
	}{
		{"honest", nil},
		{"sign-flip", func(_ *Env, c *SimClient) { c.Spec.Byzantine = ByzantineSignFlip }},
		{"noise", func(_ *Env, c *SimClient) { c.Spec.Byzantine = ByzantineNoise }},
		{"scaled-noise", func(_ *Env, c *SimClient) { c.Spec.Byzantine = ByzantineScaledNoise }},
		{"collude", func(_ *Env, c *SimClient) { c.Spec.Byzantine = ByzantineCollude }},
		{"absence", func(_ *Env, c *SimClient) { c.Spec.Absences = []Absence{{From: 0.15, Until: 0.5}} }},
		{"mid-cycle-model", midCycleModel},
		{"copy-updates/mid-cycle-model", func(e *Env, c *SimClient) {
			c.CopyUpdates = true
			midCycleModel(e, c)
		}},
	}
	const rounds = 5
	for _, tc := range aliasCases()[1:] { // the classifier and the language model
		if _, ok := tc.model().(isolatedTrainer); !ok {
			t.Fatalf("%s does not train off the loop; this test compares nothing", tc.name)
		}
		for _, v := range variants {
			for _, inPlace := range []bool{false, true} {
				name := tc.name + "/" + v.name
				if inPlace {
					name += "/reply-in-view"
				}
				t.Run(name, func(t *testing.T) {
					wantAt, want := protocolCycles(t, &plainModel{tc.model()}, tc.shard, rounds, inPlace, v.setup)
					for arm, m := range map[string]Model{"detached": tc.model(), "detached, yielding": &yieldingModel{tc.model()}} {
						gotAt, got := protocolCycles(t, m, tc.shard, rounds, inPlace, v.setup)
						if len(got) != len(want) {
							t.Fatalf("%s: %d updates delivered, %d inline", arm, len(got), len(want))
						}
						for r := range want {
							if gotAt[r] != wantAt[r] {
								t.Fatalf("%s: update %d delivered at %v, inline at %v", arm, r, gotAt[r], wantAt[r])
							}
							for i := range want[r] {
								if got[r][i] != want[r][i] {
									t.Fatalf("%s: update %d [%d] = %x, inline %x", arm, r, i, got[r][i], want[r][i])
								}
							}
						}
					}
				})
			}
		}
	}
}

// goid identifies the calling goroutine, from the "goroutine N [" header
// of its stack.
func goid() int {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, err := strconv.Atoi(string(fields[1]))
	if err != nil {
		panic(err)
	}
	return id
}

// trainLog is the unsynchronised state foreign models share in the test
// below: how often Train ran, and on which goroutines.
type trainLog struct {
	calls int
	ranOn []int
}

func (l *trainLog) note() {
	l.calls++
	l.ranOn = append(l.ranOn, goid())
}

// loopBound is a Model that must never leave the event loop: its Train
// writes the shared log before it trains.
type loopBound struct {
	Model
	log *trainLog
}

func (m *loopBound) Train(shard []int, epochs int, lr float64) {
	m.log.note()
	m.Model.Train(shard, epochs, lr)
}

// embedsClassifier is the nearest a foreign type gets to the marker: it
// embeds a model that carries it, so the method is promoted — and replaces
// Train with one that is not isolated.
type embedsClassifier struct {
	*Classifier
	log *trainLog
}

func (m *embedsClassifier) Train(shard []int, epochs int, lr float64) {
	m.log.note()
	m.Classifier.Train(shard, epochs, lr)
}

// TestForeignModelsTrainOnTheEventLoop: several clients whose models share
// unsynchronised state train concurrently in virtual time; every Train must
// run on the goroutine that called Run (and -race must stay silent).
func TestForeignModelsTrainOnTheEventLoop(t *testing.T) {
	classifier := aliasCases()[1]
	wrappers := map[string]func(*trainLog) Model{
		"wrapper": func(l *trainLog) Model { return &loopBound{Model: classifier.model(), log: l} },
		"embedding": func(l *trainLog) Model {
			return &embedsClassifier{Classifier: classifier.model().(*Classifier), log: l}
		},
	}
	for name, wrap := range wrappers {
		t.Run(name, func(t *testing.T) {
			const clients, rounds = 6, 4
			env, sim := clientEnv()
			var log trainLog
			for k := 0; k < clients; k++ {
				spec := env.Clients[0]
				spec.Shard, spec.Epochs = classifier.shard, 1
				spec.TrainDelay = 0.1 + 0.01*float64(k)
				var c *SimClient
				delivered := 0
				c = &SimClient{
					Env: env, Spec: spec, Model: wrap(&log),
					Deliver: func(_ int, update []float64, meta float64, _ obs.UID) {
						if delivered++; delivered < rounds {
							c.HandleModel(update, meta, 0.05)
						}
					},
				}
				sim.Schedule(0, func() { c.HandleModel(c.Model.Params(), 0, 0.05) })
			}
			sim.Run(100)
			if log.calls != clients*rounds {
				t.Fatalf("%d trainings, want %d", log.calls, clients*rounds)
			}
			for _, g := range log.ranOn {
				if g != goid() {
					t.Fatalf("a foreign model was trained on goroutine %d, Run was called on %d", g, goid())
				}
			}
		})
	}
}

// goroutineModel trains off the loop and records where each Train ran.
type goroutineModel struct {
	Model
	ranOn []int // written by Train, read after the join
}

func (m *goroutineModel) trainsIsolated() Model { return m }
func (m *goroutineModel) Train(shard []int, epochs int, lr float64) {
	m.ranOn = append(m.ranOn, goid())
	m.Model.Train(shard, epochs, lr)
}

// TestFirstTrainingWaitsForRun: the model an algorithm's Build hands each
// client before the simulator runs is trained off the loop too — held by
// Detach until Run starts the workers, so Build does not train the clients
// one after another — and the client's first update is delivered with the
// bits and at the time of an inline training.
func TestFirstTrainingWaitsForRun(t *testing.T) {
	tc := aliasCases()[1] // the classifier
	const clients = 3
	run := func(wrap func(Model) Model) (models []Model, updates [][]float64, at []float64) {
		env, sim := clientEnv()
		for k := 0; k < clients; k++ {
			spec := env.Clients[0]
			spec.Shard, spec.Epochs = tc.shard, 1
			spec.TrainDelay = 0.1 + 0.01*float64(k)
			m := wrap(tc.model())
			c := &SimClient{
				Env: env, Spec: spec, Model: m,
				Deliver: func(_ int, update []float64, _ float64, _ obs.UID) {
					updates = append(updates, append([]float64(nil), update...))
					at = append(at, sim.Now())
				},
			}
			c.HandleModel(c.Model.Params(), 0, 0.05) // as Build does
			models = append(models, m)
		}
		for _, m := range models {
			if g, ok := m.(*goroutineModel); ok && len(g.ranOn) != 0 {
				t.Fatalf("a client trained before Run, on goroutine %d", g.ranOn[0])
			}
		}
		sim.Run(100)
		return models, updates, at
	}
	_, want, wantAt := run(func(m Model) Model { return &plainModel{m} })
	models, got, gotAt := run(func(m Model) Model { return &goroutineModel{Model: m} })
	if !slices.Equal(gotAt, wantAt) || len(got) != clients {
		t.Fatalf("updates delivered at %v, inline at %v", gotAt, wantAt)
	}
	for k := range want {
		if !slices.Equal(got[k], want[k]) {
			t.Fatalf("client %d's first update differs from an inline training's", k)
		}
	}
	for k, m := range models {
		if ran := m.(*goroutineModel).ranOn; len(ran) != 1 {
			t.Errorf("client %d trained %d times, want once", k, len(ran))
		}
	}
}
