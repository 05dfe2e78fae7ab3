package experiments

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/metrics"
)

// quadDim is quadModel's parameter count, the size of the benchmark's stub
// model: big enough that a server's merge is worth handing to a worker.
const quadDim = 16384

// quadModel is a quadratic objective with one optimum per client, so a
// deployment of them pulls in different directions and really converges
// while the nn kernels do nothing. Train stays on the event loop (it is no
// fl.Classifier), which leaves the servers' merges as the only work off it.
type quadModel struct {
	goal  []float64 // the global optimum, shared read-only by a run's models
	w     []float64
	amp   float64 // this client's optimum is goal[i] + amp*goal[(i+shift)%n]
	shift int
	block int // the block of coordinates the next Train works on
}

// quadFactory builds the models of the task generated from seed.
func quadFactory(seed int64) fl.ModelFactory {
	rng := rand.New(rand.NewSource(seed))
	goal := make([]float64, quadDim)
	for i := range goal {
		goal[i] = rng.NormFloat64()
	}
	return func(seed int64) fl.Model {
		r := rand.New(rand.NewSource(seed))
		m := &quadModel{goal: goal, w: make([]float64, quadDim), amp: r.Float64() - 0.5, shift: 1 + r.Intn(quadDim-1)}
		for i := range m.w {
			m.w[i] = 0.1 * r.NormFloat64()
		}
		return m
	}
}

func (m *quadModel) NumParams() int        { return len(m.w) }
func (m *quadModel) Params() []float64     { return append([]float64(nil), m.w...) }
func (m *quadModel) ParamsView() []float64 { return m.w }
func (m *quadModel) SetParams(p []float64) { copy(m.w, p) }

// Train steps one eighth of the coordinates per epoch, eight times as far,
// rotating over the blocks: the model moves as much per update on average
// and the test stays quick under the race detector.
func (m *quadModel) Train(_ []int, epochs int, lr float64) {
	const blocks = 8
	n := len(m.w)
	lr = math.Min(1, blocks*lr)
	for e := 0; e < epochs; e++ {
		lo := m.block * n / blocks
		for i := lo; i < lo+n/blocks; i++ {
			m.w[i] += lr * (m.goal[i] + m.amp*m.goal[(i+m.shift)%n] - m.w[i])
		}
		m.block = (m.block + 1) % blocks
	}
}

// Evaluate reports the mean squared distance to the global optimum, and
// 1/(1+loss) as the accuracy.
func (m *quadModel) Evaluate() (loss, acc float64) {
	for i, g := range m.goal {
		d := m.w[i] - g
		loss += d * d
	}
	loss /= float64(len(m.w))
	return loss, 1 / (1 + loss)
}

// useQuadModel swaps the environment's model for quadModel, on the clients,
// the servers and the recorder.
func useQuadModel(env *fl.Env) {
	factory := quadFactory(env.Seed)
	env.NewModel = factory
	env.Observer.(*metrics.Recorder).EvalModel = factory(env.Seed)
	env.ModelBytes = fl.ModelWireBytes(quadDim)
}

// signFlip makes client 1 a Byzantine one, so the vector its updates
// arrive in, and the merge replies in, is not its model's own.
func signFlip(e *fl.Env) { e.Clients[1].Byzantine = fl.ByzantineSignFlip }

// mergeBits is what one merge-heavy seeded run must reproduce: the oracle's
// bits plus the sync rounds the servers triggered.
type mergeBits struct {
	oracleBits
	syncs int
}

// TestMergeOffTheLoopCannotMoveResults pins Spyker runs in which the
// servers' client merges run off the event loop: four servers exchanging
// models in sync rounds, an evaluation (which reads every server model)
// every ten updates, and a 16k-parameter model. The audit row must equal the
// plain one. The rows were recorded on
// ba2e830, where every merge still ran on the loop, so a merge that is read
// before it is joined, or joined into the wrong server's model, fails here.
// The variants cover every path that reads the model besides the plain
// merge: the audit diff, a reply that is not the client's own vector (a
// Byzantine payload), the clip path, and a fault-armed run with periodic
// checkpoints, a crash and restart, an elastic join and an elastic leave.
// Each row runs plain and with the loop yielding around every update (see
// yieldingObserver); run it with -cpu 1,4.
func TestMergeOffTheLoopCannotMoveResults(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the recorded bits are amd64's; on %s the compiler may fuse x*y + z", runtime.GOARCH)
	}
	recovery := func() *fl.Hyper {
		h := fl.DefaultHyper(48, 4)
		h.TokenTimeout = 1
		h.SyncRetry = 0.5
		return &h
	}
	cases := []struct {
		name   string
		setup  func(*Setup)
		env    func(*fl.Env) // nil: the environment as BuildEnv made it
		faults int           // fault-plan events the run must apply
		want   mergeBits
	}{
		{"plain", nil, nil, 0, mergeBits{oracleBits{0x3fc58959ac0c33b2, 0x3feb642c528c8d06, 0x4011e15819b717eb, 1200, 0xcf64d25cc5d0e740}, 7}},
		{"audit", func(s *Setup) { s.Audit = true }, nil, 0, mergeBits{oracleBits{0x3fc58959ac0c33b2, 0x3feb642c528c8d06, 0x4011e15819b717eb, 1200, 0xcf64d25cc5d0e740}, 7}},
		{"sign-flip", nil, signFlip, 0, mergeBits{oracleBits{0x3fc9f16b37ac160d, 0x3fea9b744e37ffc5, 0x4011e15819b717eb, 1200, 0x8cda8a91abf34a80}, 7}},
		{"clip3+sign-flip", func(s *Setup) {
			h := fl.DefaultHyper(48, 4)
			h.RobustClipFactor = 3
			s.Hyper = &h
		}, signFlip, 0, mergeBits{oracleBits{0x3fc8edd9e880da43, 0x3feac89d6ef1c595, 0x4011e15819b717eb, 1200, 0x139ff4febcbec3bd}, 7}},
		{"faults", func(s *Setup) {
			s.Hyper = recovery()
			s.Faults = &fault.Plan{Seed: 9, CheckpointEvery: 0.5, Events: []fault.Event{
				{At: 1.5, Kind: fault.KindCrash, Server: 1, Duration: 1},
				{At: 2.5, Kind: fault.KindJoin, Server: 0},
				{At: 3.5, Kind: fault.KindLeave, Server: 2},
			}}
		}, nil, 4, mergeBits{oracleBits{0x3fc662fb94671aee, 0x3feb3c88a313dca7, 0x4014f93be4aec1c0, 1200, 0xd252f2af0314bc64}, 7}},
	}
	unfused := math.Float64bits(math.Exp(12.033678535466372)) == 0x41048c4bd988246e
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if w, ok := mergeUnfused[tc.name]; ok && unfused {
				tc.want = w
			}
			setup := Setup{
				Task: TaskMNIST, NumServers: 4, NumClients: 48, NonIIDLabels: 2, DatasetScale: 0.1,
				Seed: 5, MaxUpdates: 1200, EvalEvery: 10, Horizon: 60,
			}
			if tc.setup != nil {
				tc.setup(&setup)
			}
			prepare := func(e *fl.Env) {
				useQuadModel(e)
				if tc.env != nil {
					tc.env(e)
				}
			}
			arms := []struct {
				name string
				edit func(*fl.Env)
			}{
				{"plain", prepare},
				{"yields", func(e *fl.Env) {
					prepare(e)
					e.Observer = yieldingObserver{e.Observer}
				}},
			}
			for _, arm := range arms {
				res, err := runPrepared("spyker", setup, arm.edit)
				if err != nil {
					t.Fatal(err)
				}
				final := res.Trace.Final()
				got := mergeBits{oracleBits{
					loss:      math.Float64bits(final.Loss),
					acc:       math.Float64bits(final.Acc),
					finalTime: math.Float64bits(res.FinalTime),
					updates:   res.Updates,
					trace:     traceHash(res),
				}, 0}
				for _, c := range res.cores {
					got.syncs += c.SyncsTriggered()
				}
				if got.syncs == 0 || res.faultEvents != tc.faults {
					t.Errorf("%s: %d syncs, %d fault events applied; the row must sync and apply %d",
						arm.name, got.syncs, res.faultEvents, tc.faults)
				}
				if got != tc.want {
					t.Errorf("%s: results moved (loss %v acc %v updates %d t %v):\n got  mergeBits{oracleBits{%#x, %#x, %#x, %d, %#x}, %d}\n want mergeBits{oracleBits{%#x, %#x, %#x, %d, %#x}, %d}",
						arm.name, final.Loss, final.Acc, res.Updates, res.FinalTime,
						got.loss, got.acc, got.finalTime, got.updates, got.trace, got.syncs,
						tc.want.loss, tc.want.acc, tc.want.finalTime, tc.want.updates, tc.want.trace, tc.want.syncs)
				}
			}
		})
	}
}

// mergeUnfused: the rows where math.Exp runs its unfused path (see
// oracleUnfused), where the servers' sigmoid aggregation weight rounds
// differently. Recorded on ba2e830 under GODEBUG=cpu.fma=off.
var mergeUnfused = map[string]mergeBits{
	"plain":           {oracleBits{0x3fc58959ac0c33b2, 0x3feb642c528c8d06, 0x4011e15819b717eb, 1200, 0xfda24c7c799fe89b}, 7},
	"audit":           {oracleBits{0x3fc58959ac0c33b2, 0x3feb642c528c8d06, 0x4011e15819b717eb, 1200, 0xfda24c7c799fe89b}, 7},
	"sign-flip":       {oracleBits{0x3fc9f16b37ac160d, 0x3fea9b744e37ffc5, 0x4011e15819b717eb, 1200, 0xa5a57341b17d1b89}, 7},
	"clip3+sign-flip": {oracleBits{0x3fc8edd9e880da43, 0x3feac89d6ef1c595, 0x4011e15819b717eb, 1200, 0x2b6079af9a791235}, 7},
	"faults":          {oracleBits{0x3fc662fb94671aef, 0x3feb3c88a313dca7, 0x4014f93be4aec1c0, 1200, 0x7f7d207e4242f03}, 7},
}
