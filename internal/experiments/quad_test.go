package experiments

import (
	"math"
	"math/rand"

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

// optimum is c_k, the point this client's Train converges to.
func (m *quadModel) optimum() []float64 {
	n := len(m.goal)
	c := make([]float64, n)
	for i, g := range m.goal {
		c[i] = g + m.amp*m.goal[(i+m.shift)%n]
	}
	return c
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
