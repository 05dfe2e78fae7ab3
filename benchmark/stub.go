package main

// The benchmark's own learning task: a quadratic objective with one global
// optimum and a different optimum per client. It gives sim-protocol and
// live-ring model-sized vectors that really converge while the nn kernels
// do nothing.

import (
	"math"
	"math/rand"
)

// modelDim is the parameter count of the stub model.
const modelDim = 16384

// quadTask holds what every model of one task shares, read-only: the
// global optimum and a few directions along which client optima deviate
// from it. Shared vectors stay cache-resident, so a training step streams
// only the model's own parameters.
type quadTask struct {
	goal []float64
	dirs [8][]float64
}

func newQuadTask(seed int64) *quadTask {
	rng := rand.New(rand.NewSource(seed ^ 0x5bd1e995))
	t := &quadTask{goal: make([]float64, modelDim)}
	for i := range t.goal {
		t.goal[i] = rng.NormFloat64()
	}
	for d := range t.dirs {
		t.dirs[d] = make([]float64, modelDim)
		for i := range t.dirs[d] {
			t.dirs[d][i] = rng.NormFloat64()
		}
	}
	return t
}

// newQuadFactory returns the model factory of the task generated from
// seed. A model's own seed picks its client optimum, so the clients of a
// deployment pull in different directions (non-IID) and their mean pulls
// toward the global optimum.
func newQuadFactory(seed int64) func(seed int64) Model {
	task := newQuadTask(seed)
	return func(seed int64) Model { return task.model(seed) }
}

func (t *quadTask) model(seed int64) *quadModel {
	rng := rand.New(rand.NewSource(seed))
	return &quadModel{
		task: t,
		w:    make([]float64, modelDim),
		dir:  t.dirs[rng.Intn(len(t.dirs))],
		amp:  1.6*rng.Float64() - 0.8,
	}
}

// quadModel implements fl.Model on the quadratic task.
type quadModel struct {
	task  *quadTask
	w     []float64
	dir   []float64 // this client's optimum is goal + amp*dir
	amp   float64
	block int // the next block of coordinates Train works on
}

// trainBlocks is how many equal blocks Train rotates over. One local
// training steps a single block, trainBlocks times as far, which moves the
// model as much per update on average and keeps the stub's own cost a few
// percent of an update, the way a protocol benchmark needs it.
const trainBlocks = 8

func (m *quadModel) NumParams() int        { return len(m.w) }
func (m *quadModel) Params() []float64     { return append([]float64(nil), m.w...) }
func (m *quadModel) ParamsView() []float64 { return m.w }
func (m *quadModel) SetParams(p []float64) { copy(m.w, p) }

// Train takes one gradient step per epoch toward the client's optimum,
// each on the next block of coordinates.
func (m *quadModel) Train(_ []int, epochs int, lr float64) {
	const n = modelDim / trainBlocks
	for e := 0; e < epochs; e++ {
		m.step(m.w, m.w, m.block*n, (m.block+1)*n, math.Min(1, trainBlocks*lr))
		m.block = (m.block + 1) % trainBlocks
	}
}

// step writes src[lo:hi] moved by lr toward the client's optimum into
// dst[lo:hi].
func (m *quadModel) step(dst, src []float64, lo, hi int, lr float64) {
	goal, dir, amp := m.task.goal[lo:hi], m.dir[lo:hi], m.amp
	dst = dst[lo:hi]
	for i, w := range src[lo:hi] {
		dst[i] = w + lr*(goal[i]+amp*dir[i]-w)
	}
}

// Evaluate reports the mean squared distance to the global optimum as the
// loss, and 1/(1+loss) as an accuracy in (0,1] so accuracy targets work.
func (m *quadModel) Evaluate() (loss, acc float64) {
	return quadLoss(m.task.goal, m.w)
}

func quadLoss(goal, w []float64) (loss, acc float64) {
	for i, g := range goal {
		d := w[i] - g
		loss += d * d
	}
	loss /= float64(len(goal))
	return loss, 1 / (1 + loss)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// allFinite reports whether v holds no NaN and no infinity: either would
// survive in the sum of v times zero.
func allFinite(v []float64) bool {
	var a, b float64
	for i := 0; i+1 < len(v); i += 2 {
		a += v[i] * 0
		b += v[i+1] * 0
	}
	if len(v)%2 == 1 {
		a += v[len(v)-1] * 0
	}
	return a+b == 0
}
