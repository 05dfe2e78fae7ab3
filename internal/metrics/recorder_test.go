package metrics

import (
	"math"
	"math/rand"
	"testing"

	"github.com/spyker-fl/spyker/internal/simulation"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// stubModel lets the tests control the reported accuracy and inspect what
// parameters the recorder evaluated.
type stubModel struct {
	lastParams []float64
	acc        float64
}

func (s *stubModel) NumParams() int               { return 2 }
func (s *stubModel) Params() []float64            { return append([]float64(nil), s.lastParams...) }
func (s *stubModel) ParamsView() []float64        { return s.lastParams }
func (s *stubModel) SetParams(p []float64)        { s.lastParams = append([]float64(nil), p...) }
func (s *stubModel) Train([]int, int, float64)    {}
func (s *stubModel) Evaluate() (float64, float64) { return 1.5, s.acc }

func TestRecorderEvaluatesEveryN(t *testing.T) {
	sim := simulation.New()
	m := &stubModel{acc: 0.5}
	r := NewRecorder(sim, m, 3)
	models := func() [][]float64 { return [][]float64{{2, 4}, {4, 8}} }
	for i := 0; i < 7; i++ {
		r.ClientUpdateProcessed(float64(i), 0, i%2, models)
	}
	if len(r.TraceData) != 2 {
		t.Fatalf("trace points = %d, want 2 (updates 3 and 6)", len(r.TraceData))
	}
	if r.TraceData[0].Updates != 3 || r.TraceData[1].Updates != 6 {
		t.Errorf("trace updates = %+v", r.TraceData)
	}
	// The recorder must have evaluated the average of the server models.
	if m.lastParams[0] != 3 || m.lastParams[1] != 6 {
		t.Errorf("evaluated params = %v, want averaged {3,6}", m.lastParams)
	}
	if r.Updates() != 7 {
		t.Errorf("Updates = %d", r.Updates())
	}
	if r.ClientUpdates[0] != 4 || r.ClientUpdates[1] != 3 {
		t.Errorf("per-client counts = %v", r.ClientUpdates)
	}
}

func TestRecorderStopsAtTarget(t *testing.T) {
	sim := simulation.New()
	m := &stubModel{acc: 0.95}
	r := NewRecorder(sim, m, 1)
	r.TargetAcc = 0.9
	stopped := false
	sim.Schedule(10, func() { stopped = false })
	r.ClientUpdateProcessed(1, 0, 0, func() [][]float64 { return [][]float64{{1, 1}} })
	reached, at := r.Reached()
	if !reached || at != 1 {
		t.Errorf("Reached = %v,%v, want true,1", reached, at)
	}
	// The simulator must have been stopped: the scheduled event at t=10
	// stays pending on the next Run because Stop was requested.
	sim.Run(5)
	_ = stopped
	if sim.Pending() != 1 {
		t.Errorf("pending events = %d", sim.Pending())
	}
}

func TestRecorderMaxUpdateStops(t *testing.T) {
	sim := simulation.New()
	m := &stubModel{acc: 0.1}
	r := NewRecorder(sim, m, 100)
	r.MaxUpdate = 5
	for i := 0; i < 5; i++ {
		r.ClientUpdateProcessed(float64(i), 0, 0, func() [][]float64 { return nil })
	}
	if r.Updates() != 5 {
		t.Errorf("Updates = %d", r.Updates())
	}
}

func TestRecorderQueueTraces(t *testing.T) {
	sim := simulation.New()
	r := NewRecorder(sim, &stubModel{}, 10)
	r.QueueLength(1, 0, 3)
	r.QueueLength(2, 0, 2)
	r.QueueLength(1, 1, 7)
	if len(r.QueueData[0]) != 2 || len(r.QueueData[1]) != 1 {
		t.Errorf("queue data = %+v", r.QueueData)
	}
	if r.QueueData[1][0].Length != 7 {
		t.Error("queue sample wrong")
	}
}

func TestUpdateCountSamples(t *testing.T) {
	sim := simulation.New()
	r := NewRecorder(sim, &stubModel{}, 10)
	r.ClientUpdateProcessed(0, 0, 2, func() [][]float64 { return nil })
	r.ClientUpdateProcessed(0, 0, 2, func() [][]float64 { return nil })
	r.ClientUpdateProcessed(0, 0, 0, func() [][]float64 { return nil })
	got := r.UpdateCountSamples(4)
	want := []float64{1, 0, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("samples = %v, want %v", got, want)
		}
	}
}

// TestAverageIntoMatchesZeroThenAXPY: folding four models per sweep gives
// every element the additions of Zero followed by one AXPY per model, in
// that order, so the evaluated vector has the same bits — for every server
// count around the group size, including signed zeros (0 + -0 is +0, which
// the leading zero must keep deciding), denormals, infinities, and NaN
// exactly where the reference has NaN.
func TestAverageIntoMatchesZeroThenAXPY(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	special := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		-0x1p-1050, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for n := 1; n <= 9; n++ {
		for _, dim := range []int{1, 7, 64, 1001} {
			models := make([][]float64, n)
			for k := range models {
				models[k] = make([]float64, dim)
				for i := range models[k] {
					if rng.Intn(5) == 0 {
						models[k][i] = special[rng.Intn(len(special))]
					} else {
						models[k][i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(80)-40))
					}
				}
			}
			// Column 0 is -0 in every model: the plain sum of -0s is -0,
			// the average that starts from +0 is +0.
			for k := range models {
				models[k][0] = math.Copysign(0, -1)
			}

			want := make([]float64, dim)
			for i := range want {
				want[i] = rng.NormFloat64() // stale contents Zero must erase
			}
			got := append([]float64(nil), want...)

			tensor.Zero(want)
			share := 1 / float64(n)
			for _, m := range models {
				tensor.AXPY(share, want, m)
			}
			averageInto(got, models)

			for i := range want {
				if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
					// Which payload survives when two NaNs are added is the
					// compiler's choice of operand order, not arithmetic.
					continue
				}
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d dim=%d: avg[%d] = %x, Zero+AXPY gives %x", n, dim, i,
						math.Float64bits(got[i]), math.Float64bits(want[i]))
				}
			}
			if math.Signbit(got[0]) {
				t.Fatalf("n=%d: the average of -0s lost its leading +0", n)
			}
		}
	}
}

func TestAverageIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a model of another length")
		}
	}()
	averageInto(make([]float64, 4), [][]float64{make([]float64, 4), make([]float64, 5)})
}
