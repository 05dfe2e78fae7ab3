package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/spyker-fl/spyker/internal/tensor"
)

func sampleTrace() Trace {
	return Trace{
		{Time: 1, Updates: 100, Loss: 2.0, Acc: 0.3},
		{Time: 2, Updates: 200, Loss: 1.0, Acc: 0.6},
		{Time: 3, Updates: 300, Loss: 0.5, Acc: 0.85},
		{Time: 4, Updates: 400, Loss: 0.4, Acc: 0.92},
	}
}

func TestTimeToAcc(t *testing.T) {
	tr := sampleTrace()
	if tt, ok := tr.TimeToAcc(0.6); !ok || tt != 2 {
		t.Errorf("TimeToAcc(0.6) = %v,%v", tt, ok)
	}
	if tt, ok := tr.TimeToAcc(0.9); !ok || tt != 4 {
		t.Errorf("TimeToAcc(0.9) = %v,%v", tt, ok)
	}
	if _, ok := tr.TimeToAcc(0.99); ok {
		t.Error("unreached target reported as reached")
	}
	if u, ok := tr.UpdatesToAcc(0.85); !ok || u != 300 {
		t.Errorf("UpdatesToAcc = %v,%v", u, ok)
	}
}

func TestPerplexity(t *testing.T) {
	p := Point{Loss: math.Log(32)}
	if math.Abs(p.Perplexity()-32) > 1e-9 {
		t.Errorf("Perplexity = %v", p.Perplexity())
	}
	tr := sampleTrace()
	if tt, ok := tr.TimeToPerplexity(math.Exp(0.5)); !ok || tt != 3 {
		t.Errorf("TimeToPerplexity = %v,%v", tt, ok)
	}
	if got := tr.BestPerplexity(); math.Abs(got-math.Exp(0.4)) > 1e-9 {
		t.Errorf("BestPerplexity = %v", got)
	}
}

func TestTraceSummary(t *testing.T) {
	tr := sampleTrace()
	if tr.BestAcc() != 0.92 {
		t.Errorf("BestAcc = %v", tr.BestAcc())
	}
	if tr.Final().Time != 4 {
		t.Errorf("Final = %+v", tr.Final())
	}
	var empty Trace
	if empty.Final() != (Point{}) || empty.BestAcc() != 0 {
		t.Error("empty trace summaries wrong")
	}
	if !math.IsInf(empty.BestPerplexity(), 1) {
		t.Error("empty BestPerplexity should be +Inf")
	}
}

func TestQueueTrace(t *testing.T) {
	q := QueueTrace{
		{Time: 0, Length: 0},
		{Time: 1, Length: 4},
		{Time: 3, Length: 2},
		{Time: 4, Length: 0},
	}
	if q.Max() != 4 {
		t.Errorf("Max = %d", q.Max())
	}
	// Mean over [1,4): lengths 4 for 2s, 2 for 1s = 10/3.
	if got := q.MeanAbove(1); math.Abs(got-10.0/3) > 1e-9 {
		t.Errorf("MeanAbove = %v", got)
	}
	if got := (QueueTrace{}).MeanAbove(0); got != 0 {
		t.Errorf("empty MeanAbove = %v", got)
	}
}

// TestInvFifthRootIsPow: the KDE bandwidth's n**-0.2 has math.Pow's bits
// for every sample count up to 10^5, wherever this process's math.Exp,
// which Pow calls, runs its fused path (as tensor.Exp does everywhere).
func TestInvFifthRootIsPow(t *testing.T) {
	if x := 12.033678535466372; math.Exp(x) != tensor.Exp(x) {
		t.Skip("math.Exp runs its unfused path in this process (no FMA, or GODEBUG=cpu.fma=off)")
	}
	for n := 1.0; n <= 1e5; n++ {
		if got, want := invFifthRoot(n), math.Pow(n, -0.2); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("invFifthRoot(%v) = %v, math.Pow %v", n, got, want)
		}
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = rng.NormFloat64() * 3
	}
	grid, density := KDE(samples, 256)
	if len(grid) != 256 || len(density) != 256 {
		t.Fatal("grid size wrong")
	}
	step := grid[1] - grid[0]
	var integral float64
	for _, d := range density {
		integral += d * step
	}
	if math.Abs(integral-1) > 0.05 {
		t.Errorf("KDE integrates to %v", integral)
	}
}

func TestKDEBimodalPeaks(t *testing.T) {
	var samples []float64
	for i := 0; i < 100; i++ {
		samples = append(samples, 10+float64(i%5)*0.1)
	}
	for i := 0; i < 40; i++ {
		samples = append(samples, 50+float64(i%5)*0.1)
	}
	grid, density := KDE(samples, 256)
	peaks := Peaks(grid, density, 0.15)
	if len(peaks) != 2 {
		t.Fatalf("peaks = %v, want 2", peaks)
	}
	if math.Abs(peaks[0]-10) > 2 || math.Abs(peaks[1]-50) > 2 {
		t.Errorf("peak locations %v", peaks)
	}
}

func TestKDEEmptyAndDegenerate(t *testing.T) {
	if g, d := KDE(nil, 10); g != nil || d != nil {
		t.Error("empty samples should return nil")
	}
	// All-identical samples: Silverman bandwidth is 0, must fall back.
	g, d := KDE([]float64{5, 5, 5}, 16)
	if len(g) != 16 || len(d) != 16 {
		t.Error("degenerate samples broke KDE")
	}
	for _, v := range d {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("KDE produced NaN/Inf")
		}
	}
}

func TestQuantile(t *testing.T) {
	s := []float64{4, 1, 3, 2}
	if q := Quantile(s, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(s, 1); q != 4 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(s, 0.5); math.Abs(q-2.5) > 1e-9 {
		t.Errorf("median = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Input must not be reordered.
	if s[0] != 4 {
		t.Error("Quantile sorted the caller's slice")
	}
}

func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.NormFloat64()
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(s, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
