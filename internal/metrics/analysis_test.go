package metrics

import (
	"math"
	"testing"
)

func linearTrace(times []float64, accs []float64) Trace {
	tr := make(Trace, len(times))
	for i := range times {
		tr[i] = Point{Time: times[i], Acc: accs[i]}
	}
	return tr
}

func TestAUC(t *testing.T) {
	// Accuracy 0.5 for 2s then 1.0 for 2s: area = 0.5*2 + 1*2 = 3 over 4s.
	tr := linearTrace([]float64{0, 2, 4}, []float64{0.5, 1.0, 1.0})
	if got := AUC(tr); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("AUC = %v, want 0.75", got)
	}
	if AUC(nil) != 0 {
		t.Error("empty AUC != 0")
	}
	if AUC(Trace{{Acc: 0.4}}) != 0.4 {
		t.Error("single-point AUC wrong")
	}
	perfect := linearTrace([]float64{0, 1}, []float64{1, 1})
	if AUC(perfect) != 1 {
		t.Error("pinned-at-1 AUC != 1")
	}
}

func TestConvergenceRate(t *testing.T) {
	// Reaches 63.2% of its final 1.0 at t=3.
	tr := linearTrace([]float64{0, 1, 2, 3, 4}, []float64{0, 0.2, 0.4, 0.7, 1.0})
	tau := ConvergenceRate(tr)
	if tau != 3 {
		t.Errorf("tau = %v, want 3", tau)
	}
	fast := linearTrace([]float64{0, 1, 2, 3, 4}, []float64{0, 0.8, 0.9, 0.95, 1.0})
	if fastTau := ConvergenceRate(fast); fastTau >= tau {
		t.Errorf("faster curve has tau %v >= %v", fastTau, tau)
	}
	if ConvergenceRate(nil) != 0 || ConvergenceRate(Trace{{Acc: 1}}) != 0 {
		t.Error("degenerate traces should return 0")
	}
}
