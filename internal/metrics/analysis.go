package metrics

import "math"

// AUC integrates accuracy over time between the trace's first and last
// samples (piecewise constant), normalized by the span — a scalar summary
// of "how high and how early" a curve sits; 1.0 is a run pinned at 100%
// accuracy throughout.
func AUC(tr Trace) float64 {
	if len(tr) < 2 {
		if len(tr) == 1 {
			return tr[0].Acc
		}
		return 0
	}
	var area float64
	for i := 0; i+1 < len(tr); i++ {
		area += tr[i].Acc * (tr[i+1].Time - tr[i].Time)
	}
	span := tr[len(tr)-1].Time - tr[0].Time
	if span <= 0 {
		return tr[0].Acc
	}
	return area / span
}

// ConvergenceRate fits acc(t) ~ final*(1 - exp(-t/tau)) by estimating tau
// from the time the smoothed trace first reaches 63.2% of its final
// accuracy. Smaller tau = faster convergence. Returns 0 if the trace is
// too short or never reaches the threshold.
func ConvergenceRate(tr Trace) (tau float64) {
	if len(tr) < 3 {
		return 0
	}
	final := tr[len(tr)-1].Acc
	if final <= 0 {
		return 0
	}
	threshold := final * (1 - math.Exp(-1))
	for _, p := range tr {
		if p.Acc >= threshold {
			return p.Time - tr[0].Time
		}
	}
	return 0
}
