package experiments

import (
	"fmt"
)

// ChurnStudy goes beyond the paper's evaluation (an extension exercising
// the staleness machinery): a third of the clients go offline mid-run and
// rejoin later, sending updates based on models from before the outage.
// A robust asynchronous system must neither stall while they are away nor
// regress when their stale updates land.
type ChurnStudy struct {
	Fraction   float64
	From, Till float64
	Spyker     *Result
	FedAsync   *Result
}

// RunChurnStudy trains MNIST with 100*scale clients; Fraction of them are
// offline during the middle third of the horizon.
func RunChurnStudy(scale float64, seed int64) (*ChurnStudy, error) {
	const (
		horizon  = 36.0
		from     = 12.0
		till     = 24.0
		fraction = 1.0 / 3
	)
	setup := baseSetup(population(100, scale, 9), seed)
	setup.ChurnFraction = fraction
	setup.ChurnFrom = from
	setup.ChurnUntil = till
	setup.Horizon = horizon
	setup.EvalEvery = 50
	var w sweep
	res := w.each(spykerAndFedAsync, setup)
	return &ChurnStudy{Fraction: fraction, From: from, Till: till, Spyker: res[0], FedAsync: res[1]}, w.err
}

// AccuracyDip returns, for the given result, the largest accuracy drop
// from the running maximum during and after the churn window — the
// regression a stale-update storm could cause.
func (c *ChurnStudy) AccuracyDip(r *Result) float64 {
	var runMax, dip float64
	for _, p := range r.Trace {
		if p.Acc > runMax {
			runMax = p.Acc
		}
		if p.Time >= c.From {
			if d := runMax - p.Acc; d > dip {
				dip = d
			}
		}
	}
	return dip
}

// Render prints both traces with the churn window marked.
func (c *ChurnStudy) Render() string {
	t := titled(fmt.Sprintf("=== churn extension: %.0f%%%% of clients offline during [%.0fs, %.0fs) ===\n",
		100*c.Fraction, c.From, c.Till), col{"time(s)", 10, ""}, col{"Spyker", 12, "%"}, col{"FedAsync", 12, "%"})
	sp := thinTrace(c.Spyker.Trace, 14)
	fa := thinTrace(c.FedAsync.Trace, 14)
	for i := 0; i < len(sp) && i < len(fa); i++ {
		marker := " "
		if sp[i].Time >= c.From && sp[i].Time < c.Till {
			marker = "*" // churn window
		}
		t.row(fixed(sp[i].Time, 2)+marker, fixed(100*sp[i].Acc, 1), fixed(100*fa[i].Acc, 1))
	}
	fmt.Fprintf(t.b, "max accuracy dip after churn onset: Spyker %.1f%%, FedAsync %.1f%%\n",
		100*c.AccuracyDip(c.Spyker), 100*c.AccuracyDip(c.FedAsync))
	fmt.Fprintf(t.b, "final: Spyker %.1f%%, FedAsync %.1f%%\n",
		100*c.Spyker.Trace.Final().Acc, 100*c.FedAsync.Trace.Final().Acc)
	return t.b.String()
}
