package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/spyker-fl/spyker/internal/metrics"
)

// ScalabilityStudy is the data behind Tab. 5: how the time and update
// count needed to reach the target accuracy grow as the client population
// grows, per algorithm, normalized by the 1x population run.
type ScalabilityStudy struct {
	Target      float64
	Populations []int // client counts; the first is the baseline
	Rows        []ScalabilityRow
}

// ScalabilityRow is one algorithm's scaling factors.
type ScalabilityRow struct {
	Algorithm string
	// BaseTime/BaseUpdates are the absolute cost at the baseline
	// population; TimeFactor[i]/UpdateFactor[i] are multiplicative factors
	// for Populations[i+1] relative to the baseline. A factor of 0 means
	// the target was never reached.
	BaseTime      float64
	BaseUpdates   int
	TimeFactors   []float64
	UpdateFactors []float64
}

// RunScalabilityStudy reproduces Tab. 5 (MNIST, 4 servers, populations of
// 100/200/300 clients at scale 1). scale shrinks all populations.
func RunScalabilityStudy(scale float64, target float64, seed int64) (*ScalabilityStudy, error) {
	if target <= 0 {
		target = 0.90
	}
	pops := make([]int, 3)
	for i := range pops {
		if pops[i] = population(100*(i+1), scale, 0); pops[i] < 8 {
			pops[i] = 8 * (i + 1)
		}
	}
	study := &ScalabilityStudy{Target: target, Populations: pops}
	var w sweep
	for _, name := range ComparisonAlgorithms {
		row := ScalabilityRow{}
		for pi, pop := range pops {
			setup := baseSetup(pop, seed)
			setup.TargetAcc = target
			setup.Horizon = 420
			res := w.run(name, setup, nil)
			row.Algorithm = res.Algorithm
			// Both read 0 when the target was never reached; against a
			// baseline that missed it the factors are meaningless and
			// recorded as zeros too.
			tt, reached := res.Trace.TimeToAcc(target)
			uu, _ := res.Trace.UpdatesToAcc(target)
			switch {
			case pi == 0:
				row.BaseTime, row.BaseUpdates = tt, uu
			case !reached || row.BaseTime == 0:
				row.TimeFactors = append(row.TimeFactors, 0)
				row.UpdateFactors = append(row.UpdateFactors, 0)
			default:
				row.TimeFactors = append(row.TimeFactors, tt/row.BaseTime)
				row.UpdateFactors = append(row.UpdateFactors, float64(uu)/float64(row.BaseUpdates))
			}
		}
		study.Rows = append(study.Rows, row)
	}
	return study, w.err
}

// Render prints the table in the paper's layout.
func (s *ScalabilityStudy) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Tab. 5: scaling factors to reach %.0f%%%% accuracy (baseline: %d clients) ===\n",
		100*s.Target, s.Populations[0])
	fmt.Fprintf(&b, "%-14s", "algorithm")
	for _, p := range s.Populations[1:] {
		fmt.Fprintf(&b, " | %4d cl: time  upd", p)
	}
	fmt.Fprintf(&b, " | base: time  upd\n")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-14s", r.Algorithm)
		for i := range r.TimeFactors {
			if r.TimeFactors[i] == 0 {
				fmt.Fprintf(&b, " |       %s     ", notReached)
			} else {
				fmt.Fprintf(&b, " |      %5.2f %5.2f", r.TimeFactors[i], r.UpdateFactors[i])
			}
		}
		fmt.Fprintf(&b, " | %6.1fs %5d\n", r.BaseTime, r.BaseUpdates)
	}
	return b.String()
}

// LatencyStudy is the data behind Tab. 6: time for FedAsync and Spyker to
// reach 90%/95% accuracy with AWS latencies versus a uniform latency of
// equal average.
type LatencyStudy struct {
	Rows []LatencyRow
}

// LatencyRow is one (network, algorithm) cell pair of Tab. 6.
type LatencyRow struct {
	Network   string // "Lat." or "No lat."
	Algorithm string
	Time90    float64 // 0 if not reached
	Time95    float64
}

// RunLatencyStudy reproduces Tab. 6. The accuracy targets can be lowered
// (target90/target95) when running at reduced scale.
func RunLatencyStudy(scale, target90, target95 float64, seed int64) (*LatencyStudy, error) {
	if target90 <= 0 {
		target90 = 0.90
	}
	if target95 <= 0 {
		target95 = 0.95
	}
	setup := baseSetup(population(100, scale, 8), seed)
	setup.TargetAcc = target95
	setup.Horizon = 420
	study := &LatencyStudy{}
	var w sweep
	for _, uniform := range []bool{false, true} {
		network := "Lat."
		setup.Latency = nil // the AWS matrix
		if uniform {
			network = "No lat."
			setup.Latency = UniformMeanLatency()
		}
		for _, name := range []string{"fedasync", "spyker"} {
			res := w.run(name, setup, nil)
			study.Rows = append(study.Rows, LatencyRow{
				Network: network, Algorithm: res.Algorithm,
				Time90: timeTo(res.Trace, target90), Time95: timeTo(res.Trace, target95),
			})
		}
	}
	return study, w.err
}

// Improvement returns Spyker's relative speedup over FedAsync for the
// given network label at the 90% target: (fedasync-spyker)/fedasync.
func (s *LatencyStudy) Improvement(network string) float64 {
	var fa, sp float64
	for _, r := range s.Rows {
		if r.Network != network {
			continue
		}
		switch r.Algorithm {
		case "FedAsync":
			fa = r.Time90
		case "Spyker":
			sp = r.Time90
		}
	}
	if fa == 0 {
		return 0
	}
	return (fa - sp) / fa
}

// Render prints the table in the paper's layout.
func (s *LatencyStudy) Render() string {
	t := titled("=== Tab. 6: time to target accuracy, AWS latency vs uniform ===\n",
		col{"network", -8, ""}, col{"method", -10, ""}, col{"t(90%)", 10, "s"}, col{"t(95%)", 10, "s"})
	for _, r := range s.Rows {
		t.row(r.Network, r.Algorithm, fixed(r.Time90, 1), fixed(r.Time95, 1))
	}
	return t.b.String() + fmt.Sprintf("improvement with latency:    %5.1f%%\nimprovement without latency: %5.1f%%\n",
		100*s.Improvement("Lat."), 100*s.Improvement("No lat."))
}

// ImbalanceStudy is the data behind Tab. 7: the effect of concentrating
// clients on one server.
type ImbalanceStudy struct {
	Scenarios []ImbalanceScenario
}

// ImbalanceScenario is one column of Tab. 7.
type ImbalanceScenario struct {
	HotClients int     // clients on the hot server
	Accuracy   float64 // final accuracy
	Duration   float64 // time to the evaluation milestone (virtual s)
}

// RunImbalanceStudy reproduces Tab. 7: 4 servers with a growing client
// hotspot on server 0 (balanced, then 52%, 63% and 70% of the population,
// the paper's shares). The population (140 at scale 1) is chosen so the
// hottest scenario saturates the 2 ms aggregation service rate of a
// single server — the bottleneck mechanism behind the paper's growing
// convergence times. Accuracy is reported at a fixed update budget, so
// the queueing-induced staleness of the imbalanced scenarios shows up as
// an accuracy delta, as in the paper's table.
func RunImbalanceStudy(scale float64, seed int64) (*ImbalanceStudy, error) {
	total := population(140, scale, 12)
	const target = 0.95
	hotShares := []float64{0.25, 0.52, 0.63, 0.70}
	study := &ImbalanceStudy{}
	var w sweep
	var deadline float64
	for i, share := range hotShares {
		hot := int(float64(total) * share)
		setup := baseSetup(total, seed)
		setup.ClientsPerServer = append([]int{hot}, evenSplit(total-hot, 3)...)
		setup.Horizon = 90
		setup.TargetAcc = target
		res := w.run("spyker", setup, nil)
		dur, reached := res.Trace.TimeToAcc(target)
		if !reached {
			dur = res.FinalTime
		}
		if i == 0 {
			// The balanced run's convergence time is the deadline at
			// which every scenario's accuracy is compared, so the
			// queueing penalty of a hotspot shows up as an accuracy
			// delta, as in the paper's table.
			deadline = dur
		}
		study.Scenarios = append(study.Scenarios, ImbalanceScenario{
			HotClients: hot,
			Accuracy:   accAt(res.Trace, deadline),
			Duration:   dur,
		})
	}
	return study, w.err
}

// accAt returns the last accuracy at or before virtual time t (0 if the
// trace has no point that early).
func accAt(tr metrics.Trace, t float64) float64 {
	var acc float64
	for _, p := range tr {
		if p.Time > t {
			break
		}
		acc = p.Acc
	}
	return acc
}

// Render prints the table in the paper's delta layout: the balanced
// scenario in absolute terms, the others as differences.
func (s *ImbalanceStudy) Render() string {
	// One column per scenario; the first in absolute terms, the others
	// signed against it.
	cols := []col{{"hot-server size", -16, ""}}
	acc, dur := []string{"accuracy"}, []string{"duration (s)"}
	for i, sc := range s.Scenarios {
		base := s.Scenarios[0]
		cols = append(cols, col{strconv.Itoa(sc.HotClients), 10, ""})
		if i == 0 {
			acc = append(acc, fmt.Sprintf("%.1f%%", 100*sc.Accuracy))
			dur = append(dur, fixed(sc.Duration, 1))
		} else {
			acc = append(acc, fmt.Sprintf("%+.1f%%", 100*(sc.Accuracy-base.Accuracy)))
			dur = append(dur, fmt.Sprintf("%+.1f", sc.Duration-base.Duration))
		}
	}
	t := titled("=== Tab. 7: imbalanced clients per server (Spyker) ===\n", cols...)
	t.row(acc...)
	t.row(dur...)
	return t.b.String()
}
