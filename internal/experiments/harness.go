package experiments

import (
	"fmt"
	"strings"

	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/metrics"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// What the fifteen studies share: population and base deployment, the
// time-to-target cell, the task metric, the aligned table, the sweep of
// runs. A study file holds only its own sweep, result type and wording.

// unitScale returns scale, or 1 when it lies outside (0,1].
func unitScale(scale float64) float64 {
	if scale <= 0 || scale > 1 {
		return 1
	}
	return scale
}

// population scales a study's full-size client count (scale outside (0,1]
// means 1), never below the floor its mechanism needs.
func population(full int, scale float64, floor int) int {
	return max(int(float64(full)*unitScale(scale)), floor)
}

// baseSetup is the deployment the studies vary: MNIST, the given number of
// clients evenly over 4 servers in the four AWS regions, non-IID data with
// two labels per client.
func baseSetup(clients int, seed int64) Setup {
	return Setup{Task: TaskMNIST, NumServers: 4, NumClients: clients, NonIIDLabels: 2, Seed: seed}
}

// timeTo is the virtual time at which tr first reaches the target
// accuracy, 0 if it never does.
func timeTo(tr metrics.Trace, target float64) float64 {
	t, _ := tr.TimeToAcc(target)
	return t
}

// notReached is the cell of a time-to-target that was not reached.
const notReached = "(n/r)"

// timeCell prints a time-to-target (0 = not reached) as a table cell.
func timeCell(t float64) string {
	if t > 0 {
		return fmt.Sprintf("%.2fs", t)
	}
	return notReached
}

// orDash is s, or "-" for a cell whose value does not exist in this row.
func orDash(exists bool, s string) string {
	if exists {
		return s
	}
	return "-"
}

// fixed prints v with prec decimals, the numeric part of a table cell.
func fixed(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// mb converts a byte count to megabytes.
func mb(bytes int) float64 { return float64(bytes) / 1e6 }

// taskMetric is how a task's progress is read off a trace and printed:
// accuracy for the image tasks, perplexity for text. The fork is taken
// once, in metricOf; everything downstream reads these fields.
type taskMetric struct {
	name   string  // "acc", "ppl"
	axis   string  // plot axis label
	goal   string  // what reaching a target means, in words
	unit   string  // printed after a value
	prec   int     // decimals of a printed value
	scale  float64 // printed value = scale * natural value
	sign   float64 // +1: higher is better, -1: lower is better
	ideal  float64 // the value no run beats
	margin float64 // relaxes a best value into a target every run crosses
	value  func(metrics.Point) float64
	best   func(metrics.Trace) float64
	timeTo func(metrics.Trace, float64) (float64, bool)
	// legend and extra are the metric's additional per-run summary
	// figures and the words explaining them (none for perplexity).
	legend string
	extra  func(metrics.Trace) string
}

var (
	accuracyMetric = taskMetric{
		name: "acc", axis: "accuracy %", goal: "accuracy >=", unit: "%", prec: 1,
		scale: 100, sign: 1, ideal: 1, margin: 0.98,
		value:  func(p metrics.Point) float64 { return p.Acc },
		best:   metrics.Trace.BestAcc,
		timeTo: metrics.Trace.TimeToAcc,
		legend: " (auc = time-normalized area under the curve,\ntau = time to 63% of final accuracy)",
		extra: func(t metrics.Trace) string {
			return fmt.Sprintf("auc=%.3f tau=%.1fs", metrics.AUC(t), metrics.ConvergenceRate(t))
		},
	}
	perplexityMetric = taskMetric{
		name: "ppl", axis: "perplexity", goal: "perplexity <=", prec: 2,
		scale: 1, sign: -1, ideal: 0, margin: 1.02,
		value:  metrics.Point.Perplexity,
		best:   metrics.Trace.BestPerplexity,
		timeTo: metrics.Trace.TimeToPerplexity,
	}
)

// metricOf returns the metric a task is judged by.
func metricOf(t Task) taskMetric {
	if t == TaskWiki {
		return perplexityMetric
	}
	return accuracyMetric
}

// cell prints a natural value of the metric, scaled, with its unit.
func (m taskMetric) cell(v float64) string { return fixed(m.scale*v, m.prec) + m.unit }

// col is one column of a table: its header, its width (negative =
// left-aligned, as in %-12s) and the unit printed after every value. A
// value is right-aligned so that a one-character unit ends at the column
// edge; "MB" therefore runs one past it, as these tables always have.
type col struct {
	head  string
	width int
	unit  string
}

// table writes aligned rows under a header, columns separated by one
// space.
type table struct {
	b    *strings.Builder
	cols []col
}

// newTable writes the header line and returns the table for its rows.
func newTable(b *strings.Builder, cols ...col) table {
	t := table{b, cols}
	for i, c := range cols {
		t.cell(i, c.width, c.head)
	}
	b.WriteByte('\n')
	return t
}

// titled starts a printout of its own: the title line, then the table.
func titled(title string, cols ...col) table {
	b := &strings.Builder{}
	b.WriteString(title)
	return newTable(b, cols...)
}

// row writes one line of cells (values without their unit).
func (t table) row(cells ...string) {
	for i, c := range t.cols {
		if c.unit == "" {
			t.cell(i, c.width, cells[i])
		} else {
			t.cell(i, c.width-1, cells[i])
			t.b.WriteString(c.unit)
		}
	}
	t.b.WriteByte('\n')
}

func (t table) cell(i, width int, s string) {
	if i > 0 {
		t.b.WriteByte(' ')
	}
	fmt.Fprintf(t.b, "%*s", width, s)
}

// sweep is a study's sequence of runs. The first run that fails is kept
// in err and turns every later run into a no-op yielding an empty result,
// so a study builds its rows straight through and reports err once, at
// the end, beside whatever it had built.
type sweep struct{ err error }

// run is Run — with runPrepared's prepare hook — as one step of the sweep.
func (w *sweep) run(alg string, s Setup, prepare func(*fl.Env)) *Result {
	if w.err == nil {
		res, err := runPrepared(alg, s, prepare)
		if err == nil {
			return res
		}
		w.err = err
	}
	return &Result{}
}

// each runs every named algorithm on the same setup.
func (w *sweep) each(names []string, s Setup) []*Result {
	out := make([]*Result, len(names))
	for i, n := range names {
		out[i] = w.run(n, s, nil)
	}
	return out
}

// SpykerRun is what the fault studies (failover, elastic, Byzantine)
// report of one instrumented Spyker run.
type SpykerRun struct {
	FinalAcc       float64
	BestAcc        float64
	SyncsTriggered int // summed over servers, post-run
	FaultEvents    int // fault-plan events actually applied

	cores []*spyker.ServerCore // post-run protocol state
}

// spyker runs Spyker on setup — prepare as in runPrepared — keeping the
// server cores for what a study reads off them.
func (w *sweep) spyker(setup Setup, prepare func(*fl.Env)) SpykerRun {
	res := w.run("spyker", setup, prepare)
	run := SpykerRun{FinalAcc: res.Trace.Final().Acc, BestAcc: res.Trace.BestAcc(),
		FaultEvents: res.faultEvents, cores: res.cores}
	for _, c := range run.cores {
		run.SyncsTriggered += c.SyncsTriggered()
	}
	return run
}

// recoverySetup is the deployment of the failover and elastic studies:
// the MNIST base on a ring of the given size with Spyker's token-loss
// recovery armed, traced into the returned registry (the metrics bridge
// measures sync latency from the event stream), under plan (nil = no
// faults).
func recoverySetup(clients, servers int, seed int64, horizon float64, plan *fault.Plan) (Setup, *obs.Registry) {
	hyper := fl.DefaultHyper(clients, servers)
	hyper.TokenTimeout = 5
	hyper.SyncRetry = 2.5
	reg := obs.NewRegistry()
	setup := baseSetup(clients, seed)
	setup.NumServers = servers
	setup.Horizon = horizon
	setup.EvalEvery = 100
	setup.Hyper = &hyper
	setup.Trace = obs.NewTracer(1 << 15)
	setup.Metrics = reg
	setup.Faults = plan
	return setup, reg
}
