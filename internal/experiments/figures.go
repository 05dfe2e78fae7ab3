package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/metrics"
	"github.com/spyker-fl/spyker/internal/plot"
)

// Comparison holds the five-algorithm convergence comparison behind
// Figs. 3-8: one trace per algorithm on one task.
type Comparison struct {
	Task    Task
	Results []*Result
}

// RunComparison reproduces the accuracy/perplexity-versus-time-and-updates
// figures (Fig. 3/4 for WikiText, 5/6 for MNIST, 7/8 for CIFAR). The
// deployment is the paper's: 100 clients evenly spread over 4 servers in
// the four AWS regions, non-IID data. scale in (0,1] shrinks the client
// count and horizon proportionally for quick runs; pass 1 for the full
// deployment.
func RunComparison(task Task, scale float64, seed int64) (*Comparison, error) {
	setup := baseSetup(population(100, scale, 8), seed)
	setup.Task = task
	setup.Horizon = 60
	setup.MaxUpdates = int(12000 * unitScale(scale))
	var w sweep
	return &Comparison{Task: task, Results: w.each(ComparisonAlgorithms, setup)}, w.err
}

// Render prints the traces as aligned series, one block per algorithm:
// the same data the paper plots.
func (c *Comparison) Render() string {
	var b strings.Builder
	m := metricOf(c.Task)
	fmt.Fprintf(&b, "=== %s: convergence vs time and vs #updates (%s) ===\n", c.Task, m.name+m.unit)
	for _, r := range c.Results {
		fmt.Fprintf(&b, "\n-- %s --\n", r.Algorithm)
		t := newTable(&b, col{"time(s)", 10, ""}, col{"updates", 9, ""}, col{m.name + m.unit, 9, m.unit})
		for _, p := range thinTrace(r.Trace, 12) {
			t.row(fixed(p.Time, 2), strconv.Itoa(p.Updates), fixed(m.scale*m.value(p), m.prec))
		}
		final := r.Trace.Final()
		fmt.Fprintf(&b, "best %s %s after %.1fs / %d updates\n",
			m.name, m.cell(m.best(r.Trace)), final.Time, final.Updates)
	}
	b.WriteString("\n" + c.Summary())
	b.WriteString("\n" + c.Plot())
	return b.String()
}

// Plot draws the convergence-vs-time curves as an ASCII chart — the
// terminal rendition of Figs. 3, 5 and 7.
func (c *Comparison) Plot() string {
	m := metricOf(c.Task)
	series := make([]plot.Series, 0, len(c.Results))
	for _, r := range c.Results {
		series = append(series, traceSeries(r.Algorithm, r.Trace, m))
	}
	return plot.Chart{
		Title:  fmt.Sprintf("%s: convergence vs virtual time", c.Task),
		XLabel: "seconds",
		YLabel: m.axis,
	}.Render(series)
}

// Summary reports, per algorithm, the time to reach a common milestone —
// the "who wins in wall-clock time" headline of Figs. 3, 5 and 7. The
// milestone is the weakest algorithm's best value, relaxed by 2% so every
// curve crosses it and the comparison is well defined for all of them.
func (c *Comparison) Summary() string {
	m := metricOf(c.Task)
	weakest := m.ideal
	for _, r := range c.Results {
		if best := m.best(r.Trace); m.sign*best < m.sign*weakest {
			weakest = best
		}
	}
	target := weakest * m.margin

	var b strings.Builder
	fmt.Fprintf(&b, "time to reach %s %s%s:\n", m.goal, m.cell(target), m.legend)
	for _, r := range c.Results {
		cell, gap := " (not reached)", "  "
		if tt, ok := m.timeTo(r.Trace, target); ok {
			cell, gap = fmt.Sprintf("%8.2fs", tt), "   "
		}
		fmt.Fprintf(&b, "  %-14s %s", r.Algorithm, cell)
		if m.extra != nil {
			b.WriteString(gap + m.extra(r.Trace))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// traceSeries converts a trace into a plottable series of metric m.
func traceSeries(name string, tr metrics.Trace, m taskMetric) plot.Series {
	s := plot.Series{Name: name}
	for _, p := range tr {
		s.X = append(s.X, p.Time)
		s.Y = append(s.Y, m.scale*m.value(p))
	}
	return s
}

// thinTrace subsamples a trace to at most n evenly spaced points (always
// keeping the last).
func thinTrace(t metrics.Trace, n int) metrics.Trace {
	if len(t) <= n || n < 2 {
		return t
	}
	out := make(metrics.Trace, 0, n)
	step := float64(len(t)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, t[int(float64(i)*step)])
	}
	return out
}

// spykerAndFedAsync names the two asynchronous systems Figs. 9 and 10 and
// the churn extension pair up.
var spykerAndFedAsync = []string{"spyker", "fedasync"}

// heterogeneousSetup is the deployment of Figs. 9 and 10: 200 clients with
// strongly heterogeneous training delays (N(150ms, 60ms)). Evaluation is
// irrelevant there, so it is kept cheap.
func heterogeneousSetup(scale float64, seed int64, horizon float64) Setup {
	setup := baseSetup(population(200, scale, 8), seed)
	setup.TrainDelayStd = 0.060 // around the default 150 ms mean
	setup.Horizon = horizon
	setup.EvalEvery = 1000
	return setup
}

// QueueStudy is the data behind Fig. 9: queue-length traces of Spyker's
// four servers versus FedAsync's single server under 200 clients with
// strongly heterogeneous training delays (N(150ms, 60ms)).
type QueueStudy struct {
	Spyker   *Result
	FedAsync *Result
	Clients  int
}

// RunQueueStudy reproduces Fig. 9. scale shrinks the client count.
func RunQueueStudy(scale float64, seed int64) (*QueueStudy, error) {
	setup := heterogeneousSetup(scale, seed, 10)
	var w sweep
	res := w.each(spykerAndFedAsync, setup)
	return &QueueStudy{Spyker: res[0], FedAsync: res[1], Clients: setup.NumClients}, w.err
}

// Render prints max and time-averaged queue lengths plus a coarse
// timeline, mirroring what Fig. 9 shows: FedAsync's single queue grows
// far beyond any of Spyker's four.
func (q *QueueStudy) Render() string {
	t := titled(fmt.Sprintf("=== Fig. 9: update queueing, %d clients ===\n", q.Clients),
		col{"server", -22, ""}, col{"max", 8, ""}, col{"mean(t>1s)", 10, ""})
	row := func(name string, tr metrics.QueueTrace) {
		t.row(name, strconv.Itoa(tr.Max()), fixed(tr.MeanAbove(1), 2))
	}
	for s := 0; s < 4; s++ {
		row(fmt.Sprintf("Spyker server %d", s), q.Spyker.Queues[s])
	}
	row("FedAsync (single)", q.FedAsync.Queues[0])
	series := []plot.Series{
		queueSeries("FedAsync", q.FedAsync.Queues[0]),
		queueSeries("Spyker s0", q.Spyker.Queues[0]),
	}
	return t.b.String() + "\n" + plot.Chart{XLabel: "seconds", YLabel: "queued updates"}.Render(series)
}

// queueSeries converts a queue trace into a plottable series, thinned to
// keep the chart legible.
func queueSeries(name string, tr metrics.QueueTrace) plot.Series {
	s := plot.Series{Name: name}
	step := len(tr)/256 + 1
	for i := 0; i < len(tr); i += step {
		s.X = append(s.X, tr[i].Time)
		s.Y = append(s.Y, float64(tr[i].Length))
	}
	return s
}

// KDEStudy is the data behind Fig. 10: the distribution of per-client
// update counts for Spyker and FedAsync.
type KDEStudy struct {
	SpykerCounts   []float64
	FedAsyncCounts []float64
}

// RunKDEStudy reproduces Fig. 10 with the same deployment as Fig. 9.
func RunKDEStudy(scale float64, seed int64) (*KDEStudy, error) {
	var w sweep
	res := w.each(spykerAndFedAsync, heterogeneousSetup(scale, seed, 30))
	return &KDEStudy{
		SpykerCounts:   res[0].ClientUpdateCounts,
		FedAsyncCounts: res[1].ClientUpdateCounts,
	}, w.err
}

// Render prints summary statistics and KDE peaks of both distributions.
func (k *KDEStudy) Render() string {
	var b strings.Builder
	b.WriteString("=== Fig. 10: per-client update-count distribution ===\n")
	for _, row := range []struct {
		name    string
		samples []float64
	}{{"Spyker", k.SpykerCounts}, {"FedAsync", k.FedAsyncCounts}} {
		grid, density := metrics.KDE(row.samples, 128)
		peaks := metrics.Peaks(grid, density, 0.15)
		fmt.Fprintf(&b, "%-9s median=%.0f p10=%.0f p90=%.0f peaks at ~%s\n",
			row.name,
			metrics.Quantile(row.samples, 0.5),
			metrics.Quantile(row.samples, 0.1),
			metrics.Quantile(row.samples, 0.9),
			fmtPeaks(peaks))
	}
	return b.String()
}

func fmtPeaks(p []float64) string {
	if len(p) == 0 {
		return "(none)"
	}
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprintf("%.0f", v)
	}
	return strings.Join(parts, ", ")
}

// DecayStudy is the data behind Fig. 11: Spyker with and without the
// learning-rate decay on non-IID MNIST.
type DecayStudy struct {
	WithDecay    *Result
	WithoutDecay *Result
}

// RunDecayStudy reproduces Fig. 11 (4 servers, 100 clients, 25 per
// server, non-IID).
func RunDecayStudy(scale float64, seed int64) (*DecayStudy, error) {
	setup := baseSetup(population(100, scale, 8), seed)
	// The paper runs this ablation on MNIST; our synthetic MNIST stand-in
	// is easy enough that both variants converge before the fast-client
	// bias binds, so the ablation uses the harder CIFAR-like task where
	// the mechanism is visible (DESIGN.md deviation 7).
	setup.Task = TaskCIFAR
	setup.CorrelatedSpeed = true // fast clients hold a biased label subset
	setup.Horizon = 60
	setup.EvalEvery = 100
	var w sweep
	res := w.each([]string{"spyker", "spyker-nodecay"}, setup)
	return &DecayStudy{WithDecay: res[0], WithoutDecay: res[1]}, w.err
}

// Render prints both curves and the best accuracy of each.
func (d *DecayStudy) Render() string {
	t := titled("=== Fig. 11: learning-rate decay ablation (non-IID CIFAR-like) ===\n",
		col{"time(s)", 10, ""}, col{"with decay", 14, "%"}, col{"without decay", 14, "%"})
	wt := thinTrace(d.WithDecay.Trace, 10)
	wo := thinTrace(d.WithoutDecay.Trace, 10)
	for i := 0; i < len(wt) && i < len(wo); i++ {
		t.row(fixed(wt[i].Time, 2), fixed(100*wt[i].Acc, 1), fixed(100*wo[i].Acc, 1))
	}
	fmt.Fprintf(t.b, "best: with=%.1f%%  without=%.1f%%\n",
		100*d.WithDecay.Trace.BestAcc(), 100*d.WithoutDecay.Trace.BestAcc())
	series := []plot.Series{
		traceSeries("with decay", d.WithDecay.Trace, accuracyMetric),
		traceSeries("without decay", d.WithoutDecay.Trace, accuracyMetric),
	}
	return t.b.String() + "\n" + plot.Chart{XLabel: "seconds", YLabel: "accuracy %"}.Render(series)
}

// BandwidthStudy is the data behind Fig. 12: bytes transferred by every
// algorithm over a fixed virtual window.
type BandwidthStudy struct {
	WindowSeconds float64
	Rows          []BandwidthRow
}

// BandwidthRow is one algorithm's traffic split. Series holds cumulative
// total bytes sampled at ten evenly spaced times across the window — the
// over-time curve the paper's Fig. 12 plots.
type BandwidthRow struct {
	Algorithm         string
	ClientServerBytes int
	ServerServerBytes int
	Series            []int
}

// Total returns the row's combined byte count.
func (r BandwidthRow) Total() int { return r.ClientServerBytes + r.ServerServerBytes }

// RunBandwidthStudy reproduces Fig. 12: MNIST, 4 servers, 100 clients,
// traffic measured over a 110-virtual-second window.
func RunBandwidthStudy(scale float64, seed int64) (*BandwidthStudy, error) {
	setup := baseSetup(population(100, scale, 8), seed)
	setup.Horizon = 110 * unitScale(scale)
	setup.EvalEvery = 1000
	var w sweep
	study := &BandwidthStudy{WindowSeconds: setup.Horizon}
	for _, r := range w.each(ComparisonAlgorithms, setup) {
		study.Rows = append(study.Rows, BandwidthRow{
			Algorithm:         r.Algorithm,
			ClientServerBytes: r.BytesClientServer,
			ServerServerBytes: r.BytesServerServer,
			Series:            r.BandwidthSeries,
		})
	}
	return study, w.err
}

// Render prints the per-algorithm traffic table of Fig. 12.
func (s *BandwidthStudy) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Fig. 12: network consumption over %.0f virtual seconds ===\n", s.WindowSeconds)
	t := newTable(&b, col{"algorithm", -14, ""}, col{"client-server", 14, "MB"},
		col{"server-server", 14, "MB"}, col{"total", 14, "MB"})
	for _, r := range s.Rows {
		t.row(r.Algorithm, fixed(mb(r.ClientServerBytes), 1), fixed(mb(r.ServerServerBytes), 1), fixed(mb(r.Total()), 1))
	}
	b.WriteString("\ncumulative MB over time (10 samples across the window):\n")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-14s", r.Algorithm)
		for _, v := range r.Series {
			fmt.Fprintf(&b, " %7.0f", mb(v))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// UniformMeanLatency returns the "No lat." network of Tab. 6: the paper
// sets "all network latencies to the same value" to isolate resource
// heterogeneity, so every link gets the mean AWS intra-region latency
// (~2 ms).
func UniformMeanLatency() geo.LatencyFunc {
	return geo.ConstantLatency(0.002)
}
