package experiments

import (
	"fmt"
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
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	clients := int(100 * scale)
	if clients < 8 {
		clients = 8
	}
	setup := Setup{
		Task:         task,
		NumServers:   4,
		NumClients:   clients,
		NonIIDLabels: 2,
		Seed:         seed,
		Horizon:      60,
		MaxUpdates:   int(12000 * scale),
		EvalEvery:    25,
	}
	results, err := RunAll(ComparisonAlgorithms, setup)
	if err != nil {
		return nil, err
	}
	return &Comparison{Task: task, Results: results}, nil
}

// Render prints the traces as aligned series, one block per algorithm:
// the same data the paper plots.
func (c *Comparison) Render() string {
	var b strings.Builder
	perplexity := c.Task == TaskWiki
	metricName := "acc%"
	if perplexity {
		metricName = "ppl"
	}
	fmt.Fprintf(&b, "=== %s: convergence vs time and vs #updates (%s) ===\n",
		c.Task, metricName)
	for _, r := range c.Results {
		fmt.Fprintf(&b, "\n-- %s --\n%10s %9s %9s\n", r.Algorithm, "time(s)", "updates", metricName)
		for _, p := range thinTrace(r.Trace, 12) {
			if perplexity {
				fmt.Fprintf(&b, "%10.2f %9d %9.2f\n", p.Time, p.Updates, p.Perplexity())
			} else {
				fmt.Fprintf(&b, "%10.2f %9d %8.1f%%\n", p.Time, p.Updates, 100*p.Acc)
			}
		}
		final := r.Trace.Final()
		if perplexity {
			fmt.Fprintf(&b, "best ppl %.2f after %.1fs / %d updates\n",
				r.Trace.BestPerplexity(), final.Time, final.Updates)
		} else {
			fmt.Fprintf(&b, "best acc %.1f%% after %.1fs / %d updates\n",
				100*r.Trace.BestAcc(), final.Time, final.Updates)
		}
	}
	b.WriteString("\n" + c.Summary())
	b.WriteString("\n" + c.Plot())
	return b.String()
}

// Plot draws the convergence-vs-time curves as an ASCII chart — the
// terminal rendition of Figs. 3, 5 and 7.
func (c *Comparison) Plot() string {
	perplexity := c.Task == TaskWiki
	series := make([]plot.Series, 0, len(c.Results))
	for _, r := range c.Results {
		s := plot.Series{Name: r.Algorithm}
		for _, p := range r.Trace {
			s.X = append(s.X, p.Time)
			if perplexity {
				s.Y = append(s.Y, p.Perplexity())
			} else {
				s.Y = append(s.Y, 100*p.Acc)
			}
		}
		series = append(series, s)
	}
	yLabel := "accuracy %"
	if perplexity {
		yLabel = "perplexity"
	}
	return plot.Chart{
		Title:  fmt.Sprintf("%s: convergence vs virtual time", c.Task),
		XLabel: "seconds",
		YLabel: yLabel,
	}.Render(series)
}

// Summary reports, per algorithm, the time to reach a common milestone —
// the "who wins in wall-clock time" headline of Figs. 3, 5 and 7.
func (c *Comparison) Summary() string {
	var b strings.Builder
	if c.Task == TaskWiki {
		target := c.commonPerplexity()
		fmt.Fprintf(&b, "time to reach perplexity <= %.2f:\n", target)
		for _, r := range c.Results {
			if tt, ok := r.Trace.TimeToPerplexity(target); ok {
				fmt.Fprintf(&b, "  %-14s %8.2fs\n", r.Algorithm, tt)
			} else {
				fmt.Fprintf(&b, "  %-14s  (not reached)\n", r.Algorithm)
			}
		}
		return b.String()
	}
	target := c.commonAccuracy()
	fmt.Fprintf(&b, "time to reach accuracy >= %.1f%% (auc = time-normalized area under the curve,\ntau = time to 63%% of final accuracy):\n", 100*target)
	for _, r := range c.Results {
		auc := metrics.AUC(r.Trace)
		tau := metrics.ConvergenceRate(r.Trace)
		if tt, ok := r.Trace.TimeToAcc(target); ok {
			fmt.Fprintf(&b, "  %-14s %8.2fs   auc=%.3f tau=%.1fs\n", r.Algorithm, tt, auc, tau)
		} else {
			fmt.Fprintf(&b, "  %-14s  (not reached)  auc=%.3f tau=%.1fs\n", r.Algorithm, auc, tau)
		}
	}
	return b.String()
}

// commonAccuracy picks the highest accuracy every algorithm reached, so
// the time-to-target comparison is well defined for all of them.
func (c *Comparison) commonAccuracy() float64 {
	best := 1.0
	for _, r := range c.Results {
		if a := r.Trace.BestAcc(); a < best {
			best = a
		}
	}
	// Compare slightly below the weakest best so every curve crosses it.
	return best * 0.98
}

func (c *Comparison) commonPerplexity() float64 {
	worst := 0.0
	for _, r := range c.Results {
		if p := r.Trace.BestPerplexity(); p > worst {
			worst = p
		}
	}
	return worst * 1.02
}

// traceSeries converts an accuracy trace into a plottable series.
func traceSeries(name string, tr metrics.Trace) plot.Series {
	s := plot.Series{Name: name}
	for _, p := range tr {
		s.X = append(s.X, p.Time)
		s.Y = append(s.Y, 100*p.Acc)
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
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	clients := int(200 * scale)
	if clients < 8 {
		clients = 8
	}
	setup := Setup{
		Task:           TaskMNIST,
		NumServers:     4,
		NumClients:     clients,
		NonIIDLabels:   2,
		TrainDelayMean: 0.150,
		TrainDelayStd:  0.060,
		Seed:           seed,
		Horizon:        10,
		EvalEvery:      1000, // evaluation is irrelevant here; keep it cheap
	}
	sp, err := Run("spyker", setup)
	if err != nil {
		return nil, err
	}
	fa, err := Run("fedasync", setup)
	if err != nil {
		return nil, err
	}
	return &QueueStudy{Spyker: sp, FedAsync: fa, Clients: clients}, nil
}

// Render prints max and time-averaged queue lengths plus a coarse
// timeline, mirroring what Fig. 9 shows: FedAsync's single queue grows
// far beyond any of Spyker's four.
func (q *QueueStudy) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Fig. 9: update queueing, %d clients ===\n", q.Clients)
	fmt.Fprintf(&b, "%-22s %8s %10s\n", "server", "max", "mean(t>1s)")
	for s := 0; s < 4; s++ {
		tr := q.Spyker.Queues[s]
		fmt.Fprintf(&b, "Spyker server %-8d %8d %10.2f\n", s, tr.Max(), tr.MeanAbove(1))
	}
	fa := q.FedAsync.Queues[0]
	fmt.Fprintf(&b, "FedAsync (single)      %8d %10.2f\n", fa.Max(), fa.MeanAbove(1))
	series := []plot.Series{
		queueSeries("FedAsync", q.FedAsync.Queues[0]),
		queueSeries("Spyker s0", q.Spyker.Queues[0]),
	}
	b.WriteString("\n" + plot.Chart{XLabel: "seconds", YLabel: "queued updates"}.Render(series))
	return b.String()
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
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	clients := int(200 * scale)
	if clients < 8 {
		clients = 8
	}
	setup := Setup{
		Task:           TaskMNIST,
		NumServers:     4,
		NumClients:     clients,
		NonIIDLabels:   2,
		TrainDelayMean: 0.150,
		TrainDelayStd:  0.060,
		Seed:           seed,
		Horizon:        30,
		EvalEvery:      1000,
	}
	sp, err := Run("spyker", setup)
	if err != nil {
		return nil, err
	}
	fa, err := Run("fedasync", setup)
	if err != nil {
		return nil, err
	}
	return &KDEStudy{
		SpykerCounts:   sp.ClientUpdateCounts,
		FedAsyncCounts: fa.ClientUpdateCounts,
	}, nil
}

// Render prints summary statistics and KDE peaks of both distributions.
func (k *KDEStudy) Render() string {
	var b strings.Builder
	b.WriteString("=== Fig. 10: per-client update-count distribution ===\n")
	for _, row := range []struct {
		name    string
		samples []float64
	}{{"Spyker", k.SpykerCounts}, {"FedAsync", k.FedAsyncCounts}} {
		grid, density := metrics.KDE(row.samples, 0, 128)
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
	Target       float64
}

// RunDecayStudy reproduces Fig. 11 (4 servers, 100 clients, 25 per
// server, non-IID).
func RunDecayStudy(scale float64, seed int64) (*DecayStudy, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	clients := int(100 * scale)
	if clients < 8 {
		clients = 8
	}
	setup := Setup{
		// The paper runs this ablation on MNIST; our synthetic MNIST
		// stand-in is easy enough that both variants converge before the
		// fast-client bias binds, so the ablation uses the harder
		// CIFAR-like task where the mechanism is visible (DESIGN.md
		// deviation 7).
		Task:            TaskCIFAR,
		NumServers:      4,
		NumClients:      clients,
		NonIIDLabels:    2,
		TrainDelayMean:  0.150,
		TrainDelayStd:   0.0075,
		CorrelatedSpeed: true, // fast clients hold a biased label subset
		Seed:            seed,
		Horizon:         60,
		EvalEvery:       100,
	}
	with, err := Run("spyker", setup)
	if err != nil {
		return nil, err
	}
	without, err := Run("spyker-nodecay", setup)
	if err != nil {
		return nil, err
	}
	return &DecayStudy{WithDecay: with, WithoutDecay: without, Target: 0.85}, nil
}

// Render prints both curves and the time each takes to the common target.
func (d *DecayStudy) Render() string {
	var b strings.Builder
	b.WriteString("=== Fig. 11: learning-rate decay ablation (non-IID CIFAR-like) ===\n")
	fmt.Fprintf(&b, "%10s %14s %14s\n", "time(s)", "with decay", "without decay")
	wt := thinTrace(d.WithDecay.Trace, 10)
	wo := thinTrace(d.WithoutDecay.Trace, 10)
	for i := 0; i < len(wt) && i < len(wo); i++ {
		fmt.Fprintf(&b, "%10.2f %13.1f%% %13.1f%%\n", wt[i].Time, 100*wt[i].Acc, 100*wo[i].Acc)
	}
	fmt.Fprintf(&b, "best: with=%.1f%%  without=%.1f%%\n",
		100*d.WithDecay.Trace.BestAcc(), 100*d.WithoutDecay.Trace.BestAcc())
	series := []plot.Series{traceSeries("with decay", d.WithDecay.Trace), traceSeries("without decay", d.WithoutDecay.Trace)}
	b.WriteString("\n" + plot.Chart{XLabel: "seconds", YLabel: "accuracy %"}.Render(series))
	return b.String()
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
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	clients := int(100 * scale)
	if clients < 8 {
		clients = 8
	}
	window := 110 * scale
	setup := Setup{
		Task:         TaskMNIST,
		NumServers:   4,
		NumClients:   clients,
		NonIIDLabels: 2,
		Seed:         seed,
		Horizon:      window,
		EvalEvery:    1000,
	}
	study := &BandwidthStudy{WindowSeconds: window}
	for _, name := range ComparisonAlgorithms {
		r, err := Run(name, setup)
		if err != nil {
			return nil, err
		}
		study.Rows = append(study.Rows, BandwidthRow{
			Algorithm:         r.Algorithm,
			ClientServerBytes: r.BytesClientServer,
			ServerServerBytes: r.BytesServerServer,
			Series:            r.BandwidthSeries,
		})
	}
	return study, nil
}

// Render prints the per-algorithm traffic table of Fig. 12.
func (s *BandwidthStudy) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Fig. 12: network consumption over %.0f virtual seconds ===\n", s.WindowSeconds)
	fmt.Fprintf(&b, "%-14s %14s %14s %14s\n", "algorithm", "client-server", "server-server", "total")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%-14s %13.1fMB %13.1fMB %13.1fMB\n",
			r.Algorithm, mb(r.ClientServerBytes), mb(r.ServerServerBytes), mb(r.Total()))
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

func mb(bytes int) float64 { return float64(bytes) / 1e6 }

// latencyForStudy returns nil (the AWS matrix) or the "No lat." network.
func latencyForStudy(uniform bool) geo.LatencyFunc {
	if uniform {
		return UniformMeanLatency()
	}
	return nil
}

// UniformMeanLatency returns the "No lat." network of Tab. 6: the paper
// sets "all network latencies to the same value" to isolate resource
// heterogeneity, so every link gets the mean AWS intra-region latency
// (~2 ms).
func UniformMeanLatency() geo.LatencyFunc {
	return geo.ConstantLatency(0.002)
}
