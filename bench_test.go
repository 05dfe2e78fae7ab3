// Package spyker_bench contains one testing.B benchmark per table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment
// index). Each benchmark runs the corresponding experiment at a reduced
// but shape-preserving scale (the full-scale runs are driven by
// cmd/spyker-bench) and reports the headline quantity of that table or
// figure as a custom metric, so `go test -bench=. -benchmem` regenerates
// the whole evaluation in miniature.
package spyker_bench

import (
	"fmt"
	"testing"

	"github.com/spyker-fl/spyker/internal/experiments"
)

// benchScale shrinks client populations and horizons so the whole suite
// runs in a few minutes while preserving every reported shape. A few
// experiments need more volume for their mechanism to appear and override
// it: queueing (Fig. 9/10) needs enough clients to load a server, and the
// imbalance study (Tab. 7) needs the hotspot to approach the 2 ms
// aggregation service rate.
const (
	benchScale          = 0.3
	benchScaleQueue     = 0.5
	benchScaleImbalance = 0.7
	// Tab. 5's headline (FedAsync degrading fastest) appears only once
	// the 200- and 300-client populations saturate the single FedAsync
	// server, so this benchmark runs at the paper's full populations.
	benchScaleTable5 = 1.0
)

const benchSeed = 1

// BenchmarkFig3Fig4WikiText regenerates the WikiText-2 perplexity curves
// (paper Figs. 3 and 4): five algorithms on the char-LSTM task.
func BenchmarkFig3Fig4WikiText(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunComparison(experiments.TaskWiki, benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c, true)
	}
}

// BenchmarkFig5Fig6MNIST regenerates the MNIST accuracy curves (paper
// Figs. 5 and 6).
func BenchmarkFig5Fig6MNIST(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunComparison(experiments.TaskMNIST, benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c, false)
	}
}

// BenchmarkFig7Fig8CIFAR regenerates the CIFAR-10 accuracy curves (paper
// Figs. 7 and 8).
func BenchmarkFig7Fig8CIFAR(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunComparison(experiments.TaskCIFAR, benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		reportComparison(b, c, false)
	}
}

func reportComparison(b *testing.B, c *experiments.Comparison, perplexity bool) {
	b.Helper()
	for _, r := range c.Results {
		final := r.Trace.Final()
		if perplexity {
			b.ReportMetric(r.Trace.BestPerplexity(), "ppl_"+metricName(r.Algorithm))
		} else {
			b.ReportMetric(100*r.Trace.BestAcc(), "acc%_"+metricName(r.Algorithm))
		}
		_ = final
	}
	if b.N == 1 {
		b.Logf("\n%s", c.Summary())
	}
}

func metricName(alg string) string {
	switch alg {
	case "Spyker(no-decay)":
		return "spyker_nodecay"
	case "Sync-Spyker":
		return "syncspyker"
	default:
		out := make([]rune, 0, len(alg))
		for _, r := range alg {
			if r != '-' && r != ' ' {
				out = append(out, r)
			}
		}
		return string(out)
	}
}

// BenchmarkTable5Scalability regenerates the client-scalability factors
// (paper Tab. 5): how time-to-accuracy grows from 1x to 2x to 3x clients.
func BenchmarkTable5Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunScalabilityStudy(benchScaleTable5, 0.88, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range s.Rows {
			if len(row.TimeFactors) > 0 && row.TimeFactors[0] > 0 {
				b.ReportMetric(row.TimeFactors[0], "x2time_"+metricName(row.Algorithm))
			}
		}
		if b.N == 1 {
			b.Logf("\n%s", s.Render())
		}
	}
}

// BenchmarkTable6Latency regenerates the AWS-vs-uniform-latency
// comparison (paper Tab. 6).
func BenchmarkTable6Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunLatencyStudy(benchScale, 0.85, 0.90, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*s.Improvement("Lat."), "impr%_lat")
		b.ReportMetric(100*s.Improvement("No lat."), "impr%_nolat")
		if b.N == 1 {
			b.Logf("\n%s", s.Render())
		}
	}
}

// BenchmarkFig9Queueing regenerates the queue-length study (paper
// Fig. 9): FedAsync's single queue versus Spyker's four.
func BenchmarkFig9Queueing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		q, err := experiments.RunQueueStudy(benchScaleQueue, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(q.FedAsync.Queues[0].Max()), "maxq_fedasync")
		maxSpyker := 0
		for _, tr := range q.Spyker.Queues {
			maxSpyker = max(maxSpyker, tr.Max())
		}
		b.ReportMetric(float64(maxSpyker), "maxq_spyker")
		if b.N == 1 {
			b.Logf("\n%s", q.Render())
		}
	}
}

// BenchmarkFig10KDE regenerates the per-client update-count distribution
// (paper Fig. 10).
func BenchmarkFig10KDE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k, err := experiments.RunKDEStudy(benchScaleQueue, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if b.N == 1 {
			b.Logf("\n%s", k.Render())
		}
	}
}

// BenchmarkTable7Imbalance regenerates the client-imbalance study (paper
// Tab. 7).
func BenchmarkTable7Imbalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunImbalanceStudy(benchScaleImbalance, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		last := s.Scenarios[len(s.Scenarios)-1]
		b.ReportMetric(last.Duration-s.Scenarios[0].Duration, "hotspot_dur_delta_s")
		if b.N == 1 {
			b.Logf("\n%s", s.Render())
		}
	}
}

// BenchmarkFig11Decay regenerates the learning-rate-decay ablation
// (paper Fig. 11).
func BenchmarkFig11Decay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := experiments.RunDecayStudy(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*d.WithDecay.Trace.BestAcc(), "acc%_decay")
		b.ReportMetric(100*d.WithoutDecay.Trace.BestAcc(), "acc%_nodecay")
		if b.N == 1 {
			b.Logf("\n%s", d.Render())
		}
	}
}

// BenchmarkFig12Bandwidth regenerates the network-consumption comparison
// (paper Fig. 12).
func BenchmarkFig12Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunBandwidthStudy(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range s.Rows {
			b.ReportMetric(float64(row.Total())/1e6, "MB_"+metricName(row.Algorithm))
		}
		if b.N == 1 {
			b.Logf("\n%s", s.Render())
		}
	}
}

// BenchmarkExtChurn runs the churn extension (beyond the paper): a third
// of the clients go offline mid-run and rejoin with stale updates.
func BenchmarkExtChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c, err := experiments.RunChurnStudy(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*c.AccuracyDip(c.Spyker), "dip%_spyker")
		b.ReportMetric(100*c.AccuracyDip(c.FedAsync), "dip%_fedasync")
		if b.N == 1 {
			b.Logf("\n%s", c.Render())
		}
	}
}

// BenchmarkExtAblations sweeps the Spyker design knobs (h_inter, eta_a,
// phi) and reports the convergence/bandwidth trade-off.
func BenchmarkExtAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		a, err := experiments.RunAblations(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(a.HInter[0].ServerBytes)/1e6, "MB_hinter_min")
		b.ReportMetric(float64(a.HInter[len(a.HInter)-1].ServerBytes)/1e6, "MB_hinter_max")
		if b.N == 1 {
			b.Logf("\n%s", a.Render())
		}
	}
}

// BenchmarkExtClustering compares the geo, similar and stratified client
// placements (the paper's Sec. 7 future work).
func BenchmarkExtClustering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunClusteringStudy(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range s.Results {
			if r.TimeToTarget > 0 {
				b.ReportMetric(r.TimeToTarget, "t_"+r.Assignment.String())
			}
		}
		if b.N == 1 {
			b.Logf("\n%s", s.Render())
		}
	}
}

// BenchmarkExtCompression compares raw, 8-bit-quantized and top-10%
// sparsified client updates on Spyker (bandwidth extension).
func BenchmarkExtCompression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunCompressionStudy(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range s.Rows {
			b.ReportMetric(float64(r.ClientServerBytes)/1e6, "MB_"+r.Codec)
		}
		if b.N == 1 {
			b.Logf("\n%s", s.Render())
		}
	}
}

// BenchmarkExtServerScaling varies the server count over a fixed
// geo-distributed client population (completing the paper's scalability
// story for the server dimension).
func BenchmarkExtServerScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunServerScalingStudy(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range s.Rows {
			if r.TimeToTarget > 0 {
				b.ReportMetric(r.TimeToTarget, fmt.Sprintf("t_%dsrv", r.Servers))
			}
		}
		if b.N == 1 {
			b.Logf("\n%s", s.Render())
		}
	}
}

// BenchmarkExtByzantine measures the poisoning attacks and the norm-clip
// defense (the "Byzantine Learning" keyword the paper never evaluates).
func BenchmarkExtByzantine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunByzantineStudy(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range s.Rows {
			_ = r
		}
		if b.N == 1 {
			b.Logf("\n%s", s.Render())
		}
	}
}

// BenchmarkExtStraggler puts a 20x-slow machine under one server and
// compares how Spyker, Sync-Spyker and HierFAVG degrade.
func BenchmarkExtStraggler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, err := experiments.RunStragglerStudy(benchScale, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range s.Rows {
			if v := r.Slowdown(); v > 0 {
				b.ReportMetric(v, "slowdown_"+metricName(r.Algorithm))
			}
		}
		if b.N == 1 {
			b.Logf("\n%s", s.Render())
		}
	}
}
