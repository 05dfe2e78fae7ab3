package experiments

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"github.com/spyker-fl/spyker/internal/metrics"
)

// Tiny scales keep these runner tests fast; they verify structure and the
// qualitative invariants that hold at any scale, not the paper's numbers
// (those are checked at full scale via cmd/spyker-bench; see
// EXPERIMENTS.md).

func TestRunComparisonStructure(t *testing.T) {
	c, err := RunComparison(TaskMNIST, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Results) != len(ComparisonAlgorithms) {
		t.Fatalf("results = %d", len(c.Results))
	}
	for _, r := range c.Results {
		if len(r.Trace) == 0 {
			t.Errorf("%s produced no trace", r.Algorithm)
		}
		if r.BytesClientServer == 0 {
			t.Errorf("%s recorded no traffic", r.Algorithm)
		}
	}
	requireConvergenceOrdering(t, c)
	out := c.Render()
	golden(t, "comparison-mnist", out)
	for _, want := range []string{"FedAvg", "FedAsync", "HierFAVG", "Spyker", "Sync-Spyker", "time to reach"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestRunComparisonWikiUsesPerplexity(t *testing.T) {
	c, err := RunComparison(TaskWiki, 0.08, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireConvergenceOrdering(t, c)
	out := c.Render()
	golden(t, "comparison-wiki", out)
	if !strings.Contains(out, "ppl") || !strings.Contains(out, "perplexity") {
		t.Error("wikitext render does not report perplexity")
	}
	// Perplexity must end below the uniform baseline (vocab=32) for at
	// least the asynchronous algorithms.
	for _, r := range c.Results {
		if p := r.Trace.BestPerplexity(); p >= 32 {
			t.Errorf("%s best perplexity %.2f not below uniform", r.Algorithm, p)
		}
	}
}

// convergenceOrdering is the claim of Figs. 3–8 as a predicate over a
// Comparison: at the common target its Summary reports, Spyker gets there
// first in time and FedAvg last, while Spyker needs more updates than
// FedAvg to get there — it wins on time because its updates do not wait
// for rounds, not because it needs fewer. It returns nil when the claim
// holds, and otherwise an error naming the first ordering that failed.
func convergenceOrdering(c *Comparison) error {
	m, target := metricOf(c.Task), c.target()
	reached := make(map[string]metrics.Point, len(c.Results))
	for _, r := range c.Results {
		i := slices.IndexFunc(r.Trace, func(p metrics.Point) bool { return m.sign*m.value(p) >= m.sign*target })
		if i < 0 {
			return fmt.Errorf("%s reaches the common target %v", r.Algorithm, target)
		}
		reached[r.Algorithm] = r.Trace[i]
	}
	sp, fa := reached["Spyker"], reached["FedAvg"]
	for _, r := range c.Results {
		switch at := reached[r.Algorithm]; {
		case at.Time < sp.Time:
			return fmt.Errorf("Spyker reaches the common target first: %s at %.2fs < Spyker at %.2fs", r.Algorithm, at.Time, sp.Time)
		case at.Time > fa.Time:
			return fmt.Errorf("FedAvg reaches the common target last: %s at %.2fs > FedAvg at %.2fs", r.Algorithm, at.Time, fa.Time)
		}
	}
	if sp.Updates <= fa.Updates {
		return fmt.Errorf("Spyker needs more updates than FedAvg to reach the common target: %d <= %d", sp.Updates, fa.Updates)
	}
	return nil
}

// requireConvergenceOrdering checks convergenceOrdering on c, then on one
// doctored copy of c per claim, each of which it must refuse by name.
func requireConvergenceOrdering(t *testing.T, c *Comparison) {
	t.Helper()
	if err := convergenceOrdering(c); err != nil {
		t.Error(err)
	}
	// doctored is c with alg's trace rewritten by f.
	doctored := func(alg string, f func(*metrics.Point)) *Comparison {
		d := &Comparison{Task: c.Task}
		for _, r := range c.Results {
			if r.Algorithm == alg {
				cp := *r
				cp.Trace = slices.Clone(r.Trace)
				for i := range cp.Trace {
					f(&cp.Trace[i])
				}
				r = &cp
			}
			d.Results = append(d.Results, r)
		}
		return d
	}
	for _, w := range []struct {
		claim string
		c     *Comparison
	}{
		{"Spyker reaches the common target first", doctored("FedAsync", func(p *metrics.Point) { p.Time /= 10 })},
		{"FedAvg reaches the common target last", doctored("HierFAVG", func(p *metrics.Point) { p.Time *= 10 })},
		{"Spyker needs more updates than FedAvg", doctored("FedAvg", func(p *metrics.Point) { p.Updates *= 10 })},
	} {
		if err := convergenceOrdering(w.c); err == nil || !strings.Contains(err.Error(), w.claim) {
			t.Errorf("doctored against %q: verdict %v, want one naming it", w.claim, err)
		}
	}
}

func TestQueueStudyShape(t *testing.T) {
	// Queueing needs volume: at 100 clients the single FedAsync server
	// visibly out-queues each of Spyker's four (at smaller populations
	// both queues are a handful of jobs and the comparison is noise).
	q, err := RunQueueStudy(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := queueOrdering(q); err != nil {
		t.Error(err)
	}
	golden(t, "queue", q.Render())
	if !strings.Contains(q.Render(), "FedAsync") {
		t.Error("render incomplete")
	}

	// Doctored: Spyker's server 0 queues one update more than FedAsync's
	// peak.
	sp := *q.Spyker
	sp.Queues = maps.Clone(sp.Queues)
	peak := q.FedAsync.Queues[0].Max() + 1
	sp.Queues[0] = append(slices.Clone(sp.Queues[0]), metrics.QueuePoint{Length: peak})
	broken := &QueueStudy{Spyker: &sp, FedAsync: q.FedAsync, Clients: q.Clients}
	if err := queueOrdering(broken); err == nil || !strings.Contains(err.Error(), "FedAsync >= Spyker server 0") {
		t.Errorf("a Spyker queue made the highest: verdict %v, want one naming FedAsync >= Spyker server 0", err)
	}
}

// queueOrdering is Fig. 9's claim as a predicate over a QueueStudy:
// FedAsync's single queue forms, and it peaks at least as high as every
// Spyker server's. It returns nil when the claim holds, and otherwise an
// error naming the first ordering that failed.
func queueOrdering(q *QueueStudy) error {
	fa := q.FedAsync.Queues[0].Max()
	if fa == 0 {
		return fmt.Errorf("FedAsync's single queue forms: its peak is 0")
	}
	for _, s := range slices.Sorted(maps.Keys(q.Spyker.Queues)) {
		if sp := q.Spyker.Queues[s].Max(); fa < sp {
			return fmt.Errorf("FedAsync >= Spyker server %d in peak queue length: %d < %d", s, fa, sp)
		}
	}
	return nil
}

func TestKDEStudyShape(t *testing.T) {
	k, err := RunKDEStudy(0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.SpykerCounts) != len(k.FedAsyncCounts) || len(k.SpykerCounts) == 0 {
		t.Fatal("count vectors wrong")
	}
	if err := updateCountOrdering(k); err != nil {
		t.Error(err)
	}
	golden(t, "kde", k.Render())
	if !strings.Contains(k.Render(), "median") {
		t.Error("render incomplete")
	}

	// Doctored: the two algorithms' counts swapped.
	broken := &KDEStudy{SpykerCounts: k.FedAsyncCounts, FedAsyncCounts: k.SpykerCounts}
	if err := updateCountOrdering(broken); err == nil || !strings.Contains(err.Error(), "Spyker > FedAsync") {
		t.Errorf("counts swapped: verdict %v, want one naming Spyker > FedAsync", err)
	}
}

// updateCountOrdering is Fig. 10's claim as a predicate over a KDEStudy:
// Spyker's multi-server deployment merges more updates than FedAsync in
// the same virtual window (its clients are nearer their server). It
// returns nil when the claim holds, and otherwise an error naming the
// ordering.
func updateCountOrdering(k *KDEStudy) error {
	var sp, fa float64
	for _, c := range k.SpykerCounts {
		sp += c
	}
	for _, c := range k.FedAsyncCounts {
		fa += c
	}
	if sp <= fa {
		return fmt.Errorf("Spyker > FedAsync in merged updates: %v <= %v", sp, fa)
	}
	return nil
}

func TestDecayStudyStructure(t *testing.T) {
	d, err := RunDecayStudy(0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.WithDecay.Trace) == 0 || len(d.WithoutDecay.Trace) == 0 {
		t.Fatal("missing traces")
	}
	if d.WithDecay.Algorithm == d.WithoutDecay.Algorithm {
		t.Error("both runs used the same variant")
	}
	if err := decayOrdering(d); err != nil {
		t.Error(err)
	}
	golden(t, "decay", d.Render())
	if !strings.Contains(d.Render(), "decay") {
		t.Error("render incomplete")
	}

	// Doctored: the run without decay reaches 95% at its first point.
	wo := *d.WithoutDecay
	wo.Trace = slices.Clone(wo.Trace)
	wo.Trace[0].Acc = 1
	broken := &DecayStudy{WithDecay: d.WithDecay, WithoutDecay: &wo}
	if err := decayOrdering(broken); err == nil || !strings.Contains(err.Error(), "with decay <= without") {
		t.Errorf("the run without decay made the first to 95%%: verdict %v, want one naming with decay <= without", err)
	}
}

// decayTarget is the accuracy Fig. 11's claim times.
const decayTarget = 0.95

// decayOrdering is Fig. 11's claim as a predicate over a DecayStudy: with
// the learning-rate decay, Spyker first reaches 95% accuracy, and no later
// than without it. It returns nil when the claim holds, and otherwise an
// error naming the ordering that failed.
func decayOrdering(d *DecayStudy) error {
	with, ok := d.WithDecay.Trace.TimeToAcc(decayTarget)
	if !ok {
		return fmt.Errorf("with decay the run reaches %.0f%%: best %.1f%%", 100*decayTarget, 100*d.WithDecay.Trace.BestAcc())
	}
	if without, ok := d.WithoutDecay.Trace.TimeToAcc(decayTarget); ok && with > without {
		return fmt.Errorf("with decay <= without in time to %.0f%%: %.2fs > %.2fs", 100*decayTarget, with, without)
	}
	return nil
}

// bandwidthOrdering is Fig. 12's claim as a predicate over a
// BandwidthStudy: one row per comparison algorithm, each of which consumed
// bandwidth; synchronous single-server FedAvg consumes less than
// asynchronous FedAsync and multi-server Spyker; and only the multi-server
// systems produce server-server traffic. It returns nil when the claim
// holds, and otherwise an error naming the first ordering that failed.
func bandwidthOrdering(s *BandwidthStudy) error {
	if len(s.Rows) != len(ComparisonAlgorithms) {
		return fmt.Errorf("one row per algorithm: %d rows for %d algorithms", len(s.Rows), len(ComparisonAlgorithms))
	}
	byName := map[string]BandwidthRow{}
	for _, r := range s.Rows {
		if r.Total() <= 0 {
			return fmt.Errorf("every algorithm consumes bandwidth: %s consumed %d bytes", r.Algorithm, r.Total())
		}
		byName[r.Algorithm] = r
	}
	total := func(alg string) int { return byName[alg].Total() }
	for _, more := range []string{"Spyker", "FedAsync"} {
		if total("FedAvg") >= total(more) {
			return fmt.Errorf("FedAvg < %s in total bytes: %d >= %d", more, total("FedAvg"), total(more))
		}
	}
	for _, alg := range []string{"FedAvg", "FedAsync"} {
		if n := byName[alg].ServerServerBytes; n != 0 {
			return fmt.Errorf("single-server %s sends no server-server bytes: it sent %d", alg, n)
		}
	}
	for _, alg := range []string{"Spyker", "HierFAVG"} {
		if byName[alg].ServerServerBytes == 0 {
			return fmt.Errorf("multi-server %s sends server-server bytes: it sent none", alg)
		}
	}
	return nil
}

// TestBandwidthStudyOrdering checks bandwidthOrdering on the study its
// golden records, and that the predicate names an ordering it is shown
// broken.
func TestBandwidthStudyOrdering(t *testing.T) {
	s, err := RunBandwidthStudy(0.12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bandwidthOrdering(s); err != nil {
		t.Error(err)
	}
	golden(t, "bandwidth", s.Render())

	sum := 0
	for _, r := range s.Rows {
		sum += r.Total()
	}
	broken := &BandwidthStudy{Rows: slices.Clone(s.Rows)}
	for i, r := range broken.Rows {
		if r.Algorithm == "FedAvg" {
			broken.Rows[i].ClientServerBytes += sum
		}
	}
	if err := bandwidthOrdering(broken); err == nil || !strings.Contains(err.Error(), "FedAvg < Spyker") {
		t.Errorf("FedAvg made the largest consumer: verdict %v, want one naming FedAvg < Spyker", err)
	}
}

func TestScalabilityStudyStructure(t *testing.T) {
	s, err := RunScalabilityStudy(0.12, 0.70, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != len(ComparisonAlgorithms) {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	for _, r := range s.Rows {
		if len(r.TimeFactors) != 2 || len(r.UpdateFactors) != 2 {
			t.Errorf("%s factors incomplete: %+v", r.Algorithm, r)
		}
	}
	golden(t, "scalability", s.Render())
	if !strings.Contains(s.Render(), "Tab. 5") {
		t.Error("render incomplete")
	}
}

func TestLatencyStudyStructure(t *testing.T) {
	s, err := RunLatencyStudy(0.12, 0.6, 0.7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 4 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	if err := latencyOrdering(s); err != nil {
		t.Error(err)
	}
	out := s.Render()
	golden(t, "latency", out)
	if !strings.Contains(out, "Lat.") || !strings.Contains(out, "No lat.") {
		t.Error("render incomplete")
	}

	// Doctored: the two networks' labels swapped.
	broken := &LatencyStudy{Rows: slices.Clone(s.Rows)}
	for i, r := range broken.Rows {
		broken.Rows[i].Network = map[string]string{"Lat.": "No lat.", "No lat.": "Lat."}[r.Network]
	}
	if err := latencyOrdering(broken); err == nil || !strings.Contains(err.Error(), "Lat. > No lat.") {
		t.Errorf("networks swapped: verdict %v, want one naming Lat. > No lat.", err)
	}
}

// latencyOrdering is Tab. 6's claim as a predicate over a LatencyStudy:
// every run reaches the 90% target, and Spyker's improvement over FedAsync
// (LatencyStudy.Improvement) is larger with AWS latency than with a
// uniform latency of the same mean. It returns nil when the claim holds,
// and otherwise an error naming the ordering that failed.
func latencyOrdering(s *LatencyStudy) error {
	for _, r := range s.Rows {
		if r.Time90 == 0 {
			return fmt.Errorf("every run reaches the 90%% target: %s on %s did not", r.Algorithm, r.Network)
		}
	}
	if lat, flat := s.Improvement("Lat."), s.Improvement("No lat."); lat <= flat {
		return fmt.Errorf("Lat. > No lat. in Spyker's improvement over FedAsync: %.1f%% <= %.1f%%", 100*lat, 100*flat)
	}
	return nil
}

func TestImbalanceStudyStructure(t *testing.T) {
	s, err := RunImbalanceStudy(0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Scenarios) != 4 {
		t.Fatalf("scenarios = %d", len(s.Scenarios))
	}
	if s.Scenarios[0].HotClients >= s.Scenarios[3].HotClients {
		t.Error("hotspot sizes not increasing")
	}
	golden(t, "imbalance", s.Render())
	if !strings.Contains(s.Render(), "hot-server size") {
		t.Error("render incomplete")
	}
}

func TestBuildEnvValidation(t *testing.T) {
	if _, _, err := BuildEnv(Setup{Task: TaskMNIST, NumServers: 4, NumClients: 2}); err == nil {
		t.Error("fewer clients than servers accepted")
	}
	if _, _, err := BuildEnv(Setup{Task: TaskMNIST, NumServers: 2, NumClients: 8,
		ClientsPerServer: []int{4, 4, 4}}); err == nil {
		t.Error("wrong ClientsPerServer length accepted")
	}
	if _, _, err := BuildEnv(Setup{Task: TaskMNIST, NumServers: 2, NumClients: 8,
		ClientsPerServer: []int{4, 5}}); err == nil {
		t.Error("ClientsPerServer sum mismatch accepted")
	}
}

func TestNewAlgorithmUnknown(t *testing.T) {
	if _, err := NewAlgorithm("nope"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	for _, name := range append([]string{"spyker-nodecay"}, ComparisonAlgorithms...) {
		if _, err := NewAlgorithm(name); err != nil {
			t.Errorf("NewAlgorithm(%q): %v", name, err)
		}
	}
}

func TestTaskString(t *testing.T) {
	if TaskMNIST.String() != "mnist" || TaskCIFAR.String() != "cifar" || TaskWiki.String() != "wikitext" {
		t.Error("task names wrong")
	}
}
