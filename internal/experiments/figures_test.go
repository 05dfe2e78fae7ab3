package experiments

import (
	"strings"
	"testing"
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

func TestQueueStudyShape(t *testing.T) {
	// Queueing needs volume: at 100 clients the single FedAsync server
	// visibly out-queues each of Spyker's four (at smaller populations
	// both queues are a handful of jobs and the comparison is noise).
	q, err := RunQueueStudy(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.FedAsync.Queues[0].Max() == 0 {
		t.Error("FedAsync queue never formed")
	}
	// The headline of Fig. 9: the single FedAsync server queues at least
	// as much as any single Spyker server.
	for s, tr := range q.Spyker.Queues {
		if q.FedAsync.Queues[0].Max() < tr.Max() {
			t.Errorf("FedAsync max queue %d < Spyker server %d's %d",
				q.FedAsync.Queues[0].Max(), s, tr.Max())
		}
	}
	golden(t, "queue", q.Render())
	if !strings.Contains(q.Render(), "FedAsync") {
		t.Error("render incomplete")
	}
}

func TestKDEStudyShape(t *testing.T) {
	k, err := RunKDEStudy(0.15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(k.SpykerCounts) != len(k.FedAsyncCounts) || len(k.SpykerCounts) == 0 {
		t.Fatal("count vectors wrong")
	}
	// Spyker's multi-server deployment processes more updates in the same
	// virtual window (shorter client-server distance), Fig. 10's setup.
	var sp, fa float64
	for i := range k.SpykerCounts {
		sp += k.SpykerCounts[i]
		fa += k.FedAsyncCounts[i]
	}
	if sp <= fa {
		t.Errorf("Spyker total updates %v <= FedAsync %v", sp, fa)
	}
	golden(t, "kde", k.Render())
	if !strings.Contains(k.Render(), "median") {
		t.Error("render incomplete")
	}
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
	golden(t, "decay", d.Render())
	if !strings.Contains(d.Render(), "decay") {
		t.Error("render incomplete")
	}
}

func TestBandwidthStudyOrdering(t *testing.T) {
	s, err := RunBandwidthStudy(0.12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != len(ComparisonAlgorithms) {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	byName := map[string]BandwidthRow{}
	for _, r := range s.Rows {
		if r.Total() <= 0 {
			t.Errorf("%s consumed no bandwidth", r.Algorithm)
		}
		byName[r.Algorithm] = r
	}
	// Fig. 12's ordering: synchronous single-server FedAvg consumes the
	// least; fully asynchronous multi-server Spyker the most.
	if byName["FedAvg"].Total() >= byName["Spyker"].Total() {
		t.Errorf("FedAvg %d >= Spyker %d", byName["FedAvg"].Total(), byName["Spyker"].Total())
	}
	if byName["FedAvg"].Total() >= byName["FedAsync"].Total() {
		t.Errorf("FedAvg %d >= FedAsync %d", byName["FedAvg"].Total(), byName["FedAsync"].Total())
	}
	// Only the multi-server systems produce server-server traffic.
	if byName["FedAvg"].ServerServerBytes != 0 || byName["FedAsync"].ServerServerBytes != 0 {
		t.Error("single-server systems recorded server-server traffic")
	}
	if byName["Spyker"].ServerServerBytes == 0 || byName["HierFAVG"].ServerServerBytes == 0 {
		t.Error("multi-server systems recorded no server-server traffic")
	}
	golden(t, "bandwidth", s.Render())
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
	out := s.Render()
	golden(t, "latency", out)
	if !strings.Contains(out, "Lat.") || !strings.Contains(out, "No lat.") {
		t.Error("render incomplete")
	}
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
