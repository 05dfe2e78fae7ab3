package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// tinySpec is small enough to run in milliseconds.
func tinySpec(task string) simSpec {
	return simSpec{task: task, servers: 2, clients: 4, nonIIDLabels: 2, maxUpdates: 100, horizon: 60, seed: 3}
}

func runTiny(t *testing.T, spec simSpec, tr *tracer) simOutcome {
	t.Helper()
	run, err := newSimRun(spec, "spyker")
	if err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		run.decorate(tr)
	}
	root := tr.begin(tr.rootLayer("experiments.alg.spyker"))
	out, err := run.execute(tr)
	tr.end(root)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// The mirrored run path (NewAlgorithm + BuildEnv + Build + Sim.Run) must
// produce what experiments.Run produces, decorated or not.
func TestMirroredRunEqualsExperimentsRun(t *testing.T) {
	spec := tinySpec("mnist")
	updates, finalTime, finalLoss, err := referenceRun(spec, "spyker")
	if err != nil {
		t.Fatal(err)
	}
	for name, tr := range map[string]*tracer{"plain": nil, "decorated": newTracer()} {
		out := runTiny(t, spec, tr)
		if out.updates != updates || out.finalTime != finalTime || out.finalLoss != finalLoss {
			t.Errorf("%s: got %d updates, t=%v, loss=%v; experiments.Run gives %d, %v, %v",
				name, out.updates, out.finalTime, out.finalLoss, updates, finalTime, finalLoss)
		}
	}
}

func TestStubModelConverges(t *testing.T) {
	spec := tinySpec("stub")
	spec.clients, spec.nonIIDLabels, spec.maxUpdates, spec.targetAcc = 20, 0, 3000, 1/1.05
	out := runTiny(t, spec, nil)
	if !(out.finalLoss < 0.05 && out.finalLoss < out.firstLoss) || out.timeToTarget == 0 {
		t.Errorf("stub did not converge: loss %v -> %v, target reached at %v", out.firstLoss, out.finalLoss, out.timeToTarget)
	}
}

// Self times telescope: summed over all spans they equal the roots' total,
// so the layer shares of a traced run account for the whole rep.
func TestSelfTimesSumToRootWall(t *testing.T) {
	tr := newTracer()
	runTiny(t, tinySpec("mnist"), tr)
	var roots, self int64
	for _, s := range tr.spans {
		if s.end < s.start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.parent < 0 {
			roots += s.end - s.start
		}
	}
	stats := tr.analyse()
	for _, st := range stats {
		self += int64(st.self)
	}
	if self != roots || roots == 0 {
		t.Errorf("self times sum to %d ns, root spans to %d ns", self, roots)
	}
	for _, name := range []string{"fl.train", "fl.setparams", "fl.newmodel", "metrics.observe", "alg.build", "simulation.run"} {
		if stats[name].calls == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
	if len(tr.stack) != 0 {
		t.Errorf("%d spans left open", len(tr.stack))
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json is exactly what the metric tables print, and every name
// in it is well formed and used once.
func TestManifestMatchesTables(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	printed, err := json.Marshal(manifest())
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(printed, &want); err != nil {
		t.Fatalf("printed manifest: %v", err)
	}
	if err := json.Unmarshal(committed, &got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("BENCHMARK.json differs from `-manifest`; regenerate it")
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || seen[d.name] {
			t.Errorf("metric name %q is malformed or used twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] || len(w.why) > 200 {
			t.Errorf("workload %q: bad name or why", w.name)
		}
		seen[w.name] = true
	}
}

// Every metric a run measures is in the tables, and every metric in the
// tables is measured by some workload's run or by a probe: nothing is
// emitted under an undeclared name, nothing declared is never measured.
func TestEveryDeclaredMetricIsMeasured(t *testing.T) {
	declared := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		declared[d.name] = true
	}
	measured := map[string]bool{"peak_rss_mb": true} // read at process end by measure
	tiny := []workload{
		{name: "sims", rep: func(seed int64, tr *tracer, dry bool) (*sample, error) {
			spec := tinySpec("mnist")
			spec.maxUpdates, spec.targetAcc = 50, 0.01
			return simRep(spec, comparisonAlgorithms(), tr, dry)
		}},
		{name: "ring", rep: func(seed int64, tr *tracer, dry bool) (*sample, error) {
			return liveRep(3*ringHIntra+30, seed, tr, dry)
		}},
	}
	for _, w := range tiny {
		rp, err := measureReps(w, 3, 0, true)
		if err != nil {
			t.Fatal(err)
		}
		if rp.failed != 0 {
			t.Errorf("%s: %d failed: %v", w.name, rp.failed, rp.problems)
		}
		for name := range rp.values {
			measured[name] = true
		}
	}
	probes, err := layerProbes(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probes {
		measured[p.name] = true
	}
	measured["transport.echo_rtt_us"], measured["live.server_residual_us"] = true, true // runProbes
	for name := range declared {
		if !measured[name] {
			t.Errorf("%q is declared but no run measured it", name)
		}
	}
	for name := range measured {
		if !declared[name] {
			t.Errorf("%q is measured but not declared", name)
		}
	}
}
