// Command benchmark is the repo's benchmark: four workloads, the
// end-to-end metrics a user of the system waits on, and a traced pass that
// attributes the same wall time to layers. README.md has the full story.
//
//	bash benchmark/run.sh                          every workload, both passes, all metrics
//	bash benchmark/run.sh -aa                      two interleaved sets of untraced runs, compared against the bounds
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// The last form is one process on one workload — what the first two
// re-exec for every workload — and ends with one JSON line on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload in this process (default: all, one child process each)")
		seed     = flag.Int64("seed", 1, "the workload's inputs are generated from this seed")
		seconds  = flag.Float64("seconds", runSeconds, "measure for at least this long (and at least 5 repetitions)")
		trace    = flag.Int("trace", 0, "1 = traced pass: decorate the layers, report the per-layer metrics")
		traceOut = flag.String("trace-out", "", "Chrome trace_event file of a traced pass (default .bench_build/trace/<workload>.json)")
		aa       = flag.Bool("aa", false, "run the untraced suite as two interleaved sets of runs and compare their medians against the bounds")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	var err error
	switch {
	case *manifest:
		err = printManifest()
	case *name != "":
		err = runOne(*name, *seed, *seconds, *trace == 1, *traceOut)
	case *aa:
		err = runAA(*seed, *seconds)
	default:
		err = runSuite(*seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// result is the JSON line a single-workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne measures one workload in this process, prints what it measured
// and ends with the result line: the end-to-end metrics of an untraced
// run, the per-layer metrics of a traced one.
func runOne(name string, seed int64, seconds float64, traced bool, traceOut string) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	rp, err := measure(w, inputSeed(seed), seconds, traced)
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
		if traceOut == "" {
			traceOut = filepath.Join(".bench_build", "trace", name+".json")
		}
		if err := rp.tracer.writeChrome(traceOut); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
		fmt.Printf("trace of the first traced rep: %s\n", traceOut)
	}
	rp.print(defs)

	res := result{Correct: rp.failed == 0, Attempted: rp.attempted, Failed: rp.failed, Metrics: map[string]resultValue{}}
	for _, d := range defs {
		res.Metrics[d.name] = resultValue{Value: rp.values[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed:\n  %s", name, rp.failed, rp.attempted, strings.Join(rp.problems, "\n  "))
	}
	return nil
}

// print lists the run's metrics by name with their units; a metric that
// is a median across reps also shows the reps behind it.
func (rp *report) print(defs []metricDef) {
	pass := "untraced"
	if rp.traced {
		pass = "traced"
	}
	fmt.Printf("%s (%s): %d reps after one warm-up, %d updates attempted, %d failed\n",
		rp.workload, pass, rp.reps, rp.attempted, rp.failed)
	for _, d := range defs {
		fmt.Printf("  %-36s %16.6g %-10s", d.name, rp.values[d.name], d.unit)
		if sp, ok := rp.spread[d.name]; ok {
			fmt.Printf(" min %.6g  q1 %.6g  q3 %.6g  n %d", sp.min, sp.q1, sp.q3, sp.n)
		}
		fmt.Println()
	}
}

// manifest is BENCHMARK.json as the metric and workload tables define it.
func manifest() any {
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type why struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	convert := func(defs []metricDef, bounded bool) []metric {
		out := make([]metric, len(defs))
		for i, d := range defs {
			out[i] = metric{Name: d.name, Unit: d.unit, Better: d.better}
			if bounded {
				out[i].Bound = &defs[i].bound
			}
		}
		return out
	}
	var whys []why
	for _, w := range workloads {
		whys = append(whys, why{w.name, w.why})
	}
	return struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []why    `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  whys,
		EndToEnd:   convert(endToEnd, true),
		PerLayer:   convert(perLayer, false),
	}
}

func printManifest() error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(manifest())
}
