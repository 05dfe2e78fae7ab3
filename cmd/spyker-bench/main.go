// Command spyker-bench regenerates every table and figure of the paper's
// evaluation section. Each experiment prints the same rows/series the
// paper reports (see DESIGN.md for the per-experiment index).
//
// Usage:
//
//	spyker-bench -list               # enumerate experiments
//	spyker-bench -exp all            # run the whole evaluation
//	spyker-bench -exp fig5 -scale 1  # one experiment at full scale
//
// -scale in (0,1] shrinks client populations and horizons proportionally
// for quick runs; the shapes the paper reports are preserved.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"github.com/spyker-fl/spyker/internal/experiments"
)

type renderer interface{ Render() string }

// params carries the shared experiment knobs into each job.
type params struct {
	scale    float64
	seed     int64
	t90, t95 float64
}

// job is one runnable experiment. The jobs table is the single source of
// truth for -exp: the usage string and -list are derived from it.
type job struct {
	name string
	desc string
	fn   func(p params) (renderer, error)
}

// study adapts a study runner of the common (scale, seed) shape to a job.
func study[R renderer](run func(scale float64, seed int64) (R, error)) func(params) (renderer, error) {
	return func(p params) (renderer, error) { return run(p.scale, p.seed) }
}

// comparison is the five-algorithm comparison on one task as a job.
func comparison(task experiments.Task) func(params) (renderer, error) {
	return study(func(scale float64, seed int64) (*experiments.Comparison, error) {
		return experiments.RunComparison(task, scale, seed)
	})
}

var jobs = []job{
	{"fig3", "Wiki char-LM: Spyker vs baselines, accuracy over time", comparison(experiments.TaskWiki)},
	{"fig5", "MNIST CNN: Spyker vs baselines, accuracy over time", comparison(experiments.TaskMNIST)},
	{"fig7", "CIFAR CNN: Spyker vs baselines, accuracy over time", comparison(experiments.TaskCIFAR)},
	{"table5", "time-to-target-accuracy across deployment scales", func(p params) (renderer, error) {
		return experiments.RunScalabilityStudy(p.scale, 0.88, p.seed)
	}},
	{"table6", "time to 90%/95% targets under geo latency", func(p params) (renderer, error) {
		return experiments.RunLatencyStudy(p.scale, p.t90, p.t95, p.seed)
	}},
	{"fig9", "server queue depth over time", study(experiments.RunQueueStudy)},
	{"fig10", "update-staleness KDE", study(experiments.RunKDEStudy)},
	{"table7", "client-imbalance sensitivity", study(experiments.RunImbalanceStudy)},
	{"fig11", "staleness-decay (phi) sweep", study(experiments.RunDecayStudy)},
	{"fig12", "bandwidth usage accounting", study(experiments.RunBandwidthStudy)},
	{"churn", "client churn robustness", study(experiments.RunChurnStudy)},
	{"ablations", "component ablations", study(experiments.RunAblations)},
	{"clustering", "client-to-server assignment strategies", study(experiments.RunClusteringStudy)},
	{"compression", "update-compression operating points", study(experiments.RunCompressionStudy)},
	{"servers", "server-count scaling", study(experiments.RunServerScalingStudy)},
	{"byzantine", "byzantine-client resilience", study(experiments.RunByzantineStudy)},
	{"failover", "token-holder crash-rate sweep with recovery", study(experiments.RunFailoverStudy)},
	{"straggler", "straggler-client sensitivity", study(experiments.RunStragglerStudy)},
	{"elastic", "runtime 2->4 server scale-out vs fixed baselines", study(experiments.RunElasticStudy)},
}

// aliases map the paper's sibling figure numbers (loss panels) onto the
// experiment that renders both panels.
var aliases = map[string]string{"fig4": "fig3", "fig6": "fig5", "fig8": "fig7"}

// expNames derives the -exp usage string from the jobs table.
func expNames() string {
	names := make([]string, 0, len(jobs)+1)
	for _, j := range jobs {
		names = append(names, j.name)
	}
	return strings.Join(append(names, "all"), "|")
}

// exitOn reports a fatal error and exits; nil is no error.
func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+expNames())
	scale := flag.Float64("scale", 0.5, "deployment scale in (0,1]; 1 = paper-size populations")
	seed := flag.Int64("seed", 1, "experiment seed")
	t90 := flag.Float64("target90", 0.90, "lower accuracy target for table6")
	t95 := flag.Float64("target95", 0.93, "upper accuracy target for table6")
	list := flag.Bool("list", false, "list registered experiments and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Parse()

	if *list {
		for _, j := range jobs {
			fmt.Printf("%-12s %s\n", j.name, j.desc)
		}
		names := make([]string, 0, len(aliases))
		for alias := range aliases {
			names = append(names, alias)
		}
		sort.Strings(names)
		for _, alias := range names {
			fmt.Printf("%-12s alias for %s\n", alias, aliases[alias])
		}
		return
	}

	var cpuFile *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		cpuFile = f
	}

	err := run(*exp, params{scale: *scale, seed: *seed, t90: *t90, t95: *t95})

	// Profiles are flushed before exiting on any path (os.Exit skips
	// deferred calls, so this is explicit).
	if cpuFile != nil {
		pprof.StopCPUProfile()
		_ = cpuFile.Close()
	}
	if *memprofile != "" {
		f, merr := os.Create(*memprofile)
		exitOn(merr)
		runtime.GC() // flush garbage so the profile shows live allocations
		exitOn(pprof.WriteHeapProfile(f))
		_ = f.Close()
	}

	exitOn(err)
}

func run(exp string, p params) error {
	if a, ok := aliases[exp]; ok {
		exp = a
	}

	ran := false
	for _, j := range jobs {
		if exp != "all" && exp != j.name {
			continue
		}
		ran = true
		start := time.Now()
		r, err := j.fn(p)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		fmt.Printf("\n################ %s (scale %.2f, %s wall) ################\n%s\n",
			strings.ToUpper(j.name), p.scale, time.Since(start).Round(time.Millisecond), r.Render())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (see -list)", exp)
	}
	return nil
}
