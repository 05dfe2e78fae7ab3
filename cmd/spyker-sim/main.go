// Command spyker-sim runs a single federated-learning emulation with
// full control over the deployment and prints the accuracy trace.
//
// Example:
//
//	spyker-sim -alg spyker -task mnist -clients 100 -servers 4 -target 0.9
//	spyker-sim -alg fedasync -task wikitext -horizon 60
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/spyker-fl/spyker/internal/experiments"
	"github.com/spyker-fl/spyker/internal/obs"
)

func main() {
	alg := flag.String("alg", "spyker", "algorithm: spyker|spyker-nodecay|sync-spyker|fedavg|fedasync|hierfavg")
	task := flag.String("task", "mnist", "task: mnist|cifar|wikitext")
	servers := flag.Int("servers", 4, "number of servers")
	clients := flag.Int("clients", 100, "number of clients")
	nonIID := flag.Int("noniid", 2, "labels per client (0 = IID)")
	target := flag.Float64("target", 0, "stop at this accuracy (0 = run to horizon)")
	horizon := flag.Float64("horizon", 60, "virtual-seconds budget")
	maxUpdates := flag.Int("maxupdates", 0, "stop after this many client updates (0 = unlimited)")
	seed := flag.Int64("seed", 1, "seed")
	uniform := flag.Bool("uniform-latency", false, "replace the AWS latency matrix with a uniform latency of equal average")
	csvPath := flag.String("csv", "", "write the accuracy trace to this CSV file")
	tracePath := flag.String("trace", "", "write the protocol event trace to this JSONL file (see spyker-trace)")
	chromePath := flag.String("chrome", "", "write the protocol event trace as a Chrome trace_event file (chrome://tracing, Perfetto)")
	flag.Parse()

	if err := run(*alg, *task, *servers, *clients, *nonIID, *target, *horizon, *maxUpdates, *seed, *uniform, *csvPath, *tracePath, *chromePath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(alg, task string, servers, clients, nonIID int, target, horizon float64,
	maxUpdates int, seed int64, uniform bool, csvPath, tracePath, chromePath string) error {
	var t experiments.Task
	switch task {
	case "mnist":
		t = experiments.TaskMNIST
	case "cifar":
		t = experiments.TaskCIFAR
	case "wikitext":
		t = experiments.TaskWiki
	default:
		return fmt.Errorf("unknown task %q", task)
	}
	setup := experiments.Setup{
		Task:         t,
		NumServers:   servers,
		NumClients:   clients,
		NonIIDLabels: nonIID,
		Seed:         seed,
		TargetAcc:    target,
		Horizon:      horizon,
		MaxUpdates:   maxUpdates,
	}
	if uniform {
		setup.Latency = experiments.UniformMeanLatency()
	}
	var tracer *obs.Tracer
	if tracePath != "" || chromePath != "" {
		tracer = obs.NewTracer(0)
		setup.Trace = tracer
	}
	res, err := experiments.Run(alg, setup)
	if err != nil {
		return err
	}

	perplexity := t == experiments.TaskWiki
	metric := "acc"
	if perplexity {
		metric = "ppl"
	}
	fmt.Printf("%s on %s: %d servers, %d clients\n", res.Algorithm, task, servers, clients)
	fmt.Printf("%10s %9s %10s\n", "time(s)", "updates", metric)
	for _, p := range res.Trace {
		if perplexity {
			fmt.Printf("%10.2f %9d %10.3f\n", p.Time, p.Updates, p.Perplexity())
		} else {
			fmt.Printf("%10.2f %9d %9.1f%%\n", p.Time, p.Updates, 100*p.Acc)
		}
	}
	fmt.Printf("\nupdates=%d  virtual-time=%.2fs\n", res.Updates, res.FinalTime)
	if res.ReachedTarget {
		fmt.Printf("target %.0f%% reached at %.2fs\n", 100*target, res.TimeToTarget)
	}
	fmt.Printf("traffic: %.2f MB client-server, %.2f MB server-server\n",
		float64(res.BytesClientServer)/1e6, float64(res.BytesServerServer)/1e6)
	if csvPath != "" {
		if err := writeEventFile(csvPath, func(w io.Writer) error {
			return experiments.WriteTraceCSV(w, res.Trace)
		}); err != nil {
			return err
		}
		fmt.Printf("trace written to %s\n", csvPath)
	}
	if tracer != nil {
		if dropped := tracer.Dropped(); dropped > 0 {
			fmt.Fprintf(os.Stderr, "warning: event trace ring overflowed, oldest %d events dropped\n", dropped)
		}
		if tracePath != "" {
			if err := writeEventFile(tracePath, tracer.WriteJSONL); err != nil {
				return err
			}
			fmt.Printf("event trace (%d events) written to %s\n", tracer.Len(), tracePath)
		}
		if chromePath != "" {
			events := tracer.Events()
			if err := writeEventFile(chromePath, func(w io.Writer) error {
				return obs.WriteChromeTrace(w, events)
			}); err != nil {
				return err
			}
			fmt.Printf("chrome trace written to %s (load in chrome://tracing or Perfetto)\n", chromePath)
		}
	}
	return nil
}

// writeEventFile creates path and streams a trace into it via write.
func writeEventFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
