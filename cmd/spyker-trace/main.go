// Command spyker-trace analyzes a protocol event trace written by
// spyker-sim -trace or spyker-live -trace. Its default mode summarizes the
// trace: per-kind event counts, the staleness histogram of aggregated
// client updates, per-server model-age timelines, token ring round-trip
// times, and traffic totals (of a live trace: the octets of the frames
// sent and received; of a simulated one: the sizes the geo model charged).
// Two provenance modes reconstruct the causal
// lineage of every client update, rebuilding each server's merged-updates
// frontier from the trace's own events (obs.BuildLineage):
//
//   - -mode provenance reports, per client update, the origin server,
//     every server its contribution reached, the broadcast hop and sync
//     round it arrived through, and the end-to-end propagation latency
//     distribution across all updates.
//   - -mode critpath ranks the slowest fully-propagated update journeys
//     and breaks each down hop by hop, plus a hop-pair frequency table —
//     the protocol's critical paths.
//
// It can also convert the JSONL trace into a Chrome trace_event file for
// chrome://tracing or Perfetto; update journeys become flow arrows linking
// the origin merge to every server it reached.
//
// The -mode health analysis replays the trace through the deterministic
// health evaluator (internal/obs/health) and reports the state timeline
// and every alert it would have raised online: token-circulation stalls,
// membership-epoch divergence, staleness blow-ups, sync flat-lines.
//
// Multiple trace files merge into one timeline: each per-process JSONL
// stream (spyker-live -role server -trace) keeps its own clock, so the
// merge estimates pairwise clock offsets from matched token send/recv
// spans and aligns the streams before analysis.
//
// Example:
//
//	spyker-sim -alg spyker -horizon 20 -trace run.jsonl
//	spyker-trace run.jsonl
//	spyker-trace -mode provenance run.jsonl
//	spyker-trace -mode critpath -top 5 run.jsonl
//	spyker-trace -mode health run.jsonl
//	spyker-trace -chrome run.json run.jsonl
//	spyker-trace s0.jsonl s1.jsonl s2.jsonl   # merged multi-process timeline
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/obs/health"
)

func main() {
	chromePath := flag.String("chrome", "", "also convert the trace to a Chrome trace_event file at this path")
	mode := flag.String("mode", "summary", "analysis mode: summary, provenance, critpath, or health")
	top := flag.Int("top", 10, "number of journeys/paths to show in provenance and critpath modes")
	tokenTimeout := flag.Float64("token-timeout", 0, "the run's token regeneration timeout for health mode (0 = calibrate from the trace)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: spyker-trace [-mode summary|provenance|critpath|health] [-top n] [-chrome out.json] <trace.jsonl>...\n")
		fmt.Fprintf(os.Stderr, "       spyker-trace reads stdin when no file is given; several files are clock-aligned and merged\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if err := run(flag.Args(), *mode, *top, *tokenTimeout, *chromePath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// load reads one trace per path (stdin when none) and clock-aligns
// multi-process traces into a single merged timeline.
func load(paths []string) ([]obs.Event, error) {
	if len(paths) == 0 {
		events, err := obs.ReadJSONL(os.Stdin)
		if err != nil {
			return nil, fmt.Errorf("spyker-trace: read stdin: %w", err)
		}
		return events, nil
	}
	traces := make([][]obs.Event, len(paths))
	for i, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		traces[i], err = obs.ReadJSONL(f)
		_ = f.Close()
		if err != nil {
			return nil, fmt.Errorf("spyker-trace: read %s: %w", p, err)
		}
	}
	if len(traces) == 1 {
		return traces[0], nil
	}
	m, err := obs.MergeTraces(traces)
	if err != nil {
		return nil, fmt.Errorf("spyker-trace: merge: %w", err)
	}
	fmt.Printf("merged %d traces into one timeline (%d events):\n", len(paths), len(m.Events))
	for i, p := range paths {
		fmt.Printf("  %s: server s%d, clock offset %+.4fs (%d matched spans)\n",
			p, m.Sources[i], m.Offsets[i], m.Matched[i])
	}
	fmt.Println()
	return m.Events, nil
}

func run(paths []string, mode string, top int, tokenTimeout float64, chromePath string) error {
	events, err := load(paths)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("spyker-trace: no events to analyze")
	}

	switch mode {
	case "summary":
		obs.Summarize(events).WriteText(os.Stdout)
	case "provenance":
		obs.BuildLineage(events).WriteProvenance(os.Stdout, top)
	case "critpath":
		obs.BuildLineage(events).WriteCritPath(os.Stdout, top)
	case "health":
		ev := health.Run(events, health.Config{TokenTimeout: tokenTimeout})
		if err := ev.WriteReport(os.Stdout); err != nil {
			return err
		}
	default:
		return fmt.Errorf("spyker-trace: unknown mode %q (want summary, provenance, critpath, or health)", mode)
	}

	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			return err
		}
		if err := obs.WriteChromeTrace(f, events); err != nil {
			_ = f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("\nchrome trace written to %s (load in chrome://tracing or Perfetto)\n", chromePath)
	}
	return nil
}
