package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// dist summarizes the per-rep values behind one reported median.
type dist struct {
	median, min, q1, q3 float64
	n                   int
}

func distOf(values []float64) dist {
	s := sortedCopy(values)
	if len(s) == 0 {
		return dist{}
	}
	return dist{median: quantile(s, 0.5), min: s[0], q1: quantile(s, 0.25), q3: quantile(s, 0.75), n: len(s)}
}

// report is everything one process measured on one workload.
type report struct {
	workload  string
	traced    bool
	reps      int // measured repetitions, the untimed warm-up not counted
	attempted int
	failed    int
	problems  []string
	values    map[string]float64 // every metric this run measured, by name
	spread    map[string]dist    // for the metrics that are medians across reps
	tracer    *tracer
}

const (
	minPlainReps  = 5 // undecorated reps behind every end-to-end median
	minTracedReps = 2
	drySetups     = 100 // set-ups on their own, on top of one per rep
)

// measure is one process's work on one workload: the reps, in a traced
// run the probes, and the memory high-water mark at the end.
func measure(w workload, seed int64, seconds float64, traced bool) (*report, error) {
	rp, err := measureReps(w, seed, seconds, traced)
	if err != nil {
		return nil, err
	}
	if traced {
		if err := rp.runProbes(seed); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	rp.values["peak_rss_mb"] = rss
	return rp, nil
}

// measureReps runs the workload's shape: one untimed warm-up rep, set-up
// repeated on its own, then identical fixed-work reps on the same inputs
// for at least the given time. In a traced run every second rep is
// decorated; the others stay undecorated, which gives the tracing overhead
// and the proof that the decorators are passive from inside one process.
func measureReps(w workload, seed int64, seconds float64, traced bool) (*report, error) {
	ref, err := w.rep(seed, nil, false)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	rp := &report{workload: w.name, traced: traced, values: map[string]float64{}, spread: map[string]dist{}}
	rp.absorb(ref, nil)
	var setups []float64
	for i := 0; i < drySetups; i++ {
		s, err := w.rep(seed, nil, true)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, s.setup.Seconds())
	}
	wantPlain := minPlainReps
	if traced {
		rp.tracer = newTracer()
		wantPlain = minTracedReps
	}

	var plain, decorated []*sample
	start := time.Now()
	for n := 0; ; n++ {
		enough := len(plain) >= wantPlain && (!traced || len(decorated) >= minTracedReps)
		if enough && time.Since(start).Seconds() >= seconds {
			break
		}
		var tr *tracer
		if traced && n%2 == 1 {
			tr = rp.tracer
			tr.rep++
		}
		runtime.GC() // the previous rep's garbage is not this rep's cost
		s, err := w.rep(seed, tr, false)
		if err != nil {
			return nil, fmt.Errorf("rep %d: %w", n, err)
		}
		rp.absorb(s, ref)
		if tr == nil {
			plain = append(plain, s)
		} else {
			decorated = append(decorated, s)
		}
	}
	rp.reps = len(plain) + len(decorated)

	rp.set("setup_s", append(setups, collect(plain, func(s *sample) float64 { return s.setup.Seconds() })...))
	rp.medians(decorated) // kept only where the plain reps, next, measure nothing
	rp.fromPlain(plain, ref)
	if traced {
		rp.fromTraced(plain, decorated)
	}
	return rp, nil
}

// absorb counts a rep's operations and failures and, given the reference
// rep, checks that it reproduced the deterministic outputs bit for bit.
func (rp *report) absorb(s, ref *sample) {
	rp.attempted += s.updates + s.failed
	rp.failed += s.failed
	rp.problems = append(rp.problems, s.problems...)
	if ref == nil {
		return
	}
	var diff []string
	for k, want := range ref.exact {
		if got, ok := s.exact[k]; !ok || math.Float64bits(got) != math.Float64bits(want) {
			diff = append(diff, fmt.Sprintf("%s=%v (first rep %v)", k, got, want))
		}
	}
	if len(diff) > 0 || len(s.exact) != len(ref.exact) {
		sort.Strings(diff)
		rp.failed++
		rp.problems = append(rp.problems, fmt.Sprintf("rep did not reproduce the first rep's outputs: %v", diff))
	}
}

func collect(samples []*sample, f func(*sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// set records a metric that is a median across reps.
func (rp *report) set(name string, values []float64) {
	d := distOf(values)
	rp.values[name] = d.median
	rp.spread[name] = d
}

// fromPlain derives the metrics that need no decorator.
func (rp *report) fromPlain(plain []*sample, ref *sample) {
	rp.set("rep_wall_s", collect(plain, func(s *sample) float64 { return s.cost.wall.Seconds() }))
	rp.set("updates_per_s", collect(plain, func(s *sample) float64 { return float64(s.updates) / s.cost.wall.Seconds() }))
	rp.medians(plain)
	for k, v := range ref.exact {
		if !strings.HasPrefix(k, "sig.") {
			rp.values[k] = v
		}
	}

	var total meter
	updates := 0
	for _, s := range plain {
		total.add(s.cost)
		updates += s.updates
	}
	n := float64(len(plain))
	rp.values["go.allocs_per_update"] = float64(total.mallocs) / float64(updates)
	rp.values["go.alloc_bytes_per_update"] = float64(total.bytes) / float64(updates)
	rp.values["go.gc_cycles"] = float64(total.gcs) / n
	rp.values["go.gc_pause_ms"] = total.gcPause.Seconds() * 1e3 / n
	rp.values["go.cpu_s"] = total.cpu.Seconds() / n
	rp.values["go.cpu_per_wall"] = total.cpu.Seconds() / total.wall.Seconds()

	if events := rp.values["simulation.events"]; events > 0 {
		rp.values["simulation.events_per_update"] = events / float64(ref.updates)
		rp.values["simulation.virtual_s_per_wall_s"] = ref.exact["sig.virtual_s"] / rp.values["rep_wall_s"]
	}
}

// medians reports every per-rep measurement of the samples as its median.
func (rp *report) medians(samples []*sample) {
	keys := map[string]bool{}
	for _, s := range samples {
		for k := range s.vary {
			keys[k] = true
		}
	}
	for k := range keys {
		var vals []float64
		for _, s := range samples {
			if v, ok := s.vary[k]; ok {
				vals = append(vals, v)
			}
		}
		rp.set(k, vals)
	}
}

// fromTraced derives the per-layer attribution: each layer's self time as
// a share of the decorated reps' wall time, the residual named.
func (rp *report) fromTraced(plain, decorated []*sample) {
	n := float64(len(decorated))
	var wall time.Duration
	updates := 0
	for _, s := range decorated {
		wall += s.cost.wall
		updates += s.updates
	}
	stats := rp.tracer.analyse()
	var selfSum, residual time.Duration
	for name, st := range stats {
		selfSum += st.self
		switch name {
		case "fl.train", "fl.setparams", "fl.newmodel", "metrics.observe", "transport.send", "live.wait":
			rp.values[name+".share"] = st.self.Seconds() / wall.Seconds()
		case "loadgen":
			rp.values["loadgen.share"] = st.self.Seconds() / wall.Seconds()
		default:
			// The algorithm roots, Build and the event loop: what is left
			// of a DES rep once the decorated calls are taken out — event
			// loop, geo, the protocol core, paramvec, queues.
			residual += st.self
		}
	}
	for _, name := range []string{"fl.train", "fl.setparams", "fl.newmodel", "metrics.observe"} {
		rp.values[name+".busy_s"] = stats[name].busy.Seconds() / n
	}
	rp.values["fl.train.calls"] = float64(stats["fl.train"].calls) / n
	rp.values["metrics.observe.calls"] = float64(stats["metrics.observe"].calls) / n
	rp.values["fl.paramsview.calls"] = float64(rp.tracer.paramsViews) / n
	rp.values["spyker.build_s"] = stats["alg.build"].busy.Seconds() / n
	if residual > 0 {
		rp.values["spyker.protocol_residual_s"] = residual.Seconds() / n
		rp.values["spyker.protocol_residual_share"] = residual.Seconds() / wall.Seconds()
		rp.values["spyker.protocol_us_per_update"] = residual.Seconds() * 1e6 / float64(updates)
	}
	rp.values["trace.share_sum"] = selfSum.Seconds() / wall.Seconds()
	rp.values["trace.spans"] = float64(len(rp.tracer.spans)) / n
	// Reps alternate, so each decorated rep is compared with the plain rep
	// that ran just before it: machine drift cancels within a pair.
	ratios := make([]float64, len(decorated))
	for i, d := range decorated {
		ratios[i] = d.cost.wall.Seconds() / plain[i].cost.wall.Seconds()
	}
	rp.values["trace.overhead_share"] = median(ratios) - 1
}
