package health

import (
	"fmt"
	"io"
	"sort"

	"github.com/spyker-fl/spyker/internal/obs"
)

// CalibrateTokenTimeout estimates a plausible token regeneration timeout
// from a trace when the run's configuration is not at hand: four times
// the median gap between consecutive token passes. The median is robust
// to the very outage being hunted (a stall contributes one huge gap,
// not many), and the 4x margin — 8x once the silence rule's 2x factor
// is applied — keeps the occasional long-but-healthy handoff (a round
// that waits on slow training) from reading as a stall on rings whose
// rounds run much faster than their configured timeout. Returns 0 when
// the trace holds fewer than two passes (nothing to calibrate on).
func CalibrateTokenTimeout(events []obs.Event) float64 {
	var gaps []float64
	last, valid := 0.0, false
	for i := range events {
		if events[i].Kind != obs.KindTokenPass {
			continue
		}
		if valid && events[i].Time > last {
			gaps = append(gaps, events[i].Time-last)
		}
		last, valid = events[i].Time, true
	}
	if len(gaps) == 0 {
		return 0
	}
	sort.Float64s(gaps)
	return 4 * gaps[len(gaps)/2]
}

// Run evaluates a complete, time-ordered event stream (a DES trace or a
// merged multi-process trace) offline. When cfg.TokenTimeout is unset it
// is calibrated from the trace itself.
func Run(events []obs.Event, cfg Config) *Evaluator {
	if cfg.TokenTimeout <= 0 {
		cfg.TokenTimeout = CalibrateTokenTimeout(events)
	}
	e := New(cfg)
	for i := range events {
		e.Observe(events[i])
	}
	return e
}

// WriteReport renders the evaluator's verdict: final state, effective
// thresholds, and the full alert timeline.
func (e *Evaluator) WriteReport(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "state: %s\n", e.State()); err != nil {
		return err
	}
	tmo := "unknown"
	if e.tokenTmo > 0 {
		tmo = fmt.Sprintf("%.2fs (stall after %.2fs of silence)",
			e.tokenTmo, silenceFactor*e.tokenTmo)
	}
	if _, err := fmt.Fprintf(w, "stream time: %.2fs   token timeout: %s\n", e.now, tmo); err != nil {
		return err
	}
	if len(e.alerts) == 0 {
		_, err := fmt.Fprintln(w, "no alerts raised")
		return err
	}
	if _, err := fmt.Fprintf(w, "alerts (%d raised):\n", len(e.alerts)); err != nil {
		return err
	}
	for i := range e.alerts {
		a := &e.alerts[i]
		scope := "cluster"
		if a.Node != obs.NoPeer {
			scope = fmt.Sprintf("s%d", a.Node)
			if a.Peer != obs.NoPeer {
				scope += fmt.Sprintf("->s%d", a.Peer)
			}
		}
		end := "active"
		if !a.Active {
			end = fmt.Sprintf("cleared %.2fs", a.Cleared)
		}
		if _, err := fmt.Fprintf(w, "  %8.2fs  %-16s %-8s %-8s %s  [%s]\n",
			a.Raised, a.Rule, a.Severity, scope, a.Detail, end); err != nil {
			return err
		}
	}
	return nil
}
