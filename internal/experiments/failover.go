package experiments

import (
	"fmt"
	"strconv"

	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/obs"
)

// FailoverStudy sweeps token-holder crash rates against accuracy and
// synchronization latency: each faulty run repeatedly crashes whichever
// server holds the token (internal/fault.CrashPlan), with Spyker's
// token-loss recovery armed (silence-timeout regeneration plus stuck-round
// retry). The paper never evaluates server failure; this extension shows
// the ring surviving exactly the loss mode that would otherwise silence
// synchronization forever.
type FailoverStudy struct {
	Downtime float64
	Rows     []FailoverRow
}

// FailoverRow is one crash-rate configuration's outcome.
type FailoverRow struct {
	Name            string
	Crashes         int
	SpykerRun           // FaultEvents counts crashes + restarts
	TokenRegens     int // summed over servers, post-run
	MeanSyncLatency float64
}

// RunFailoverStudy runs the crash-rate sweep on non-IID MNIST: a
// fault-free reference, then 1, 2, and 4 token-holder crashes with 10
// virtual seconds of downtime each. Every run is deterministic given the
// seed, faults included.
func RunFailoverStudy(scale float64, seed int64) (*FailoverStudy, error) {
	clients := population(100, scale, 10)
	const (
		horizon  = 60.0
		downtime = 10.0
	)
	study := &FailoverStudy{Downtime: downtime}
	var w sweep
	for _, crashes := range []int{0, 1, 2, 4} {
		name := "fault-free"
		var plan *fault.Plan
		if crashes > 0 {
			name = fmt.Sprintf("%d crash", crashes)
			if crashes > 1 {
				name += "es"
			}
			p := fault.CrashPlan(seed, crashes, horizon, downtime)
			plan = &p
		}
		setup, reg := recoverySetup(clients, 4, seed, horizon, plan)
		row := FailoverRow{Name: name, Crashes: crashes, SpykerRun: w.spyker(setup, nil)}
		row.MeanSyncLatency = reg.Histogram(obs.MetricSyncDuration, obs.DefBuckets).Mean()
		for _, c := range row.cores {
			row.TokenRegens += c.TokenRegens()
		}
		study.Rows = append(study.Rows, row)
	}
	return study, w.err
}

// Render prints the sweep.
func (f *FailoverStudy) Render() string {
	t := titled(fmt.Sprintf("=== Failover extension: token-holder crashes, %.0fs downtime (Spyker) ===\n", f.Downtime),
		col{"crashes", -12, ""}, col{"final acc", 10, "%"}, col{"best acc", 10, "%"},
		col{"syncs", 7, ""}, col{"regens", 7, ""}, col{"sync lat", 10, "s"}, col{"faults", 7, ""})
	for _, r := range f.Rows {
		t.row(r.Name, fixed(100*r.FinalAcc, 1), fixed(100*r.BestAcc, 1), strconv.Itoa(r.SyncsTriggered),
			strconv.Itoa(r.TokenRegens), fixed(r.MeanSyncLatency, 2), strconv.Itoa(r.FaultEvents))
	}
	return t.b.String() + "\neach crash kills the current token holder; the ring detects the silence,\n" +
		"regenerates a higher-bid token, and discards the stale one when the\n" +
		"restarted server resurfaces it — synchronization keeps advancing.\n"
}
