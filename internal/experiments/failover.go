package experiments

import (
	"fmt"
	"strings"

	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/spyker"
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
	FinalAcc        float64
	BestAcc         float64
	SyncsTriggered  int // summed over servers, post-run
	TokenRegens     int // summed over servers, post-run
	MeanSyncLatency float64
	FaultEvents     int // faults actually applied (crashes + restarts)
}

// RunFailoverStudy runs the crash-rate sweep on non-IID MNIST: a
// fault-free reference, then 1, 2, and 4 token-holder crashes with 10
// virtual seconds of downtime each. Every run is deterministic given the
// seed, faults included.
func RunFailoverStudy(scale float64, seed int64) (*FailoverStudy, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	clients := int(100 * scale)
	if clients < 10 {
		clients = 10
	}
	const (
		horizon  = 60.0
		downtime = 10.0
	)
	study := &FailoverStudy{Downtime: downtime}

	run := func(name string, crashes int) error {
		hyper := fl.DefaultHyper(clients, 4)
		hyper.TokenTimeout = 5
		hyper.SyncRetry = 2.5
		reg := obs.NewRegistry()
		setup := Setup{
			Task:         TaskMNIST,
			NumServers:   4,
			NumClients:   clients,
			NonIIDLabels: 2,
			Seed:         seed,
			Horizon:      horizon,
			EvalEvery:    100,
			Hyper:        &hyper,
			// Tracing feeds the metrics bridge that measures sync latency.
			Trace:   obs.NewTracer(1 << 15),
			Metrics: reg,
		}
		if crashes > 0 {
			plan := fault.CrashPlan(seed, crashes, horizon, downtime)
			setup.Faults = &plan
		}
		alg := &spyker.Algorithm{}
		_, rec, inj, err := runOn(alg, setup, nil)
		if err != nil {
			return err
		}

		row := FailoverRow{
			Name:            name,
			Crashes:         crashes,
			FinalAcc:        rec.TraceData.Final().Acc,
			BestAcc:         rec.TraceData.BestAcc(),
			MeanSyncLatency: reg.Histogram(obs.MetricSyncDuration, obs.DefBuckets).Mean(),
		}
		for _, c := range alg.Servers() {
			row.SyncsTriggered += c.SyncsTriggered()
			row.TokenRegens += c.TokenRegens()
		}
		if inj != nil {
			row.FaultEvents = inj.Injected()
		}
		study.Rows = append(study.Rows, row)
		return nil
	}

	if err := run("fault-free", 0); err != nil {
		return nil, err
	}
	for _, crashes := range []int{1, 2, 4} {
		name := fmt.Sprintf("%d crash", crashes)
		if crashes > 1 {
			name += "es"
		}
		if err := run(name, crashes); err != nil {
			return nil, err
		}
	}
	return study, nil
}

// Render prints the sweep.
func (f *FailoverStudy) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== Failover extension: token-holder crashes, %.0fs downtime (Spyker) ===\n",
		f.Downtime)
	fmt.Fprintf(&sb, "%-12s %10s %10s %7s %7s %10s %7s\n",
		"crashes", "final acc", "best acc", "syncs", "regens", "sync lat", "faults")
	for _, r := range f.Rows {
		fmt.Fprintf(&sb, "%-12s %9.1f%% %9.1f%% %7d %7d %9.2fs %7d\n",
			r.Name, 100*r.FinalAcc, 100*r.BestAcc,
			r.SyncsTriggered, r.TokenRegens, r.MeanSyncLatency, r.FaultEvents)
	}
	sb.WriteString("\neach crash kills the current token holder; the ring detects the silence,\n" +
		"regenerates a higher-bid token, and discards the stale one when the\n" +
		"restarted server resurfaces it — synchronization keeps advancing.\n")
	return sb.String()
}
