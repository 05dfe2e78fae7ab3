package experiments

import (
	"fmt"
	"strings"

	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// ElasticStudy compares a ring that scales out at runtime against fixed
// rings: the elastic run starts with two servers and admits two more
// mid-training (epoch-versioned membership, snapshot bootstrap, client
// re-homing), bracketed by fixed-2 and fixed-4 baselines. The paper
// fixes the server set for each experiment; this extension shows the
// token ring absorbing capacity changes without restarting training.
type ElasticStudy struct {
	Rows []ElasticRow
}

// ElasticRow is one ring configuration's outcome.
type ElasticRow struct {
	Name           string
	StartServers   int
	EndServers     int // ring members at the end of the run
	FinalEpoch     int // highest membership epoch reached
	FinalAcc       float64
	BestAcc        float64
	SyncsTriggered int // summed over servers, post-run
	FaultEvents    int // membership events actually applied
}

// RunElasticStudy runs the scale-out comparison on non-IID MNIST:
// fixed-2, elastic 2->4 (joins at 25% and 35% of the horizon, sponsored
// by servers 0 and 1), and fixed-4. Every run is deterministic given
// the seed, membership events included.
func RunElasticStudy(scale float64, seed int64) (*ElasticStudy, error) {
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	clients := int(100 * scale)
	if clients < 10 {
		clients = 10
	}
	const horizon = 60.0
	study := &ElasticStudy{}

	run := func(name string, servers int, plan *fault.Plan) error {
		hyper := fl.DefaultHyper(clients, servers)
		hyper.TokenTimeout = 5
		hyper.SyncRetry = 2.5
		reg := obs.NewRegistry()
		setup := Setup{
			Task:         TaskMNIST,
			NumServers:   servers,
			NumClients:   clients,
			NonIIDLabels: 2,
			Seed:         seed,
			Horizon:      horizon,
			EvalEvery:    100,
			Hyper:        &hyper,
			Trace:        obs.NewTracer(1 << 15),
			Metrics:      reg,
			Faults:       plan,
		}
		alg := &spyker.Algorithm{}
		_, rec, inj, err := runOn(alg, setup, nil)
		if err != nil {
			return err
		}

		row := ElasticRow{
			Name:         name,
			StartServers: servers,
			FinalAcc:     rec.TraceData.Final().Acc,
			BestAcc:      rec.TraceData.BestAcc(),
		}
		for _, c := range alg.Servers() {
			row.SyncsTriggered += c.SyncsTriggered()
			if e := c.Epoch(); e > row.FinalEpoch {
				row.FinalEpoch = e
			}
			if m := c.Membership(); m.Count() > row.EndServers {
				row.EndServers = m.Count()
			}
		}
		if inj != nil {
			row.FaultEvents = inj.Injected()
		}
		study.Rows = append(study.Rows, row)
		return nil
	}

	if err := run("fixed-2", 2, nil); err != nil {
		return nil, err
	}
	grow := fault.Plan{Seed: seed, Events: []fault.Event{
		{At: 0.25 * horizon, Kind: fault.KindJoin, Server: 0},
		{At: 0.35 * horizon, Kind: fault.KindJoin, Server: 1},
	}}
	if err := run("elastic 2->4", 2, &grow); err != nil {
		return nil, err
	}
	if err := run("fixed-4", 4, nil); err != nil {
		return nil, err
	}
	return study, nil
}

// Render prints the comparison.
func (e *ElasticStudy) Render() string {
	var sb strings.Builder
	sb.WriteString("=== Elastic extension: runtime 2→4 scale-out vs fixed rings (Spyker) ===\n")
	fmt.Fprintf(&sb, "%-12s %7s %7s %7s %10s %10s %7s\n",
		"ring", "start", "end", "epoch", "final acc", "best acc", "syncs")
	for _, r := range e.Rows {
		fmt.Fprintf(&sb, "%-12s %7d %7d %7d %9.1f%% %9.1f%% %7d\n",
			r.Name, r.StartServers, r.EndServers, r.FinalEpoch,
			100*r.FinalAcc, 100*r.BestAcc, r.SyncsTriggered)
	}
	sb.WriteString("\nthe elastic run admits two servers mid-training: each joiner boots from\n" +
		"its sponsor's snapshot, the membership epoch bumps ripple over the age\n" +
		"broadcasts, and half the sponsor's clients re-home to the newcomer —\n" +
		"training never stops and the final ring matches the fixed-4 baseline.\n")
	return sb.String()
}
