package experiments

import (
	"strconv"

	"github.com/spyker-fl/spyker/internal/fault"
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
	Name         string
	StartServers int
	EndServers   int // ring members at the end of the run
	FinalEpoch   int // highest membership epoch reached
	SpykerRun        // FaultEvents counts the membership events applied
}

// RunElasticStudy runs the scale-out comparison on non-IID MNIST:
// fixed-2, elastic 2->4 (joins at 25% and 35% of the horizon, sponsored
// by servers 0 and 1), and fixed-4. Every run is deterministic given
// the seed, membership events included.
func RunElasticStudy(scale float64, seed int64) (*ElasticStudy, error) {
	clients := population(100, scale, 10)
	const horizon = 60.0
	grow := fault.Plan{Seed: seed, Events: []fault.Event{
		{At: 0.25 * horizon, Kind: fault.KindJoin, Server: 0},
		{At: 0.35 * horizon, Kind: fault.KindJoin, Server: 1},
	}}
	study := &ElasticStudy{}
	var w sweep
	for _, ring := range []struct {
		name    string
		servers int
		plan    *fault.Plan
	}{{"fixed-2", 2, nil}, {"elastic 2->4", 2, &grow}, {"fixed-4", 4, nil}} {
		setup, _ := recoverySetup(clients, ring.servers, seed, horizon, ring.plan)
		row := ElasticRow{Name: ring.name, StartServers: ring.servers, SpykerRun: w.spyker(setup, nil)}
		for _, c := range row.cores {
			row.FinalEpoch = max(row.FinalEpoch, c.Epoch())
			row.EndServers = max(row.EndServers, c.Membership().Count())
		}
		study.Rows = append(study.Rows, row)
	}
	return study, w.err
}

// Render prints the comparison.
func (e *ElasticStudy) Render() string {
	t := titled("=== Elastic extension: runtime 2→4 scale-out vs fixed rings (Spyker) ===\n",
		col{"ring", -12, ""}, col{"start", 7, ""}, col{"end", 7, ""}, col{"epoch", 7, ""},
		col{"final acc", 10, "%"}, col{"best acc", 10, "%"}, col{"syncs", 7, ""})
	for _, r := range e.Rows {
		t.row(r.Name, strconv.Itoa(r.StartServers), strconv.Itoa(r.EndServers), strconv.Itoa(r.FinalEpoch),
			fixed(100*r.FinalAcc, 1), fixed(100*r.BestAcc, 1), strconv.Itoa(r.SyncsTriggered))
	}
	return t.b.String() + "\nthe elastic run admits two servers mid-training: each joiner boots from\n" +
		"its sponsor's snapshot, the membership epoch bumps ripple over the age\n" +
		"broadcasts, and half the sponsor's clients re-home to the newcomer —\n" +
		"training never stops and the final ring matches the fixed-4 baseline.\n"
}
