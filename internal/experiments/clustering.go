package experiments

import (
	"fmt"
)

// ClusteringStudy implements the paper's future-work proposal (Sec. 7):
// use clustering over client data distributions when assigning clients to
// servers, instead of pure geographic proximity. Three placements are
// compared on non-IID MNIST:
//
//   - geo: the paper's nearest-server rule (baseline);
//   - similar: each server gets one cluster of look-alike clients —
//     maximally biased server models that lean hard on the exchange;
//   - stratified: every server gets a slice of every cluster — server
//     models start unbiased, at the price of cross-region client links.
type ClusteringStudy struct {
	Target  float64
	Results []*ClusteringRow
}

// ClusteringRow is one placement's outcome.
type ClusteringRow struct {
	Assignment   Assignment
	TimeToTarget float64 // 0 = not reached
	FinalAcc     float64
	BytesTotal   int
}

// RunClusteringStudy runs Spyker under the three placements.
func RunClusteringStudy(scale float64, seed int64) (*ClusteringStudy, error) {
	const target = 0.92
	study := &ClusteringStudy{Target: target}
	setup := baseSetup(population(100, scale, 8), seed)
	setup.TargetAcc = target
	setup.Horizon = 120
	var w sweep
	for _, a := range []Assignment{AssignGeo, AssignSimilar, AssignStratified} {
		setup.Assignment = a
		res := w.run("spyker", setup, nil)
		study.Results = append(study.Results, &ClusteringRow{
			Assignment:   a,
			TimeToTarget: timeTo(res.Trace, target),
			FinalAcc:     res.Trace.BestAcc(),
			BytesTotal:   res.BytesClientServer + res.BytesServerServer,
		})
	}
	return study, w.err
}

// Render prints the comparison.
func (c *ClusteringStudy) Render() string {
	t := titled(fmt.Sprintf("=== clustering extension (paper Sec. 7 future work), target %.0f%%%% ===\n", 100*c.Target),
		col{"placement", -12, ""}, col{"t(target)", 12, ""}, col{"best acc", 10, "%"}, col{"total MB", 12, "MB"})
	for _, r := range c.Results {
		t.row(r.Assignment.String(), timeCell(r.TimeToTarget), fixed(100*r.FinalAcc, 1), fixed(mb(r.BytesTotal), 1))
	}
	return t.b.String() + "\nstratified placement trades cross-region client latency for unbiased\n" +
		"server models; similar placement maximizes per-server bias.\n"
}
