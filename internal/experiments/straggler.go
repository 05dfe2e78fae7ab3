package experiments

import (
	"fmt"

	"github.com/spyker-fl/spyker/internal/fl"
)

// StragglerStudy puts one slow machine under one of the four servers
// (processing delays x20) and measures how much each multi-server
// protocol suffers — the sharpest test of the paper's claim that Spyker's
// servers "never postpone interactions with clients": the asynchronous
// exchange lets the healthy servers run at full speed, while synchronous
// coordination (Sync-Spyker's exchange barrier, HierFAVG's cloud round)
// drags everyone down to the straggler's pace.
type StragglerStudy struct {
	SlowFactor float64
	Rows       []StragglerRow
}

// StragglerRow compares one algorithm's healthy and straggled runs.
type StragglerRow struct {
	Algorithm     string
	HealthyTime   float64 // time to target with uniform hardware (0 = n/r)
	StraggledTime float64 // time to target with server 0 slowed (0 = n/r)
}

// Slowdown returns StraggledTime/HealthyTime, or 0 when either run missed
// the target.
func (r StragglerRow) Slowdown() float64 {
	if r.HealthyTime <= 0 || r.StraggledTime <= 0 {
		return 0
	}
	return r.StraggledTime / r.HealthyTime
}

// RunStragglerStudy compares Spyker, Sync-Spyker and HierFAVG with and
// without a 20x-slow server 0.
func RunStragglerStudy(scale float64, seed int64) (*StragglerStudy, error) {
	const (
		target = 0.92
		factor = 20.0
	)
	setup := baseSetup(population(100, scale, 12), seed)
	setup.TargetAcc = target
	setup.Horizon = 240
	study := &StragglerStudy{SlowFactor: factor}
	var w sweep
	for _, name := range []string{"spyker", "sync-spyker", "hierfavg"} {
		row := StragglerRow{}
		for _, slow := range []bool{false, true} {
			res := w.run(name, setup, func(env *fl.Env) {
				if slow {
					env.ServerProcMult = []float64{factor, 1, 1, 1}
				}
			})
			row.Algorithm = res.Algorithm
			if tt := timeTo(res.Trace, target); slow {
				row.StraggledTime = tt
			} else {
				row.HealthyTime = tt
			}
		}
		study.Rows = append(study.Rows, row)
	}
	return study, w.err
}

// Render prints the study.
func (s *StragglerStudy) Render() string {
	t := titled(fmt.Sprintf("=== straggler server extension: server 0 processing x%.0f slower ===\n", s.SlowFactor),
		col{"algorithm", -14, ""}, col{"healthy", 12, ""}, col{"straggled", 14, ""}, col{"slowdown", 10, ""})
	for _, r := range s.Rows {
		t.row(r.Algorithm, timeCell(r.HealthyTime), timeCell(r.StraggledTime),
			orDash(r.Slowdown() > 0, fixed(r.Slowdown(), 2)+"x"))
	}
	return t.b.String() + "\nexpected: Spyker degrades least (only the straggler's own clients slow\n" +
		"down); synchronous coordination spreads the damage to everyone.\n"
}
