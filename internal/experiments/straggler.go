package experiments

import (
	"fmt"
	"strings"

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
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	clients := int(100 * scale)
	if clients < 12 {
		clients = 12
	}
	const (
		target = 0.92
		factor = 20.0
	)
	study := &StragglerStudy{SlowFactor: factor}
	for _, name := range []string{"spyker", "sync-spyker", "hierfavg"} {
		row := StragglerRow{}
		for _, slow := range []bool{false, true} {
			setup := Setup{
				Task:         TaskMNIST,
				NumServers:   4,
				NumClients:   clients,
				NonIIDLabels: 2,
				Seed:         seed,
				TargetAcc:    target,
				Horizon:      240,
			}
			alg, err := NewAlgorithm(name)
			if err != nil {
				return nil, err
			}
			_, rec, _, err := runOn(alg, setup, func(env *fl.Env) {
				if slow {
					env.ServerProcMult = []float64{factor, 1, 1, 1}
				}
			})
			if err != nil {
				return nil, err
			}
			row.Algorithm = alg.Name()
			tt, ok := rec.TraceData.TimeToAcc(target)
			if !ok {
				tt = 0
			}
			if slow {
				row.StraggledTime = tt
			} else {
				row.HealthyTime = tt
			}
		}
		study.Rows = append(study.Rows, row)
	}
	return study, nil
}

// Render prints the study.
func (s *StragglerStudy) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== straggler server extension: server 0 processing x%.0f slower ===\n", s.SlowFactor)
	fmt.Fprintf(&b, "%-14s %12s %14s %10s\n", "algorithm", "healthy", "straggled", "slowdown")
	for _, r := range s.Rows {
		h, st := "(n/r)", "(n/r)"
		if r.HealthyTime > 0 {
			h = fmt.Sprintf("%.2fs", r.HealthyTime)
		}
		if r.StraggledTime > 0 {
			st = fmt.Sprintf("%.2fs", r.StraggledTime)
		}
		sd := "-"
		if v := r.Slowdown(); v > 0 {
			sd = fmt.Sprintf("%.2fx", v)
		}
		fmt.Fprintf(&b, "%-14s %12s %14s %10s\n", r.Algorithm, h, st, sd)
	}
	b.WriteString("\nexpected: Spyker degrades least (only the straggler's own clients slow\n" +
		"down); synchronous coordination spreads the damage to everyone.\n")
	return b.String()
}
