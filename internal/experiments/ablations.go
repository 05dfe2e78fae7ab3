package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/spyker-fl/spyker/internal/fl"
)

// Ablations sweeps the Spyker design knobs the paper calls out in
// Sec. 4 — the synchronization triggers (h_inter, h_intra), the
// server-aggregation rate eta_a, and the sigmoid activation rate phi —
// and reports how each setting trades convergence time against
// server-server bandwidth. This goes beyond the paper's evaluation, which
// fixes these at the Tab. 2 values.
type Ablations struct {
	Target float64
	HInter []AblationPoint
	EtaA   []AblationPoint
	Phi    []AblationPoint
}

// AblationPoint is one sweep setting and its outcome.
type AblationPoint struct {
	Value        float64
	TimeToTarget float64 // 0 = not reached
	Updates      int
	ServerBytes  int // server-server traffic, the cost of synchronizing
}

// RunAblations executes all three sweeps on the MNIST task.
func RunAblations(scale float64, seed int64) (*Ablations, error) {
	clients := population(100, scale, 8)
	const target = 0.92
	a := &Ablations{Target: target}
	base := fl.DefaultHyper(clients, 4)

	// vary runs Spyker once per value, with set writing the value into
	// the otherwise default hyper-parameters.
	var w sweep
	vary := func(values []float64, set func(h *fl.Hyper, v float64)) []AblationPoint {
		var points []AblationPoint
		for _, v := range values {
			hyper := base
			set(&hyper, v)
			setup := baseSetup(clients, seed)
			setup.TargetAcc = target
			setup.Horizon = 120
			setup.Hyper = &hyper
			res := w.run("spyker", setup, nil)
			upd, _ := res.Trace.UpdatesToAcc(target)
			points = append(points, AblationPoint{
				Value:        v,
				TimeToTarget: timeTo(res.Trace, target),
				Updates:      upd,
				ServerBytes:  res.BytesServerServer,
			})
		}
		return points
	}
	a.HInter = vary([]float64{base.HInter / 4, base.HInter, base.HInter * 4, base.HInter * 16},
		func(h *fl.Hyper, v float64) { h.HInter = v })
	a.EtaA = vary([]float64{0.15, 0.3, 0.6, 0.9}, func(h *fl.Hyper, v float64) { h.EtaA = v })
	a.Phi = vary([]float64{0.5, 1.5, 3, 6}, func(h *fl.Hyper, v float64) { h.Phi = v })
	return a, w.err
}

// Render prints the three sweep tables.
func (a *Ablations) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Spyker design-knob ablations (target %.0f%% accuracy) ===\n", 100*a.Target)
	render := func(name string, pts []AblationPoint) {
		fmt.Fprintf(&b, "\n-- %s sweep --\n", name)
		t := newTable(&b, col{name, 10, ""}, col{"t(target)", 12, ""}, col{"updates", 10, ""}, col{"srv-srv bytes", 14, "MB"})
		for _, p := range pts {
			t.row(fixed(p.Value, 3), timeCell(p.TimeToTarget), strconv.Itoa(p.Updates), fixed(mb(p.ServerBytes), 2))
		}
	}
	render("h_inter", a.HInter)
	render("eta_a", a.EtaA)
	render("phi", a.Phi)
	b.WriteString("\nexpected: small h_inter = frequent syncs = more server-server bytes;\n" +
		"too-large eta_a or too-small h_inter can slow convergence (paper Sec. 4.3).\n")
	return b.String()
}
