package experiments

import (
	"fmt"
	"strconv"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/obs/audit"
)

// ByzantineStudy exercises the "Byzantine Learning" keyword the paper
// lists but never evaluates: a fraction of the clients poison the
// training with sign-flipped (reversed, amplified) updates, and Spyker's
// norm-clipping defense (spyker.Config.RobustClipFactor) is compared
// against the undefended protocol and an all-honest reference. Every
// run also arms the contribution audit plane (internal/obs/audit), so
// the table doubles as a detection-quality study: precision, recall,
// and time-to-first-flag against the known attacker set.
type ByzantineStudy struct {
	MaliciousFraction float64

	// DetectionWindow is the virtual-time deadline at which the
	// detection columns are scored: a client counts as flagged iff an
	// audit verdict is STANDING (raised, not since cleared) at this
	// instant — exactly what an operator's dashboard shows. The audit
	// plane is passive, so an undefended attack compounds until the
	// model degenerates, after which every honest client's gradients
	// explode heterogeneously and cross-client baselines stop meaning
	// anything — flags in that regime measure the wreckage, not the
	// detector. Every attacker variant's flags stand well before the
	// deadline (first raises at t≈1.7-4.6 here), while honest reactive
	// blow-ups are transient raises the hysteresis clears.
	DetectionWindow float64

	Rows []ByzantineRow
}

// ByzantineRow is one configuration's outcome.
type ByzantineRow struct {
	Name string
	SpykerRun

	// Detection quality of the audit plane on this run: Attackers is the
	// ground-truth malicious population, Flagged how many clients had a
	// verdict standing at the detection deadline, TruePos their
	// intersection. Precision and Recall follow; MeanTTFF is the mean
	// virtual time from run start to a true positive's first flag.
	Attackers int
	Flagged   int
	TruePos   int
	Precision float64
	Recall    float64
	MeanTTFF  float64
}

// auditCollector is a passive sink that keeps only the audit verdict
// events of a run — the study replays them against ground truth. A
// plain slice (instead of obs.Tracer's ring) cannot drop verdicts on
// long runs.
type auditCollector struct {
	events []obs.Event
}

func (c *auditCollector) Enabled() bool { return true }

func (c *auditCollector) Emit(e obs.Event) {
	if e.Kind == obs.KindAudit {
		c.events = append(c.events, e)
	}
}

// RunByzantineStudy runs the attack configurations on non-IID MNIST.
func RunByzantineStudy(scale float64, seed int64) (*ByzantineStudy, error) {
	clients := population(100, scale, 10)
	const fraction = 0.2
	const detectionWindow = 5 // see ByzantineStudy.DetectionWindow
	study := &ByzantineStudy{MaliciousFraction: fraction, DetectionWindow: detectionWindow}

	var w sweep
	run := func(name string, attack fl.Byzantine, clip float64) {
		hyper := fl.DefaultHyper(clients, 4)
		hyper.RobustClipFactor = clip
		collector := &auditCollector{}
		setup := baseSetup(clients, seed)
		setup.Horizon = 45
		setup.EvalEvery = 100
		setup.Hyper = &hyper
		setup.Trace = collector
		setup.Audit = true
		truth := map[int]bool{}
		row := ByzantineRow{Name: name, SpykerRun: w.spyker(setup, func(env *fl.Env) {
			if attack == fl.ByzantineNone {
				return
			}
			stride := int(1 / fraction)
			for ci := range env.Clients {
				if ci%stride == 0 {
					env.Clients[ci].Byzantine = attack
					truth[ci] = true
				}
			}
		})}
		row.Attackers = len(truth)
		// Score detection at the deadline: replay the verdicts up to the
		// window and count the clients whose flags are still standing —
		// the dashboard view at the instant the model is still worth
		// defending.
		var windowed []obs.Event
		for _, e := range collector.events {
			if e.Time <= detectionWindow {
				windowed = append(windowed, e)
			}
		}
		rep := audit.Replay(windowed)
		var ttff float64
		for i := range rep.Clients {
			c := &rep.Clients[i]
			if len(c.Active) == 0 {
				continue // transient raise, cleared before the deadline
			}
			row.Flagged++
			if truth[c.Client] {
				row.TruePos++
				ttff += c.FirstFlag
			}
		}
		if row.Flagged > 0 {
			row.Precision = float64(row.TruePos) / float64(row.Flagged)
		}
		if row.Attackers > 0 {
			row.Recall = float64(row.TruePos) / float64(row.Attackers)
		}
		if row.TruePos > 0 {
			row.MeanTTFF = ttff / float64(row.TruePos)
		}
		study.Rows = append(study.Rows, row)
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
	t := titled(fmt.Sprintf("=== Byzantine extension: %.0f%%%% malicious clients (Spyker) ===\n"+
		"detection columns: flags standing at the t=%gs deadline\n", 100*b.MaliciousFraction, b.DetectionWindow),
		col{"configuration", -28, ""}, col{"final acc", 10, "%"}, col{"best acc", 10, "%"},
		col{"attackers", 9, ""}, col{"flagged", 8, ""}, col{"precision", 10, ""}, col{"recall", 8, ""}, col{"ttff", 8, ""})
	for _, r := range b.Rows {
		t.row(r.Name, fixed(100*r.FinalAcc, 1), fixed(100*r.BestAcc, 1), strconv.Itoa(r.Attackers), strconv.Itoa(r.Flagged),
			orDash(r.Flagged > 0, fixed(r.Precision, 2)), orDash(r.Attackers > 0, fixed(r.Recall, 2)),
			orDash(r.TruePos > 0, fixed(r.MeanTTFF, 1)+"s"))
	}
	return t.b.String() + "\nnorm clipping bounds each update's influence, containing poisoning\n" +
		"that collapses the undefended run; the audit plane (internal/obs/audit)\n" +
		"independently flags the attackers from their update statistics while\n" +
		"the model is still intact (ttff = mean time to an attacker's first flag).\n"
}
