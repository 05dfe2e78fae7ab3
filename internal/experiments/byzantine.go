package experiments

import (
	"fmt"
	"strings"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/obs/audit"
	"github.com/spyker-fl/spyker/internal/spyker"
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
	Name     string
	FinalAcc float64
	BestAcc  float64

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
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	clients := int(100 * scale)
	if clients < 10 {
		clients = 10
	}
	const fraction = 0.2
	const detectionWindow = 5 // see ByzantineStudy.DetectionWindow
	study := &ByzantineStudy{MaliciousFraction: fraction, DetectionWindow: detectionWindow}

	run := func(name string, attack fl.Byzantine, clip float64) error {
		hyper := fl.DefaultHyper(clients, 4)
		hyper.RobustClipFactor = clip
		collector := &auditCollector{}
		setup := Setup{
			Task:         TaskMNIST,
			NumServers:   4,
			NumClients:   clients,
			NonIIDLabels: 2,
			Seed:         seed,
			Horizon:      45,
			EvalEvery:    100,
			Hyper:        &hyper,
			Trace:        collector,
			Audit:        &audit.Config{},
		}
		truth := map[int]bool{}
		_, rec, _, err := runOn(&spyker.Algorithm{}, setup, func(env *fl.Env) {
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
		})
		if err != nil {
			return err
		}

		row := ByzantineRow{
			Name:      name,
			FinalAcc:  rec.TraceData.Final().Acc,
			BestAcc:   rec.TraceData.BestAcc(),
			Attackers: len(truth),
		}
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
		return nil
	}

	if err := run("honest reference", fl.ByzantineNone, 0); err != nil {
		return nil, err
	}
	if err := run("sign-flip, undefended", fl.ByzantineSignFlip, 0); err != nil {
		return nil, err
	}
	if err := run("sign-flip, norm clip x1.2", fl.ByzantineSignFlip, 1.2); err != nil {
		return nil, err
	}
	if err := run("noise, undefended", fl.ByzantineNoise, 0); err != nil {
		return nil, err
	}
	if err := run("noise, norm clip x1.2", fl.ByzantineNoise, 1.2); err != nil {
		return nil, err
	}
	if err := run("scaled noise, undefended", fl.ByzantineScaledNoise, 0); err != nil {
		return nil, err
	}
	if err := run("scaled noise, norm clip x1.2", fl.ByzantineScaledNoise, 1.2); err != nil {
		return nil, err
	}
	if err := run("collusion, undefended", fl.ByzantineCollude, 0); err != nil {
		return nil, err
	}
	if err := run("collusion, norm clip x1.2", fl.ByzantineCollude, 1.2); err != nil {
		return nil, err
	}
	return study, nil
}

// Render prints the comparison.
func (b *ByzantineStudy) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "=== Byzantine extension: %.0f%%%% malicious clients (Spyker) ===\n",
		100*b.MaliciousFraction)
	fmt.Fprintf(&sb, "detection columns: flags standing at the t=%gs deadline\n",
		b.DetectionWindow)
	fmt.Fprintf(&sb, "%-28s %10s %10s %9s %8s %10s %8s %8s\n",
		"configuration", "final acc", "best acc", "attackers", "flagged", "precision", "recall", "ttff")
	for _, r := range b.Rows {
		prec, rec, ttff := "-", "-", "-"
		if r.Flagged > 0 {
			prec = fmt.Sprintf("%.2f", r.Precision)
		}
		if r.Attackers > 0 {
			rec = fmt.Sprintf("%.2f", r.Recall)
		}
		if r.TruePos > 0 {
			ttff = fmt.Sprintf("%.1fs", r.MeanTTFF)
		}
		fmt.Fprintf(&sb, "%-28s %9.1f%% %9.1f%% %9d %8d %10s %8s %8s\n",
			r.Name, 100*r.FinalAcc, 100*r.BestAcc, r.Attackers, r.Flagged, prec, rec, ttff)
	}
	sb.WriteString("\nnorm clipping bounds each update's influence, containing poisoning\n" +
		"that collapses the undefended run; the audit plane (internal/obs/audit)\n" +
		"independently flags the attackers from their update statistics while\n" +
		"the model is still intact (ttff = mean time to an attacker's first flag).\n")
	return sb.String()
}
