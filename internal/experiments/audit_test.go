package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/obs/audit"
)

// auditSetup is the small DES deployment the audit tests share: 12
// clients per server, so the stride-5 attacker placement used below
// co-locates colluders on the same server (pairwise similarity is a
// per-server statistic).
//
// The horizon matters for the attack runs: the audit plane is passive,
// so an unmitigated attack compounds for the whole run, and once the
// model degenerates (around t≈13 for noise-style attacks at this
// scale, t≈22 for collusion) every honest client's gradients explode
// heterogeneously and cross-client magnitude baselines stop meaning
// anything. Detection quality is therefore measured over a window in
// which there is still a model to defend — every attacker of every
// variant flags by t≤9, so horizon 12 keeps a margin on both sides —
// while the attack-free zero-false-positive guard runs 2.5x longer.
func auditSetup(seed int64, horizon float64) Setup {
	return Setup{
		Task: TaskMNIST, NumServers: 2, NumClients: 24,
		NonIIDLabels: 2, Seed: seed, Horizon: horizon, EvalEvery: 100,
	}
}

// runAudited builds the setup, marks every fifth client with the attack
// (none for ByzantineNone), runs it with the audit plane armed, and
// returns the verdict stream plus the ground-truth attacker set.
func runAudited(t *testing.T, setup Setup, attack fl.Byzantine) ([]obs.Event, map[int]bool) {
	t.Helper()
	collector := &auditCollector{}
	setup.Trace = collector
	setup.Audit = true
	env, _, err := BuildEnv(setup)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[int]bool{}
	if attack != fl.ByzantineNone {
		for ci := range env.Clients {
			if ci%5 == 0 {
				env.Clients[ci].Byzantine = attack
				truth[ci] = true
			}
		}
	}
	alg, err := NewAlgorithm("spyker")
	if err != nil {
		t.Fatal(err)
	}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	env.Sim.Run(setup.Horizon)
	return collector.events, truth
}

// TestAuditDoesNotPerturbSimulation is the audit plane's passivity
// regression test (referenced by Setup.Audit's doc): arming per-client
// contribution auditing on every server must leave the experiment trace
// byte-identical to an unaudited run. The recorder only observes merged
// deltas; it never feeds back into the schedule or the models.
func TestAuditDoesNotPerturbSimulation(t *testing.T) {
	setup := Setup{
		Task: TaskMNIST, NumServers: 2, NumClients: 8,
		NonIIDLabels: 2, Seed: 42, MaxUpdates: 300, Horizon: 60,
	}
	plain, err := Run("spyker", setup)
	if err != nil {
		t.Fatal(err)
	}
	audited := setup
	audited.Audit = true
	armed, err := Run("spyker", audited)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Trace) != len(armed.Trace) {
		t.Fatalf("trace lengths differ: %d plain vs %d audited", len(plain.Trace), len(armed.Trace))
	}
	for i := range plain.Trace {
		if plain.Trace[i] != armed.Trace[i] {
			t.Fatalf("trace point %d differs with audit armed: %+v vs %+v",
				i, plain.Trace[i], armed.Trace[i])
		}
	}
	if plain.FinalTime != armed.FinalTime || plain.Updates != armed.Updates {
		t.Errorf("run outcome differs: %.6f/%d plain vs %.6f/%d audited",
			plain.FinalTime, plain.Updates, armed.FinalTime, armed.Updates)
	}
	if plain.BytesClientServer != armed.BytesClientServer ||
		plain.BytesServerServer != armed.BytesServerServer {
		t.Error("byte accounting differs with audit armed")
	}
}

// TestAuditDetectsByzantineVariants runs each attack of the Byzantine
// extension through the full DES stack and demands that, at the
// detection horizon, every attacker's flag is standing and no honest
// client's is — the dashboard view an operator would act on. (Honest
// clients reacting to a poisoned model can earn a transient raise that
// the hysteresis clears within a few updates; a standing flag is the
// conviction.) Collusion must be caught by the pairwise-similarity
// rule specifically — the colluders' norms are calibrated to honest
// scale, so nothing else should see them.
func TestAuditDetectsByzantineVariants(t *testing.T) {
	cases := []struct {
		name     string
		attack   fl.Byzantine
		mustRule string // "" = any rule suffices
	}{
		{"sign-flip", fl.ByzantineSignFlip, ""},
		{"noise", fl.ByzantineNoise, ""},
		{"scaled-noise", fl.ByzantineScaledNoise, ""},
		{"collude", fl.ByzantineCollude, audit.RuleCollusion},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			events, truth := runAudited(t, auditSetup(42, 12), tc.attack)
			rep := audit.Replay(events)
			flagged := map[int]bool{}
			for i := range rep.Clients {
				if len(rep.Clients[i].Active) > 0 {
					flagged[rep.Clients[i].Client] = true
				}
			}
			for ci := range truth {
				if !flagged[ci] {
					t.Errorf("attacker %d never flagged", ci)
				}
			}
			for ci := range flagged {
				if !truth[ci] {
					t.Errorf("honest client %d falsely flagged", ci)
				}
			}
			if tc.mustRule != "" {
				for i := range rep.Clients {
					c := &rep.Clients[i]
					if truth[c.Client] && c.Raises[tc.mustRule] == 0 {
						t.Errorf("attacker %d flagged without the %s rule: raises %v",
							c.Client, tc.mustRule, c.Raises)
					}
				}
			}
			if len(rep.Clients) > 0 {
				if ff, ok := rep.FirstFlagTime(rep.Clients[0].Client); !ok || ff <= 0 {
					t.Errorf("bad first-flag time %v %v", ff, ok)
				}
			}
			t.Logf("%s: %d attackers, flagged %v", tc.name, len(truth), rep.FlaggedClients())
		})
	}
}

// TestAuditCleanRunZeroFalsePositives is the precision floor: an
// attack-free run over the same non-IID deployment must produce no
// audit verdicts at all. Honest geo-distributed clients with disjoint
// label shards are exactly the population the robust statistics must
// not confuse with attackers.
func TestAuditCleanRunZeroFalsePositives(t *testing.T) {
	events, _ := runAudited(t, auditSetup(42, 30), fl.ByzantineNone)
	if len(events) != 0 {
		t.Fatalf("attack-free run emitted %d audit verdicts: first %+v", len(events), events[0])
	}
}

// TestAuditEventDeterminism: two identical attacked runs must emit
// byte-identical verdict streams — the audit plane sits in the
// deterministic layer (spyker-lint's DeterministicPkgs) and its scores
// are pure functions of the update sequence. The stream is also pinned
// across commits: testdata/golden/audit-report.txt is its offline report
// (what `spyker-trace -mode audit` prints) as recorded on e1f27cf, when
// the recorder's thresholds were still Config fields left at their
// defaults, so it proves that each constant equals the default it replaced.
func TestAuditEventDeterminism(t *testing.T) {
	a, _ := runAudited(t, auditSetup(7, 20), fl.ByzantineSignFlip)
	b, _ := runAudited(t, auditSetup(7, 20), fl.ByzantineSignFlip)
	if len(a) == 0 {
		t.Fatal("attacked run emitted no audit verdicts")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("audit verdict streams differ across identical runs: %d vs %d events", len(a), len(b))
	}
	var report strings.Builder
	if err := audit.Replay(a).WriteReport(&report); err != nil {
		t.Fatal(err)
	}
	golden(t, "audit-report", report.String())
}
