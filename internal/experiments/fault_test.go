package experiments

import (
	"strings"
	"testing"

	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/obs/health"
)

// TestFaultPlumbingDoesNotPerturbSimulation is the zero-cost-when-disarmed
// regression test: arming the fault machinery with an EMPTY plan — which
// flips every defensive path (per-server submit epochs, unpooled owned
// copies, client update copying) without injecting a single fault — must
// produce an experiment trace byte-identical to a plain nil-Faults run.
// Failure injection is opt-in; merely wiring it may never change results.
func TestFaultPlumbingDoesNotPerturbSimulation(t *testing.T) {
	setup := Setup{
		Task: TaskMNIST, NumServers: 2, NumClients: 8,
		NonIIDLabels: 2, Seed: 42, MaxUpdates: 300, Horizon: 60,
	}
	plain, err := Run("spyker", setup)
	if err != nil {
		t.Fatal(err)
	}

	armed := setup
	armed.Faults = &fault.Plan{}
	faulty, err := Run("spyker", armed)
	if err != nil {
		t.Fatal(err)
	}

	if len(plain.Trace) != len(faulty.Trace) {
		t.Fatalf("trace lengths differ: %d plain vs %d armed", len(plain.Trace), len(faulty.Trace))
	}
	for i := range plain.Trace {
		if plain.Trace[i] != faulty.Trace[i] {
			t.Fatalf("trace point %d differs with empty fault plan armed: %+v vs %+v",
				i, plain.Trace[i], faulty.Trace[i])
		}
	}
	if plain.FinalTime != faulty.FinalTime || plain.Updates != faulty.Updates {
		t.Errorf("run outcome differs: %.6f/%d plain vs %.6f/%d armed",
			plain.FinalTime, plain.Updates, faulty.FinalTime, faulty.Updates)
	}
	if plain.BytesClientServer != faulty.BytesClientServer ||
		plain.BytesServerServer != faulty.BytesServerServer {
		t.Error("byte accounting differs with empty fault plan armed")
	}
}

// TestRunRejectsFaultsOnUnsupportedAlgorithm: only algorithms implementing
// fault.Cluster accept a fault plan; everything else must fail loudly
// rather than silently running fault-free.
func TestRunRejectsFaultsOnUnsupportedAlgorithm(t *testing.T) {
	setup := Setup{
		Task: TaskMNIST, NumServers: 2, NumClients: 8,
		Seed: 1, MaxUpdates: 10, Horizon: 5,
	}
	setup.Faults = &fault.Plan{}
	if _, err := Run("fedavg", setup); err == nil {
		t.Fatal("Run accepted a fault plan for an algorithm without injection support")
	}
}

// TestFailoverRunHealthReport pins the health plane's verdict on one row
// of the failover study (two token-holder crashes, the study's recovery
// deployment and tracer) byte for byte: health.Run over the run's trace,
// with nothing configured, is what `spyker-trace -mode health` prints.
// testdata/golden/health-report.txt was recorded on e1f27cf, when the
// rules' thresholds were still Config fields left at their defaults, so
// it proves that each constant equals the default it replaced.
func TestFailoverRunHealthReport(t *testing.T) {
	const horizon, downtime = 60.0, 10.0
	plan := fault.CrashPlan(1, 2, horizon, downtime)
	setup, _ := recoverySetup(10, 4, 1, horizon, &plan)
	if _, err := Run("spyker", setup); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := health.Run(setup.Trace.(*obs.Tracer).Events(), health.Config{}).WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	golden(t, "health-report", b.String())
}
