package experiments

import "testing"

// TestDecayProbe is a manual calibration probe for the Fig. 11 ablation.
// Run with: go test ./internal/experiments -run TestDecayProbe -v -decayprobe
func TestDecayProbe(t *testing.T) {
	if !probeFlag {
		t.Skip("calibration probe; enable with -decayprobe")
	}
	setup := Setup{
		Task:            TaskMNIST,
		NumServers:      4,
		NumClients:      32,
		NonIIDLabels:    2,
		CorrelatedSpeed: true,
		Seed:            3,
		Horizon:         50,
		MaxUpdates:      15000,
		EvalEvery:       200,
	}
	for _, name := range []string{"spyker", "spyker-nodecay"} {
		res, err := Run(name, setup)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("-- %s --", res.Algorithm)
		for _, p := range thinTrace(res.Trace, 20) {
			t.Logf("t=%7.2f upd=%6d acc=%5.1f%%", p.Time, p.Updates, 100*p.Acc)
		}
		t.Logf("best=%5.1f%%", 100*res.Trace.BestAcc())
	}
}
