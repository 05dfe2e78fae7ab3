package experiments

import (
	"strings"
	"testing"
)

func TestChurnStudyRecovers(t *testing.T) {
	c, err := RunChurnStudy(0.12, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Both systems must keep making progress while a third of the clients
	// are away, and must not crash on the stale updates when they rejoin.
	for _, r := range []*Result{c.Spyker, c.FedAsync} {
		final := r.Trace.Final().Acc
		if final < 0.60 {
			t.Errorf("%s final accuracy %.2f after churn", r.Algorithm, final)
		}
		if dip := c.AccuracyDip(r); dip > 0.30 {
			t.Errorf("%s dipped %.2f after churn onset", r.Algorithm, dip)
		}
	}
	golden(t, "churn", c.Render())
	if !strings.Contains(c.Render(), "churn") {
		t.Error("render incomplete")
	}
}

// TestChurnedClientsPauseAndResume verifies the mechanism directly: a
// churned client contributes strictly fewer updates than its always-on
// twin, but contributes again after the window.
func TestChurnedClientsPauseAndResume(t *testing.T) {
	setup := Setup{
		Task:          TaskMNIST,
		NumServers:    2,
		NumClients:    8,
		ChurnFraction: 0.25, // stride 4: clients 0 and 4 churn
		ChurnFrom:     2,
		ChurnUntil:    6,
		Seed:          3,
		Horizon:       10,
		EvalEvery:     1000,
	}
	res, err := Run("spyker", setup)
	if err != nil {
		t.Fatal(err)
	}
	churned := res.ClientUpdateCounts[0]
	steady := res.ClientUpdateCounts[1]
	if churned >= steady {
		t.Errorf("churned client sent %v updates, steady twin %v", churned, steady)
	}
	if churned == 0 {
		t.Error("churned client never contributed at all (should resume)")
	}
	// With 4s of a 10s horizon offline, the churned client should have
	// roughly 60% of the steady client's updates.
	if churned < steady*0.3 {
		t.Errorf("churned client only sent %v of %v updates", churned, steady)
	}
}

func TestAblationsStructure(t *testing.T) {
	a, err := RunAblations(0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.HInter) != 4 || len(a.EtaA) != 4 || len(a.Phi) != 4 {
		t.Fatalf("sweep sizes: %d %d %d", len(a.HInter), len(a.EtaA), len(a.Phi))
	}
	// Frequent synchronization (small h_inter) must cost at least as much
	// server-server bandwidth as rare synchronization.
	if a.HInter[0].ServerBytes < a.HInter[len(a.HInter)-1].ServerBytes {
		t.Errorf("h_inter sweep bandwidth not monotone-ish: %d < %d",
			a.HInter[0].ServerBytes, a.HInter[len(a.HInter)-1].ServerBytes)
	}
	golden(t, "ablations", a.Render())
	if !strings.Contains(a.Render(), "h_inter sweep") {
		t.Error("render incomplete")
	}
}
