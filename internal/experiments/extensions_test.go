package experiments

import (
	"strings"
	"testing"
)

func TestServerScalingStudyShape(t *testing.T) {
	s, err := RunServerScalingStudy(0.2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 4 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	// More servers must produce more server-server traffic, and a single
	// server none at all.
	if s.Rows[0].ServerServerBytes != 0 {
		t.Errorf("1-server deployment produced %d server bytes", s.Rows[0].ServerServerBytes)
	}
	for i := 1; i < len(s.Rows); i++ {
		if s.Rows[i].ServerServerBytes <= s.Rows[i-1].ServerServerBytes {
			t.Errorf("server-server bytes not increasing: %d then %d",
				s.Rows[i-1].ServerServerBytes, s.Rows[i].ServerServerBytes)
		}
	}
	// The headline: multi-server deployments reach the target faster than
	// the single geo-handicapped server.
	single := s.Rows[0].TimeToTarget
	multi := s.Rows[2].TimeToTarget // 4 servers
	if single > 0 && multi > 0 && multi >= single {
		t.Errorf("4 servers (%.2fs) not faster than 1 server (%.2fs)", multi, single)
	}
	golden(t, "serverscaling", s.Render())
	if !strings.Contains(s.Render(), "servers") {
		t.Error("render incomplete")
	}
}

func TestSpreadClientRegionsNearestAssignment(t *testing.T) {
	env, _, err := BuildEnv(Setup{
		Task:                TaskMNIST,
		NumServers:          4,
		NumClients:          16,
		SpreadClientRegions: true,
		Seed:                2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With one server per region, every client must be served in-region.
	for _, c := range env.Clients {
		if env.Servers[c.Server].Region != c.Region {
			t.Errorf("client %d in %v assigned to server in %v",
				c.ID, c.Region, env.Servers[c.Server].Region)
		}
	}
}

func TestByzantineStudyShape(t *testing.T) {
	s, err := RunByzantineStudy(0.12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 9 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	byName := map[string]ByzantineRow{}
	for _, r := range s.Rows {
		byName[r.Name] = r
	}
	honest := byName["honest reference"]
	if honest.BestAcc < 0.6 {
		t.Fatalf("honest reference only reached %.2f", honest.BestAcc)
	}
	// The defense must recover a meaningful share of what the attack
	// destroys (tiny populations are noisy, so require improvement, not
	// parity).
	if def, att := byName["noise, norm clip x1.2"], byName["noise, undefended"]; def.FinalAcc <= att.FinalAcc {
		t.Errorf("noise defense %.2f not better than undefended %.2f", def.FinalAcc, att.FinalAcc)
	}
	for _, name := range []string{"scaled noise, undefended", "scaled noise, norm clip x1.2",
		"collusion, undefended", "collusion, norm clip x1.2"} {
		if _, ok := byName[name]; !ok {
			t.Errorf("missing row %q", name)
		}
	}
	golden(t, "byzantine", s.Render())
	if !strings.Contains(s.Render(), "Byzantine") {
		t.Error("render incomplete")
	}
}

func TestStragglerStudyShape(t *testing.T) {
	s, err := RunStragglerStudy(0.12, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Rows) != 3 {
		t.Fatalf("rows = %d", len(s.Rows))
	}
	var spyker, hier StragglerRow
	for _, r := range s.Rows {
		switch r.Algorithm {
		case "Spyker":
			spyker = r
		case "HierFAVG":
			hier = r
		}
	}
	if spyker.Slowdown() == 0 {
		t.Fatal("Spyker runs did not reach the target")
	}
	// The headline: asynchronous Spyker suffers (much) less from the
	// straggler than the synchronous hierarchy.
	if hier.Slowdown() > 0 && spyker.Slowdown() >= hier.Slowdown() {
		t.Errorf("Spyker slowdown %.2f >= HierFAVG %.2f", spyker.Slowdown(), hier.Slowdown())
	}
	golden(t, "straggler", s.Render())
	if !strings.Contains(s.Render(), "straggler") {
		t.Error("render incomplete")
	}
}

func TestProcForMultiplier(t *testing.T) {
	env, _, err := BuildEnv(Setup{Task: TaskMNIST, NumServers: 2, NumClients: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := env.ProcFor(0, 0.002); got != 0.002 {
		t.Errorf("default multiplier changed delay: %v", got)
	}
	env.ServerProcMult = []float64{10, 0}
	if got := env.ProcFor(0, 0.002); got != 0.02 {
		t.Errorf("x10 multiplier = %v", got)
	}
	// Zero multiplier means "unset" and keeps the baseline.
	if got := env.ProcFor(1, 0.002); got != 0.002 {
		t.Errorf("zero multiplier = %v", got)
	}
	// Out-of-range server keeps the baseline.
	if got := env.ProcFor(5, 0.002); got != 0.002 {
		t.Errorf("out-of-range = %v", got)
	}
}
