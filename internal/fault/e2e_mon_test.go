package fault_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/fault"
)

// TestE2EMonitorFailover is the cluster-monitoring acceptance scenario:
// three spyker-live server processes (each serving /debug/telemetry) and
// one spyker-mon process watching them. The harness SIGKILLs the
// token-holding server; the monitor must flip healthy -> stalled with a
// token-silence alert while the ring is stuck, and back to healthy after
// the victim restarts with -resume.
func TestE2EMonitorFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process TCP test skipped in -short mode")
	}
	dir := t.TempDir()
	liveBin := filepath.Join(dir, "spyker-live")
	monBin := filepath.Join(dir, "spyker-mon")
	for bin, pkg := range map[string]string{
		liveBin: "github.com/spyker-fl/spyker/cmd/spyker-live",
		monBin:  "github.com/spyker-fl/spyker/cmd/spyker-mon",
	} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	const n = 3
	ports := freePorts(t, 2*n) // transport + debug per server
	addrs, debugs := ports[:n], ports[n:]
	peers := strings.Join(addrs, ",")
	ckpt := func(i int) string { return filepath.Join(dir, fmt.Sprintf("s%d.json", i)) }

	procs := make([]*fault.Proc, n)
	for i := 0; i < n; i++ {
		args := []string{
			"-role", "server", "-id", fmt.Sprint(i), "-addr", addrs[i],
			"-peers", peers, "-clients", "6", "-seed", "1",
			"-checkpoint", ckpt(i), "-checkpoint-every", "150ms",
			"-token-timeout", "1.5", "-sync-retry", "0.75",
			"-reconnect-every", "200ms", "-duration", "0",
			"-debug-addr", debugs[i],
		}
		if i == 0 {
			args = append(args, "-token")
		}
		p, err := fault.StartProc(liveBin, args, filepath.Join(dir, fmt.Sprintf("s%d.log", i)))
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		defer p.Stop()
	}
	clients, err := fault.StartProc(liveBin, []string{
		"-role", "clients", "-peers", peers, "-clients", "6", "-seed", "1", "-duration", "0",
	}, filepath.Join(dir, "clients.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer clients.Stop()

	monLog := filepath.Join(dir, "mon.log")
	mon, err := fault.StartProc(monBin, []string{
		"-targets", strings.Join(debugs, ","),
		"-every", "200ms", "-token-timeout", "1.5", "-duration", "0",
	}, monLog)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Stop()

	waitLog := func(what, substr string, timeout time.Duration) string {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			log, _ := os.ReadFile(monLog)
			if strings.Contains(string(log), substr) {
				return string(log)
			}
			if time.Now().After(deadline) {
				t.Logf("monitor log:\n%s", log)
				for i := 0; i < n; i++ {
					if sl, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("s%d.log", i))); err == nil {
						t.Logf("server %d log:\n%s", i, sl)
					}
				}
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	// The ring must circulate and the monitor must see it (no transition
	// line yet — the monitor starts healthy and stays there).
	victim := -1
	deadline := time.Now().Add(60 * time.Second)
	for victim < 0 {
		for i := 0; i < n; i++ {
			if st, ok := readCkpt(ckpt(i)); ok && st.Token != nil && st.SyncsTriggered >= 2 {
				victim = i
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for a token-holding checkpoint")
		}
		time.Sleep(100 * time.Millisecond)
	}

	t.Logf("killing token-holding server process %d", victim)
	if err := procs[victim].Kill(); err != nil {
		t.Fatal(err)
	}

	// Silence threshold = 2 x 1.5s: the monitor must call the stall and
	// name the rule.
	out := waitLog("stall detection", "health: healthy -> stalled", 30*time.Second)
	if !strings.Contains(out, "token-silence") {
		t.Fatalf("stall transition does not name token-silence:\n%s", out)
	}

	t.Logf("restarting process %d with -resume", victim)
	if err := procs[victim].Restart("-resume"); err != nil {
		t.Fatal(err)
	}

	out = waitLog("recovery detection", "health: stalled -> healthy", 60*time.Second)
	stalledAt := strings.Index(out, "health: healthy -> stalled")
	healthyAt := strings.Index(out, "health: stalled -> healthy")
	if stalledAt < 0 || healthyAt < stalledAt {
		t.Fatalf("transitions out of order:\n%s", out)
	}
	t.Logf("monitor arc complete:\n%s", out)
}
