package fault_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/live"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// freePorts reserves n distinct localhost TCP ports by binding and
// immediately releasing them. Mildly racy by nature, but the window
// before the servers re-bind is milliseconds.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	ls := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range ls {
		_ = l.Close()
	}
	return addrs
}

// readCkpt loads one server's checkpoint file; ok is false while the
// file does not exist yet or a write races the read (CheckpointToFile
// renames atomically, so a successful decode is always a full snapshot).
func readCkpt(path string) (spyker.State, bool) {
	f, err := os.Open(path)
	if err != nil {
		return spyker.State{}, false
	}
	defer f.Close()
	st, err := live.ReadCheckpoint(f)
	if err != nil {
		return spyker.State{}, false
	}
	return st, true
}

// TestE2EProcessFailover is the multi-process acceptance scenario: three
// real spyker-live server processes plus one client process, all over
// TCP. The harness finds the token-holding server via its checkpoint
// file, SIGKILLs that OS process, waits for a surviving process to
// regenerate the token (visible as TokenRegens in its checkpoint),
// restarts the victim with -resume from its last checkpoint, and then
// requires cluster-wide SyncsTriggered to advance past the rejoin — full
// rounds need all three servers, so advancement proves the restarted
// process is back in the ring.
func TestE2EProcessFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process TCP test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "spyker-live")
	build := exec.Command("go", "build", "-o", bin, "github.com/spyker-fl/spyker/cmd/spyker-live")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building spyker-live: %v\n%s", err, out)
	}

	const n = 3
	addrs := freePorts(t, n)
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
		}
		if i == 0 {
			args = append(args, "-token")
		}
		p, err := fault.StartProc(bin, args, filepath.Join(dir, fmt.Sprintf("s%d.log", i)))
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
		defer p.Stop()
	}
	clients, err := fault.StartProc(bin, []string{
		"-role", "clients", "-peers", peers, "-clients", "6", "-seed", "1", "-duration", "0",
	}, filepath.Join(dir, "clients.log"))
	if err != nil {
		t.Fatal(err)
	}
	defer clients.Stop()

	waitCkpt := func(what string, timeout time.Duration, cond func() (int, bool)) int {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			if v, ok := cond(); ok {
				return v
			}
			if time.Now().After(deadline) {
				for i := 0; i < n; i++ {
					if log, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("s%d.log", i))); err == nil {
						t.Logf("server %d log:\n%s", i, log)
					}
				}
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	totalSyncs := func() (int, int) { // (sum, number of readable checkpoints)
		sum, seen := 0, 0
		for i := 0; i < n; i++ {
			if st, ok := readCkpt(ckpt(i)); ok {
				sum += st.SyncsTriggered
				seen++
			}
		}
		return sum, seen
	}

	// Let the deployment synchronize a few times, then locate the token
	// holder through the checkpoint files.
	waitCkpt("initial synchronizations", 60*time.Second, func() (int, bool) {
		sum, seen := totalSyncs()
		return sum, seen == n && sum >= 3
	})
	victim := waitCkpt("a checkpoint showing the token holder", 30*time.Second, func() (int, bool) {
		for i := 0; i < n; i++ {
			if st, ok := readCkpt(ckpt(i)); ok && st.Token != nil {
				return i, true
			}
		}
		return 0, false
	})

	t.Logf("killing token-holding server process %d", victim)
	if err := procs[victim].Kill(); err != nil {
		t.Fatal(err)
	}

	// A surviving process must detect the silent ring and mint a
	// replacement token — observable in its periodic checkpoint.
	waitCkpt("token regeneration by a survivor", 30*time.Second, func() (int, bool) {
		for i := 0; i < n; i++ {
			if i == victim {
				continue
			}
			if st, ok := readCkpt(ckpt(i)); ok && st.TokenRegens > 0 {
				return st.TokenRegens, true
			}
		}
		return 0, false
	})
	syncsAtRestart, _ := totalSyncs()

	t.Logf("restarting process %d with -resume", victim)
	if err := procs[victim].Restart("-resume"); err != nil {
		t.Fatal(err)
	}

	// Post-rejoin: full rounds need all three processes again, so the
	// cluster-wide sync count must move past its downtime plateau.
	final := waitCkpt("synchronization to advance past the rejoin", 60*time.Second, func() (int, bool) {
		sum, seen := totalSyncs()
		return sum, seen == n && sum > syncsAtRestart+1
	})
	t.Logf("e2e failover: syncs %d (was %d when the victim restarted)", final, syncsAtRestart)
}
