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

// TestE2EProcessHotAdd is the multi-process elastic-membership smoke:
// two real spyker-live server processes train with a client process,
// then a third server process hot-adds itself with -join, knowing only
// the sponsor's address. The harness watches the periodic checkpoint
// files: every process — the sponsor, the server the joiner never
// dialed first, and the joiner itself — must converge on the same
// three-member epoch-1 ring, and the joiner must complete sync rounds
// of its own, which proves it was wired into full token rounds.
func TestE2EProcessHotAdd(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process TCP test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "spyker-live")
	build := exec.Command("go", "build", "-o", bin, "github.com/spyker-fl/spyker/cmd/spyker-live")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building spyker-live: %v\n%s", err, out)
	}

	const n = 2
	addrs := freePorts(t, n)
	peers := strings.Join(addrs, ",")
	ckpt := func(i int) string { return filepath.Join(dir, fmt.Sprintf("s%d.json", i)) }
	logf := func(name string) string { return filepath.Join(dir, name+".log") }

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
		p, err := fault.StartProc(bin, args, logf(fmt.Sprintf("s%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		defer p.Stop()
	}
	clients, err := fault.StartProc(bin, []string{
		"-role", "clients", "-peers", peers, "-clients", "6", "-seed", "1", "-duration", "0",
	}, logf("clients"))
	if err != nil {
		t.Fatal(err)
	}
	defer clients.Stop()

	wait := func(what string, timeout time.Duration, cond func() (int, bool)) int {
		t.Helper()
		deadline := time.Now().Add(timeout)
		for {
			if v, ok := cond(); ok {
				return v
			}
			if time.Now().After(deadline) {
				for _, name := range []string{"s0", "s1", "joiner"} {
					if log, err := os.ReadFile(logf(name)); err == nil {
						t.Logf("%s log:\n%s", name, log)
					}
				}
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	// Let the fixed 2-ring synchronize before growing it.
	syncsBefore := wait("initial synchronizations", 60*time.Second, func() (int, bool) {
		sum, seen := 0, 0
		for i := 0; i < n; i++ {
			if st, ok := readCkpt(ckpt(i)); ok {
				sum += st.SyncsTriggered
				seen++
			}
		}
		return sum, seen == n && sum >= 3
	})

	// Hot-add: the joiner process knows only the sponsor's address — the
	// sponsor assigns its ID and ships model + membership in the reply.
	jckpt := filepath.Join(dir, "joiner.json")
	joiner, err := fault.StartProc(bin, []string{
		"-role", "server", "-join", addrs[0],
		"-checkpoint", jckpt, "-checkpoint-every", "150ms",
		"-reconnect-every", "200ms", "-duration", "0",
	}, logf("joiner"))
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Stop()

	ckpts := []string{ckpt(0), ckpt(1), jckpt}
	wait("all three processes to adopt the epoch-1 three-member ring", 30*time.Second, func() (int, bool) {
		for _, path := range ckpts {
			st, ok := readCkpt(path)
			if !ok || st.Mem == nil || st.Mem.Epoch != 1 || st.Mem.Count() != 3 {
				return 0, false
			}
		}
		return 0, true
	})

	// Full rounds now need all three broadcasts, so joiner participation
	// plus cluster-wide advancement proves the grown ring is complete.
	wait("the joiner to complete sync rounds", 30*time.Second, func() (int, bool) {
		st, ok := readCkpt(jckpt)
		return st.SyncsJoined, ok && st.SyncsJoined > 0
	})
	final := wait("the grown ring to keep synchronizing", 60*time.Second, func() (int, bool) {
		sum, seen := 0, 0
		for _, path := range ckpts {
			if st, ok := readCkpt(path); ok {
				sum += st.SyncsTriggered
				seen++
			}
		}
		return sum, seen == len(ckpts) && sum > syncsBefore+1
	})
	st, _ := readCkpt(jckpt)
	t.Logf("e2e hot-add: ring %v, joiner id %d, joiner syncs %d, cluster syncs %d (was %d)",
		st.Mem, st.Config.ID, st.SyncsJoined, final, syncsBefore)
}
