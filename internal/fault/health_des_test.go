package fault_test

import (
	"strings"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs/health"
)

// TestDESHealthStallDetection crashes the token holder in the DES and
// checks the health plane the way spyker-trace ships it: health.Run over
// the trace an obs.Tracer recorded must raise the token-silence stall
// while the ring is stuck on the dead member's round and clear it once
// the restarted server lets the round finish.
func TestDESHealthStallDetection(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short")
	}
	events := runDESFailover(t, true).events

	checkStall := func(name string, alerts []health.Alert) {
		t.Helper()
		var stall *health.Alert
		for i := range alerts {
			if alerts[i].Rule == health.RuleTokenSilence && alerts[i].Raised > desCrashAt {
				stall = &alerts[i]
				break
			}
		}
		if stall == nil {
			t.Fatalf("%s: no token-silence alert after the crash (alerts: %+v)", name, alerts)
		}
		if stall.Severity != health.Stalled {
			t.Errorf("%s: stall severity = %v", name, stall.Severity)
		}
		// The ring stops circulating at the crash; the alert fires once
		// silence exceeds 2 x TokenTimeout, i.e. within the downtime
		// window, never before the crash.
		if stall.Raised <= desCrashAt || stall.Raised > desCrashAt+desDowntime+2 {
			t.Errorf("%s: stall raised at %.2fs, want in (%.0f, %.0f]",
				name, stall.Raised, desCrashAt, desCrashAt+desDowntime+2)
		}
		if stall.Active {
			t.Errorf("%s: stall never cleared", name)
		} else if stall.Cleared < desCrashAt+desDowntime {
			t.Errorf("%s: stall cleared at %.2fs, before the victim restarted at %.0fs",
				name, stall.Cleared, desCrashAt+desDowntime)
		}
		if !strings.Contains(stall.Detail, "token") {
			t.Errorf("%s: alert detail does not name the token: %q", name, stall.Detail)
		}
	}

	offline := health.Run(events, health.Config{TokenTimeout: 4})
	checkStall("offline replay", offline.Alerts())
	if got := offline.State(); got != health.Healthy {
		t.Errorf("offline state after recovery = %v", got)
	}

	// Offline calibration from the trace alone must land near the
	// configured 4s timeout's detection behaviour: the calibrated run
	// still sees the stall.
	calibrated := health.Run(events, health.Config{})
	checkStall("calibrated replay", calibrated.Alerts())
}
