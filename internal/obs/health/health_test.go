package health

import (
	"strings"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
)

func pass(t float64, from, to int) obs.Event {
	return obs.Event{Time: t, Kind: obs.KindTokenPass, Node: from, Peer: to}
}

func update(t float64, srv int, stale float64) obs.Event {
	return obs.Event{Time: t, Kind: obs.KindClientUpdate, Node: srv, Peer: 7, Stale: stale}
}

func syncStart(t float64, srv int) obs.Event {
	return obs.Event{Time: t, Kind: obs.KindSyncStart, Node: srv, Peer: obs.NoPeer, Bid: 1}
}

func epoch(t float64, srv, ep int) obs.Event {
	return obs.Event{Time: t, Kind: obs.KindMembership, Node: srv, Peer: obs.NoPeer, Bid: ep, Note: "observed"}
}

func findAlert(alerts []Alert, r Rule) *Alert {
	for i := range alerts {
		if alerts[i].Rule == r {
			return &alerts[i]
		}
	}
	return nil
}

// Each rule: drive the evaluator into the alert, assert the typed alert
// and state, then drive recovery and assert the clear.

func TestTokenSilenceRule(t *testing.T) {
	e := New(Config{TokenTimeout: 2}) // stall threshold 4s
	for i := 0; i < 5; i++ {
		e.Observe(pass(float64(i), i%2, (i+1)%2))
	}
	if got := e.State(); got != Healthy {
		t.Fatalf("state after regular passes = %v", got)
	}
	e.AdvanceTo(8) // last pass t=4, silence 4s: at the threshold, not past
	if got := e.State(); got != Healthy {
		t.Fatalf("state at exactly the threshold = %v", got)
	}
	e.AdvanceTo(8.5)
	if got := e.State(); got != Stalled {
		t.Fatalf("state past the threshold = %v", got)
	}
	a := findAlert(e.ActiveAlerts(), RuleTokenSilence)
	if a == nil {
		t.Fatal("no token-silence alert")
	}
	if a.Severity != Stalled || a.Raised != 8 || a.Node != obs.NoPeer {
		t.Errorf("alert = %+v", *a)
	}
	if !strings.Contains(a.Detail, "token") {
		t.Errorf("detail does not name token silence: %q", a.Detail)
	}
	e.Observe(pass(9, 0, 1)) // the ring moves again
	if got := e.State(); got != Healthy {
		t.Fatalf("state after recovery = %v", got)
	}
	a = findAlert(e.Alerts(), RuleTokenSilence)
	if a.Active || a.Cleared != 9 {
		t.Errorf("alert not cleared at recovery: %+v", *a)
	}
}

func TestTokenSilenceFromTelemetry(t *testing.T) {
	e := New(Config{}) // TokenTimeout adopted from snapshots
	snap := func(srv int, at, silence, tmo float64) {
		e.ObserveTelemetry(&obs.Telemetry{
			Version: obs.TelemetryVersion, Server: srv,
			TokenSilence: silence, TokenTimeout: tmo,
		}, at)
	}
	snap(0, 1, 0.1, 1.5)
	snap(1, 1, 0.4, 1.5)
	if e.tokenTmo != 1.5 {
		t.Fatalf("adopted timeout = %v", e.tokenTmo)
	}
	if got := e.State(); got != Healthy {
		t.Fatalf("state = %v", got)
	}
	// every server goes quiet: silences grow past 2x1.5 = 3s
	snap(0, 5, 4.1, 1.5)
	snap(1, 5, 4.4, 1.5)
	if got := e.State(); got != Stalled {
		t.Fatalf("state with cluster-wide silence = %v", got)
	}
	// one server vouches for fresh movement: cleared
	snap(1, 6, 0.2, 1.5)
	if got := e.State(); got != Healthy {
		t.Fatalf("state after movement = %v", got)
	}
}

func TestEpochDivergenceRule(t *testing.T) {
	e := New(Config{TokenTimeout: 1.5}) // grace 2 x 1.5 = 3s
	e.Observe(epoch(0, 0, 1))
	e.Observe(epoch(0, 1, 1))
	e.AdvanceTo(10)
	if got := e.State(); got != Healthy {
		t.Fatalf("agreeing epochs flagged: %v", got)
	}
	e.Observe(epoch(10, 1, 2)) // server 1 moves to epoch 2, server 0 lags
	e.AdvanceTo(12)
	if got := e.State(); got != Healthy {
		t.Fatalf("divergence inside grace flagged: %v", got)
	}
	e.AdvanceTo(14)
	a := findAlert(e.ActiveAlerts(), RuleEpochDivergence)
	if a == nil || e.State() != Degraded {
		t.Fatalf("no divergence alert: state=%v alerts=%+v", e.State(), e.Alerts())
	}
	if a.Node != 0 || a.Raised != 13 {
		t.Errorf("alert = %+v", *a)
	}
	e.Observe(epoch(15, 0, 2)) // laggard catches up
	if got := e.State(); got != Healthy {
		t.Fatalf("state after convergence = %v", got)
	}
}

// TestDivergenceGraceFollowsAdoptedTimeout: an evaluator started without a
// token timeout (spyker-mon's default) adopts the ring's from telemetry,
// and from then on a membership split alerts after two of THOSE timeouts,
// at the instant an offline pass that calibrated the same timeout before
// it started reports — not after the 5s that applies to an unknown one.
func TestDivergenceGraceFollowsAdoptedTimeout(t *testing.T) {
	var events []obs.Event
	for i := 0; i <= 96; i++ { // a pass every 0.125s calibrates 4 x 0.125 = 0.5s
		at := float64(i) * 0.125
		events = append(events, pass(at, i%2, (i+1)%2))
		switch at {
		case 0:
			events = append(events, epoch(at, 0, 1), epoch(at, 1, 1))
		case 10:
			events = append(events, epoch(at, 1, 2)) // server 0 lags from here on
		}
	}
	offline := Run(events, Config{})
	if offline.tokenTmo != 0.5 {
		t.Fatalf("calibrated timeout = %v, want 0.5", offline.tokenTmo)
	}
	online := New(Config{})
	online.ObserveTelemetry(&obs.Telemetry{
		Version: obs.TelemetryVersion, Server: 0, Epoch: 1,
		TokenSilence: -1, TokenTimeout: 0.5,
	}, 0)
	for _, ev := range events {
		online.Observe(ev)
	}
	for name, e := range map[string]*Evaluator{"offline": offline, "online": online} {
		a := findAlert(e.Alerts(), RuleEpochDivergence)
		if a == nil {
			t.Fatalf("%s: no epoch-divergence alert: %+v", name, e.Alerts())
		}
		if a.Raised != 11 {
			t.Errorf("%s: raised at %v, want 11 (the split at 10 + 2 x 0.5s)", name, a.Raised)
		}
	}
}

func TestOutboxBacklogRule(t *testing.T) {
	e := New(Config{})
	snap := func(at float64, depth int) {
		e.ObserveTelemetry(&obs.Telemetry{
			Version: obs.TelemetryVersion, Server: 0,
			Peers: []obs.TelemetryPeer{{Peer: 1, OutboxDepth: depth}},
		}, at)
	}
	for i, d := range []int{2, 9, 10, 11} { // rising but streak only 3 at i=3
		snap(float64(i), d)
	}
	if got := e.State(); got != Degraded {
		t.Fatalf("state after monotone backlog growth = %v", got)
	}
	a := findAlert(e.ActiveAlerts(), RuleOutboxBacklog)
	if a == nil || a.Node != 0 || a.Peer != 1 {
		t.Fatalf("alert = %+v", a)
	}
	snap(4, 3) // queue drained
	if got := e.State(); got != Healthy {
		t.Fatalf("state after drain = %v", got)
	}
	// shallow queues may rise forever without alerting
	e2 := New(Config{})
	for i, d := range []int{1, 2, 3, 4, 5, 6, 7} {
		e2.ObserveTelemetry(&obs.Telemetry{
			Version: obs.TelemetryVersion, Server: 0,
			Peers: []obs.TelemetryPeer{{Peer: 1, OutboxDepth: d}},
		}, float64(i))
	}
	if got := e2.State(); got != Healthy {
		t.Fatalf("shallow rising queue flagged: %v", got)
	}
}

func TestStalenessBlowupRule(t *testing.T) {
	e := New(Config{})
	at := 0.0
	chunk := func(mean float64) {
		for i := 0; i < stalenessChunk; i++ {
			e.Observe(update(at, 0, mean))
			at += 0.1
		}
	}
	chunk(1) // baseline
	chunk(1)
	chunk(4) // already 4x the best chunk, but only the first rise
	chunk(5)
	chunk(6)
	if got := e.State(); got != Healthy {
		t.Fatalf("state before the full rise streak = %v", got)
	}
	chunk(7) // fourth consecutive rise
	if got := e.State(); got != Degraded {
		t.Fatalf("state after staleness blow-up = %v", got)
	}
	a := findAlert(e.ActiveAlerts(), RuleStalenessBlowup)
	if a == nil || !strings.Contains(a.Detail, "staleness") {
		t.Fatalf("alert = %+v", a)
	}
	chunk(1.5) // distribution falls back
	if got := e.State(); got != Healthy {
		t.Fatalf("state after staleness recovery = %v", got)
	}

	// a streak of rises that stays under 4x the best chunk never alerts
	e = New(Config{})
	for _, mean := range []float64{1, 1.5, 2, 2.5, 3, 3.5} {
		chunk(mean)
	}
	if got := e.State(); got != Healthy {
		t.Fatalf("slow drift under the factor flagged: %v", got)
	}
}

func TestSyncFlatlineRule(t *testing.T) {
	e := New(Config{})
	for i := 0; i < 4; i++ { // cadence ~1s
		e.Observe(syncStart(float64(i), 0))
	}
	// updates keep arriving, no further rounds: threshold 3+4x1 = 7
	at := 3.5
	for at < 6.9 {
		e.Observe(update(at, 0, 0.5))
		at += 0.5
	}
	if got := e.State(); got != Healthy {
		t.Fatalf("state inside the cadence allowance = %v", got)
	}
	e.Observe(update(7.5, 0, 0.5))
	if got := e.State(); got != Degraded {
		t.Fatalf("state after flatline = %v", got)
	}
	a := findAlert(e.ActiveAlerts(), RuleSyncFlatline)
	if a == nil || a.Raised != 7 {
		t.Fatalf("alert = %+v", a)
	}
	e.Observe(syncStart(8, 1))
	if got := e.State(); got != Healthy {
		t.Fatalf("state after rounds resume = %v", got)
	}

	// a quiet cluster (no updates flowing) never flatlines
	e2 := New(Config{})
	for i := 0; i < 4; i++ {
		e2.Observe(syncStart(float64(i), 0))
	}
	e2.AdvanceTo(100)
	if got := e2.State(); got != Healthy {
		t.Fatalf("idle cluster flagged: %v", got)
	}
}

func TestOfflineRunAndReport(t *testing.T) {
	// a healthy prefix, a 20s hole in token movement, recovery
	var events []obs.Event
	at := 0.0
	for i := 0; i < 10; i++ {
		events = append(events, pass(at, i%3, (i+1)%3))
		at += 1.0
	}
	events = append(events, pass(at+20, 0, 1), pass(at+21, 1, 2))

	ev := Run(events, Config{}) // TokenTimeout calibrated: 4 x median gap 1s
	if ev.tokenTmo != 4 {
		t.Fatalf("calibrated timeout = %v", ev.tokenTmo)
	}
	alerts := ev.Alerts()
	a := findAlert(alerts, RuleTokenSilence)
	if a == nil {
		t.Fatal("offline run missed the stall")
	}
	if a.Active {
		t.Errorf("stall not cleared by recovery: %+v", *a)
	}
	if ev.State() != Healthy {
		t.Errorf("final state = %v", ev.State())
	}

	var b strings.Builder
	if err := ev.WriteReport(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"state: healthy", "token-silence", "cleared"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
