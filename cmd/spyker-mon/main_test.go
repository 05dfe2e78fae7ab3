package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/obs/health"
)

// fakeServer serves /debug/telemetry with a mutable snapshot, standing
// in for one spyker-live process.
type fakeServer struct {
	mu   sync.Mutex
	tel  obs.Telemetry
	down bool
	srv  *httptest.Server
}

func newFakeServer(t *testing.T, tel obs.Telemetry) *fakeServer {
	t.Helper()
	f := &fakeServer{tel: tel}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, _ *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.down {
			http.Error(w, "gone", http.StatusServiceUnavailable)
			return
		}
		snap := f.tel
		_ = obs.WriteTelemetry(w, &snap)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeServer) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

func (f *fakeServer) set(mut func(*obs.Telemetry)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	mut(&f.tel)
}

func baseTelemetry(server int) obs.Telemetry {
	return obs.Telemetry{
		Version: obs.TelemetryVersion,
		Server:  server,
		Epoch:   1,
		Members: []int{0, 1},

		TokenTimeout: 2,
		TokenSilence: 0.1,
	}
}

// TestMonitorStallAndRecovery drives the monitor through the e2e arc in
// miniature: both servers healthy, then the whole cluster reports ever
// growing token silence (the holder was killed), then circulation
// resumes. The monitor must log healthy -> stalled naming
// token-silence, then stalled -> healthy.
func TestMonitorStallAndRecovery(t *testing.T) {
	s0 := newFakeServer(t, baseTelemetry(0))
	s1 := newFakeServer(t, baseTelemetry(1))
	var log bytes.Buffer
	m := newMonitor([]string{s0.addr(), s1.addr()}, health.Config{}, 0, s0.srv.Client(), &log)

	// Threshold = 2 x TokenTimeout = 4s of silence.
	m.poll(0)
	if got := m.ev.State(); got != health.Healthy {
		t.Fatalf("state at t=0: %v", got)
	}
	// Every server reports growing silence: nobody has seen the token
	// move since t=0 on the monitor clock.
	for _, at := range []float64{2, 4, 6} {
		sil := at
		s0.set(func(tel *obs.Telemetry) { tel.TokenSilence = sil })
		s1.set(func(tel *obs.Telemetry) { tel.TokenSilence = sil })
		m.poll(at)
	}
	if got := m.ev.State(); got != health.Stalled {
		t.Fatalf("state after 6s of silence: %v (alerts %v)", got, m.ev.Alerts())
	}
	// Recovery: server 1 reports a fresh handoff.
	s1.set(func(tel *obs.Telemetry) { tel.TokenSilence = 0.2 })
	m.poll(8)
	if got := m.ev.State(); got != health.Healthy {
		t.Fatalf("state after recovery: %v", got)
	}

	out := log.String()
	for _, want := range []string{
		"health: healthy -> stalled [token-silence]",
		"health: stalled -> healthy",
		"alert [token-silence] stalled",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("monitor log missing %q:\n%s", want, out)
		}
	}
}

// TestMonitorDiscovery: a third server joins the ring; the monitor
// learns its transport address from an existing member's address book
// and derives the debug endpoint via the port-offset convention.
func TestMonitorDiscovery(t *testing.T) {
	tel := baseTelemetry(0)
	s0 := newFakeServer(t, tel)
	var log bytes.Buffer
	m := newMonitor([]string{s0.addr()}, health.Config{}, 7, s0.srv.Client(), &log)

	m.poll(0)
	if len(m.order) != 1 {
		t.Fatalf("targets before join: %v", m.order)
	}
	s0.set(func(tel *obs.Telemetry) {
		tel.Epoch = 2
		tel.Members = []int{0, 1, 2}
		tel.Addrs = []string{"127.0.0.1:9000", "127.0.0.1:9010", "127.0.0.1:9020"}
	})
	m.poll(1)
	if len(m.order) != 4 { // seed + three derived debug addresses
		t.Fatalf("targets after join: %v", m.order)
	}
	for _, want := range []string{"127.0.0.1:9007", "127.0.0.1:9017", "127.0.0.1:9027"} {
		if _, ok := m.targets[want]; !ok {
			t.Errorf("derived target %s missing (have %v)", want, m.order)
		}
	}
	if !strings.Contains(log.String(), "discovered server 2 at 127.0.0.1:9027") {
		t.Errorf("discovery not logged:\n%s", log.String())
	}
}

// TestMonitorEndpoints checks the /health JSON and /metrics exposition
// shapes, including a down target staying visible with up=0.
func TestMonitorEndpoints(t *testing.T) {
	s0 := newFakeServer(t, baseTelemetry(0))
	tel1 := baseTelemetry(1)
	tel1.Peers = []obs.TelemetryPeer{{Peer: 0, OutboxDepth: 3}}
	tel1.Updates = 42
	tel1.PoolLive, tel1.PoolRecycled = 5, 1234
	s1 := newFakeServer(t, tel1)
	var log bytes.Buffer
	m := newMonitor([]string{s0.addr(), s1.addr()}, health.Config{}, 0, s0.srv.Client(), &log)

	m.poll(0)
	s0.set(func(tel *obs.Telemetry) { _ = tel })
	s0.mu.Lock()
	s0.down = true
	s0.mu.Unlock()
	m.poll(1)

	var hj bytes.Buffer
	if err := m.writeHealth(&hj); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"state":"healthy"`, `"up":false`, `"up":true`, `"server":1`} {
		if !strings.Contains(hj.String(), want) {
			t.Errorf("/health missing %q:\n%s", want, hj.String())
		}
	}

	var pm bytes.Buffer
	if err := m.writeMetrics(&pm); err != nil {
		t.Fatal(err)
	}
	out := pm.String()
	for _, want := range []string{
		"spyker_mon_health_state 0",
		"spyker_mon_targets 2",
		`server="0"`,
		`spyker_mon_up{target="` + s0.addr() + `",server="0"} 0`,
		`spyker_mon_up{target="` + s1.addr() + `",server="1"} 1`,
		`spyker_mon_updates_total{target="` + s1.addr() + `",server="1"} 42`,
		`spyker_mon_outbox_depth{target="` + s1.addr() + `",server="1",peer="0"} 3`,
		`spyker_mon_pool_live_vecs{target="` + s1.addr() + `",server="1"} 5`,
		`spyker_mon_pool_recycled_total{target="` + s1.addr() + `",server="1"} 1234`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}
