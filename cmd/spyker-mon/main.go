// Command spyker-mon is the cluster health monitor. It polls the
// /debug/telemetry endpoint of every live spyker-live server, feeds the
// snapshots through the online health evaluator (internal/obs/health),
// logs state transitions (healthy -> stalled -> healthy ...) with the
// alerts that caused them, and re-exports the aggregated cluster view:
//
//   - /health  — JSON: current state, active + historical alerts,
//     per-target liveness
//   - /metrics — Prometheus text exposition with per-server labels
//     (spyker_mon_up, spyker_mon_token_silence_seconds, ...): each
//     server's telemetry, the one place its own state is exposed
//   - /audit   — JSON: every server's contribution-audit section (per
//     client update statistics and anomaly flags) plus the cluster-wide
//     flagged-client set; servers run with spyker-live -audit
//
// When telemetry carries an audit section, per-client update statistics
// are also re-exported on /metrics (spyker_mon_client_norm_z,
// spyker_mon_client_flagged, ...) and sustained anomalies raise the
// client-anomaly health rule.
//
// Membership is discovered, not configured: the monitor seeds from
// -targets and then follows each snapshot's address book, so servers
// hot-added to the ring (spyker-live -join) are picked up automatically
// when their debug port follows the -debug-port-offset convention
// (debug port = transport port + offset).
//
// Example against the 3-process failover demo:
//
//	spyker-mon -targets 127.0.0.1:6060,127.0.0.1:6061,127.0.0.1:6062 \
//	    -every 250ms -addr 127.0.0.1:6070
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/obs/health"
)

func main() {
	targets := flag.String("targets", "", "comma-separated debug addresses of spyker-live servers (host:port)")
	every := flag.Duration("every", 500*time.Millisecond, "poll period")
	addr := flag.String("addr", "", "serve /health (JSON) and /metrics (Prometheus) on this address (empty = log only)")
	duration := flag.Duration("duration", 0, "how long to monitor (0 = until killed)")
	tokenTimeout := flag.Float64("token-timeout", 0, "the ring's token regeneration timeout in seconds (0 = adopt from telemetry)")
	silenceFactor := flag.Float64("silence-factor", 0, "stall threshold as a multiple of the token timeout (0 = default 2)")
	portOff := flag.Int("debug-port-offset", 0, "discover new members' debug endpoints at transport port + this offset (0 = discovery off)")
	flag.Parse()

	if *targets == "" {
		fmt.Fprintln(os.Stderr, "spyker-mon: -targets is required")
		os.Exit(1)
	}
	m := newMonitor(splitTargets(*targets), health.Config{
		TokenTimeout:  *tokenTimeout,
		SilenceFactor: *silenceFactor,
	}, *portOff, &http.Client{Timeout: 2 * time.Second}, os.Stdout)

	if *addr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/health", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = m.writeHealth(w)
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = m.writeMetrics(w)
		})
		mux.HandleFunc("/audit", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = m.writeAudit(w)
		})
		//spyker:detached(monitor HTTP endpoint serves for the process lifetime; the kernel reclaims the listener on exit)
		go func() {
			if err := http.ListenAndServe(*addr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "spyker-mon: serve: %v\n", err)
			}
		}()
		fmt.Printf("spyker-mon serving http://%s/health, /metrics and /audit\n", *addr)
	}

	start := time.Now()
	tick := time.NewTicker(*every)
	defer tick.Stop()
	for now := range tick.C {
		at := now.Sub(start).Seconds()
		m.poll(at)
		if *duration > 0 && now.Sub(start) >= *duration {
			break
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	fmt.Printf("spyker-mon done: final state %s, %d alerts over %.1fs\n",
		m.ev.State(), len(m.ev.Alerts()), m.ev.Now())
}

func splitTargets(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// target is one debug endpoint the monitor polls. Targets are never
// forgotten: a dead server keeps its row (up=false) so /metrics can
// report it down rather than silently dropping it.
type target struct {
	addr         string // debug address (host:port of /debug/telemetry)
	up           bool
	last         *obs.Telemetry // most recent good snapshot, nil before first
	polls, fails int64
}

// monitor owns the evaluator and the target set. All methods are safe
// for concurrent use (the poll loop and the HTTP handlers share it).
type monitor struct {
	mu      sync.Mutex
	ev      *health.Evaluator  //spyker:guardedby(mu)
	targets map[string]*target //spyker:guardedby(mu)
	order   []string           //spyker:guardedby(mu) — target addresses in discovery order
	state   health.State       //spyker:guardedby(mu)
	seen    int                //spyker:guardedby(mu) — alerts already logged
	portOff int
	client  *http.Client
	logw    io.Writer
}

func newMonitor(addrs []string, cfg health.Config, portOff int, client *http.Client, logw io.Writer) *monitor {
	m := &monitor{
		ev:      health.New(cfg),
		targets: make(map[string]*target),
		portOff: portOff,
		client:  client,
		logw:    logw,
	}
	// Uncontended (the monitor is not shared yet); keeps the guarded-field
	// discipline uniform from the first write.
	m.mu.Lock()
	for _, a := range addrs {
		m.addTarget(a)
	}
	m.mu.Unlock()
	return m
}

// addTarget registers a debug address; call with mu held. Returns false
// if already known.
//
//spyker:locked(mu)
func (m *monitor) addTarget(addr string) bool {
	if _, ok := m.targets[addr]; ok {
		return false
	}
	m.targets[addr] = &target{addr: addr}
	m.order = append(m.order, addr)
	return true
}

// poll scrapes every known target once, feeds the evaluator, discovers
// new ring members from the returned address books, and logs health
// state transitions. at is the monitor's stream clock in seconds.
func (m *monitor) poll(at float64) {
	m.mu.Lock()
	addrs := append([]string(nil), m.order...)
	m.mu.Unlock()

	// Scrape outside the lock: a hung target must not block /health.
	snaps := make([]*obs.Telemetry, len(addrs))
	for i, a := range addrs {
		snaps[i] = m.scrape(a)
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	for i, a := range addrs {
		tg := m.targets[a]
		tg.polls++
		if snaps[i] == nil {
			tg.fails++
			tg.up = false
			continue
		}
		tg.up = true
		tg.last = snaps[i]
		m.ev.ObserveTelemetry(snaps[i], at)
		m.discover(snaps[i])
	}
	m.ev.AdvanceTo(at)
	m.logTransitions(at)
}

func (m *monitor) scrape(addr string) *obs.Telemetry {
	resp, err := m.client.Get("http://" + addr + "/debug/telemetry")
	if err != nil {
		return nil
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	t, err := obs.ReadTelemetry(resp.Body)
	if err != nil {
		return nil
	}
	return t
}

// discover follows the snapshot's learned address book: every member
// with a known transport address gets a debug-endpoint guess at
// transport port + offset. This is how the monitor tracks elastic
// joins without reconfiguration. Caller holds mu.
//
//spyker:locked(mu)
func (m *monitor) discover(t *obs.Telemetry) {
	if m.portOff == 0 {
		return
	}
	for i, member := range t.Members {
		if i >= len(t.Addrs) || t.Addrs[i] == "" {
			continue
		}
		guess, ok := offsetPort(t.Addrs[i], m.portOff)
		if !ok {
			continue
		}
		if m.addTarget(guess) {
			fmt.Fprintf(m.logw, "discovered server %d at %s (via s%d's address book)\n",
				member, guess, t.Server)
		}
	}
}

func offsetPort(addr string, off int) (string, bool) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", false
	}
	p, err := strconv.Atoi(port)
	if err != nil || p+off <= 0 || p+off > 65535 {
		return "", false
	}
	return net.JoinHostPort(host, strconv.Itoa(p+off)), true
}

// logTransitions prints newly raised/cleared alerts and overall state
// changes. Caller holds mu.
//
//spyker:locked(mu)
func (m *monitor) logTransitions(at float64) {
	alerts := m.ev.Alerts()
	for ; m.seen < len(alerts); m.seen++ {
		a := alerts[m.seen]
		fmt.Fprintf(m.logw, "alert [%s] %s at %.2fs: %s\n", a.Rule, a.Severity, a.Raised, a.Detail)
	}
	st := m.ev.State()
	if st == m.state {
		return
	}
	var rules []string
	for _, a := range m.ev.ActiveAlerts() {
		rules = append(rules, string(a.Rule))
	}
	sort.Strings(rules)
	detail := ""
	if len(rules) > 0 {
		detail = " [" + strings.Join(rules, ",") + "]"
	}
	fmt.Fprintf(m.logw, "health: %s -> %s%s at %.2fs\n", m.state, st, detail, at)
	m.state = st
}

// healthReport is the /health JSON shape.
type healthReport struct {
	State   string         `json:"state"`
	Time    float64        `json:"time"`
	Alerts  []alertReport  `json:"alerts"`
	Targets []targetReport `json:"targets"`
}

type alertReport struct {
	Rule     string  `json:"rule"`
	Severity string  `json:"severity"`
	Raised   float64 `json:"raised"`
	Node     int     `json:"node"`
	Peer     int     `json:"peer,omitempty"`
	Detail   string  `json:"detail"`
	Active   bool    `json:"active"`
	Cleared  float64 `json:"cleared,omitempty"`
}

type targetReport struct {
	Addr   string `json:"addr"`
	Up     bool   `json:"up"`
	Server int    `json:"server"`
	Epoch  int    `json:"epoch"`
	Polls  int64  `json:"polls"`
	Fails  int64  `json:"fails"`
}

func (m *monitor) writeHealth(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := healthReport{
		State:  m.ev.State().String(),
		Time:   m.ev.Now(),
		Alerts: []alertReport{},
	}
	for _, a := range m.ev.Alerts() {
		rep.Alerts = append(rep.Alerts, alertReport{
			Rule: string(a.Rule), Severity: a.Severity.String(), Raised: a.Raised,
			Node: a.Node, Peer: a.Peer, Detail: a.Detail,
			Active: a.Active, Cleared: a.Cleared,
		})
	}
	for _, addr := range m.order {
		tg := m.targets[addr]
		tr := targetReport{Addr: addr, Up: tg.up, Server: -1, Polls: tg.polls, Fails: tg.fails}
		if tg.last != nil {
			tr.Server = tg.last.Server
			tr.Epoch = tg.last.Epoch
		}
		rep.Targets = append(rep.Targets, tr)
	}
	return json.NewEncoder(w).Encode(rep)
}

// auditReport is the /audit JSON shape: every target's last audit
// section plus the cluster-wide union of currently flagged clients.
type auditReport struct {
	FlaggedClients []int               `json:"flagged_clients"`
	Targets        []auditTargetReport `json:"targets"`
}

type auditTargetReport struct {
	Addr   string              `json:"addr"`
	Server int                 `json:"server"`
	Audit  *obs.TelemetryAudit `json:"audit,omitempty"`
}

func (m *monitor) writeAudit(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	rep := auditReport{FlaggedClients: []int{}}
	flagged := map[int]bool{}
	for _, addr := range m.order {
		tg := m.targets[addr]
		if tg.last == nil {
			continue
		}
		tr := auditTargetReport{Addr: addr, Server: tg.last.Server, Audit: tg.last.Audit}
		if tr.Audit != nil {
			for i := range tr.Audit.Clients {
				c := &tr.Audit.Clients[i]
				if len(c.Flags) > 0 {
					flagged[c.Client] = true
				}
			}
		}
		rep.Targets = append(rep.Targets, tr)
	}
	for c := range flagged {
		rep.FlaggedClients = append(rep.FlaggedClients, c)
	}
	sort.Ints(rep.FlaggedClients)
	return json.NewEncoder(w).Encode(rep)
}

// writeMetrics renders the aggregated cluster view as Prometheus text,
// one labelled sample family per telemetry field.
func (m *monitor) writeMetrics(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	emit := func(name string, labels []obs.PromLabel, v float64) error {
		return obs.WritePromSample(w, name, labels, v)
	}
	if err := emit("spyker_mon_health_state", nil, float64(m.ev.State())); err != nil {
		return err
	}
	if err := emit("spyker_mon_targets", nil, float64(len(m.order))); err != nil {
		return err
	}
	active := map[string]int{}
	for _, a := range m.ev.ActiveAlerts() {
		active[string(a.Rule)]++
	}
	rules := make([]string, 0, len(active))
	for r := range active {
		rules = append(rules, r)
	}
	sort.Strings(rules)
	for _, r := range rules {
		if err := emit("spyker_mon_alerts_active",
			[]obs.PromLabel{{Name: "rule", Value: r}}, float64(active[r])); err != nil {
			return err
		}
	}
	for _, addr := range m.order {
		tg := m.targets[addr]
		lbl := func(extra ...obs.PromLabel) []obs.PromLabel {
			ls := []obs.PromLabel{{Name: "target", Value: addr}}
			if tg.last != nil {
				ls = append(ls, obs.PromLabel{Name: "server", Value: strconv.Itoa(tg.last.Server)})
			}
			return append(ls, extra...)
		}
		up := 0.0
		if tg.up {
			up = 1
		}
		if err := emit("spyker_mon_up", lbl(), up); err != nil {
			return err
		}
		t := tg.last
		if t == nil {
			continue
		}
		samples := []struct {
			name string
			v    float64
		}{
			{"spyker_mon_ring_epoch", float64(t.Epoch)},
			{"spyker_mon_token_silence_seconds", t.TokenSilence},
			{"spyker_mon_updates_total", float64(t.Updates)},
			{"spyker_mon_syncs_total", float64(t.SyncsTriggered)},
			{"spyker_mon_token_regens_total", float64(t.TokenRegens)},
			{"spyker_mon_failed_outboxes", float64(t.FailedOutboxes)},
			{"spyker_mon_peer_reconnects_total", float64(t.PeerReconnects)},
			{"spyker_mon_model_age", t.Age},
			{"spyker_mon_staleness_updates_total", float64(t.StalenessTotal())},
			{"spyker_mon_pool_live_vecs", float64(t.PoolLive)},
			{"spyker_mon_pool_recycled_total", float64(t.PoolRecycled)},
		}
		for _, s := range samples {
			if err := emit(s.name, lbl(), s.v); err != nil {
				return err
			}
		}
		for _, p := range t.Peers {
			pl := lbl(obs.PromLabel{Name: "peer", Value: strconv.Itoa(p.Peer)})
			if err := emit("spyker_mon_outbox_depth", pl, float64(p.OutboxDepth)); err != nil {
				return err
			}
		}
		if t.Audit != nil {
			if err := emit("spyker_mon_audit_flagged_clients", lbl(), float64(t.Audit.Flagged)); err != nil {
				return err
			}
			for i := range t.Audit.Clients {
				c := &t.Audit.Clients[i]
				cl := lbl(obs.PromLabel{Name: "client", Value: strconv.Itoa(c.Client)})
				clientSamples := []struct {
					name string
					v    float64
				}{
					{"spyker_mon_client_updates_total", float64(c.Updates)},
					{"spyker_mon_client_median_norm", c.MedianNorm},
					{"spyker_mon_client_norm_z", c.NormZ},
					{"spyker_mon_client_median_cos", c.MedianCos},
					{"spyker_mon_client_flagged", float64(len(c.Flags))},
				}
				for _, s := range clientSamples {
					if err := emit(s.name, cl, s.v); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}
