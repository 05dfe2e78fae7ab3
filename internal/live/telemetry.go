package live

import (
	"fmt"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
)

// SetDebugAddr records the address of this process's debug HTTP
// endpoint (where /debug/telemetry is served), echoed in telemetry so a
// monitor that learned this server from the address book can find the
// endpoint too. Call once at startup.
func (s *Server) SetDebugAddr(addr string) {
	s.mu.Lock()
	s.debugAddr = addr
	s.mu.Unlock()
}

// Telemetry assembles this server's health snapshot: membership view,
// token state and silence, protocol progress, per-peer link state, and
// the cumulative staleness histogram (when a metrics registry is
// attached). It also refreshes the health gauges in the registry, so a
// scrape of /debug/metrics right after /debug/telemetry sees the same
// values. All times are seconds on this process's clock.
func (s *Server) Telemetry() *obs.Telemetry {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.clock()
	mem := s.core.Membership()
	t := &obs.Telemetry{
		Version:   obs.TelemetryVersion,
		Time:      now,
		Server:    s.ID,
		Addr:      s.listener.Addr(),
		DebugAddr: s.debugAddr,

		Epoch:   mem.Epoch,
		Members: append([]int(nil), mem.Members...),
		Addrs:   s.addrsFor(mem.Members),

		HoldsToken:   s.core.HasToken(),
		TokenTimeout: s.cfg.TokenTimeout,
		SyncRetry:    s.cfg.SyncRetry,

		Age:      s.core.Age(),
		Ages:     s.core.KnownAges(),
		Frontier: s.core.Frontier(),

		Updates:        s.updates.Load(),
		SyncsTriggered: s.core.SyncsTriggered(),
		SyncsJoined:    s.core.SyncsJoined(),
		TokenRegens:    s.core.TokenRegens(),
		MaxBidSeen:     s.core.MaxBidSeen(),

		PeerReconnects: s.reconnects.Load(),
	}
	if s.tokenSeenValid {
		t.TokenSilence = now - s.tokenSeen
	} else {
		t.TokenSilence = now // never saw the token: silent since start
	}

	for _, id := range fl.SortedKeys(s.peers) {
		p := s.peers[id]
		if p == nil {
			continue
		}
		tp := obs.TelemetryPeer{Peer: id, OutboxDepth: len(p.ch), Failed: p.failed.Load()}
		if tp.Failed {
			t.FailedOutboxes++
		}
		t.Peers = append(t.Peers, tp)
	}

	t.Audit = s.audit.Snapshot() // nil-safe: nil recorder -> no section

	if s.reg != nil {
		h := s.reg.Histogram(obs.MetricStaleness, obs.StalenessBuckets)
		t.StalenessBounds = h.Bounds()
		t.StalenessCounts = h.BucketCounts()
		t.StalenessSum = h.Sum()
		s.refreshHealthGauges(t)
	}
	return t
}

// refreshHealthGauges mirrors the snapshot's ring/link state into the
// registry as gauges, making epoch, queue depths, failed links, and
// reconnect totals visible on the existing expvar/Prometheus endpoints.
// Caller holds s.mu and has checked s.reg != nil.
//
//spyker:locked(mu)
func (s *Server) refreshHealthGauges(t *obs.Telemetry) {
	pre := fmt.Sprintf("live.server%d.", s.ID)
	s.reg.Gauge(pre + "ring_epoch").Set(float64(t.Epoch))
	s.reg.Gauge(pre + "failed_outboxes").Set(float64(t.FailedOutboxes))
	s.reg.Gauge(pre + "peer_reconnects_total").Set(float64(t.PeerReconnects))
	s.reg.Gauge(pre + "token_silence_s").Set(t.TokenSilence)
	for _, p := range t.Peers {
		s.reg.Gauge(fmt.Sprintf("%soutbox_depth.s%d", pre, p.Peer)).Set(float64(p.OutboxDepth))
	}
}
