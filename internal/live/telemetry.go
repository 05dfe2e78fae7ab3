package live

import (
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
// token state and silence, protocol progress, per-peer link state, buffer
// pool occupancy, and the cumulative staleness histogram of the updates
// this server merged (once Instrument has started it). It is the one
// place a server's own state is exposed; spyker-mon re-exports it as
// labelled Prometheus series. All times are seconds on this process's
// clock.
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

		PoolLive:     s.pool.Live(),
		PoolRecycled: s.pool.Recycled(),
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
		tp := obs.TelemetryPeer{Peer: id, OutboxDepth: int(p.depth.Load()), Failed: p.failed.Load()}
		if tp.Failed {
			t.FailedOutboxes++
		}
		t.Peers = append(t.Peers, tp)
	}

	t.Audit = s.audit.Snapshot() // nil-safe: nil recorder -> no section

	if h := s.staleness; h != nil {
		t.StalenessBounds = h.Bounds()
		t.StalenessCounts = h.BucketCounts()
		t.StalenessSum = h.Sum()
	}
	return t
}
