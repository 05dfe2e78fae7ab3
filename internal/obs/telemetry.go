package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// TelemetryVersion is the current wire version of the Telemetry snapshot.
// Decoders accept snapshots of the same major shape (unknown fields are
// ignored by JSON) but reject versions newer than they understand, so a
// monitor talking to a newer server fails loudly instead of mis-reading.
const TelemetryVersion = 1

// TelemetryPeer is one outbound peer link of the reporting server.
type TelemetryPeer struct {
	// Peer is the remote server's stable ID.
	Peer int `json:"peer"`
	// OutboxDepth is the number of frames queued on the link right now.
	OutboxDepth int `json:"outbox_depth"`
	// Failed reports a severed link awaiting the reconnect loop.
	Failed bool `json:"failed,omitempty"`
}

// Telemetry is one server's self-reported health snapshot, served by
// spyker-live's /debug/telemetry endpoint and consumed by cmd/spyker-mon.
// All times are seconds on the reporting process's own clock (wall
// seconds since process start — the same clock that stamps its trace
// events), so cross-server comparisons must be made on durations
// (TokenSilence), never on absolute values.
type Telemetry struct {
	Version int `json:"version"`
	// Time is the snapshot instant on the reporting server's clock.
	Time float64 `json:"t"`
	// Server is the reporting server's stable ID.
	Server int `json:"server"`
	// Addr is the server's protocol listen address; DebugAddr (when the
	// server knows it) the address of its debug HTTP endpoint.
	Addr      string `json:"addr,omitempty"`
	DebugAddr string `json:"debug_addr,omitempty"`

	// Ring membership view: epoch, member IDs, and the learned address
	// book aligned with Members (empty string where unknown). Monitors
	// use Members/Addrs to discover servers that joined after they
	// started.
	Epoch   int      `json:"epoch"`
	Members []int    `json:"members,omitempty"`
	Addrs   []string `json:"addrs,omitempty"`

	// Token state: whether this server holds the synchronization token,
	// and how long ago it last saw the token move (a token frame sent or
	// received). A healthy ring hands the token around continuously, so
	// every server's TokenSilence stays bounded by the ring round-trip;
	// cluster-wide min(TokenSilence) blowing up is the stall signal.
	HoldsToken   bool    `json:"holds_token,omitempty"`
	TokenSilence float64 `json:"token_silence"`
	TokenTimeout float64 `json:"token_timeout,omitempty"`
	SyncRetry    float64 `json:"sync_retry,omitempty"`

	// Protocol progress: model age, the per-member age vector as known
	// here, and the merged-updates frontier (vector clock).
	Age      float64   `json:"age"`
	Ages     []float64 `json:"ages,omitempty"`
	Frontier []int64   `json:"frontier,omitempty"`

	Updates        int64 `json:"updates"`
	SyncsTriggered int   `json:"syncs_triggered"`
	SyncsJoined    int   `json:"syncs_joined"`
	TokenRegens    int   `json:"token_regens"`
	MaxBidSeen     int   `json:"max_bid_seen"`

	// Peer links, sorted by peer ID; FailedOutboxes counts the severed
	// ones, PeerReconnects successful redials since process start.
	Peers          []TelemetryPeer `json:"peers,omitempty"`
	FailedOutboxes int             `json:"failed_outboxes"`
	PeerReconnects int64           `json:"peer_reconnects"`

	// The server's frame-buffer pool: vectors checked out right now, and
	// Gets its free-list has served since process start.
	PoolLive     int64 `json:"pool_live"`
	PoolRecycled int64 `json:"pool_recycled"`

	// Cumulative staleness histogram of the client updates this server
	// aggregated since it was instrumented (bounds as in StalenessBuckets,
	// counts with one overflow bucket). Monitors diff consecutive
	// snapshots to recover the staleness distribution of each polling
	// interval.
	StalenessBounds []float64 `json:"staleness_bounds,omitempty"`
	StalenessCounts []int64   `json:"staleness_counts,omitempty"`
	StalenessSum    float64   `json:"staleness_sum,omitempty"`

	// Audit is the contribution audit plane's per-client view (nil when
	// auditing is disarmed). The field is additive — version 1 decoders
	// that predate it simply ignore it.
	Audit *TelemetryAudit `json:"audit,omitempty"`
}

// TelemetryAuditClient is one audited client's windowed statistics as
// maintained by internal/obs/audit: robust per-client norm/direction
// profiles plus the anomaly rules currently flagging the client.
type TelemetryAuditClient struct {
	Client  int   `json:"client"`
	Updates int64 `json:"updates"`
	// MedianNorm is the median L2 norm of the client's recent update
	// deltas; NormZ its robust (median/MAD) z-score against the other
	// clients of the same server.
	MedianNorm float64 `json:"median_norm"`
	NormZ      float64 `json:"norm_z"`
	// MedianCos is the windowed median cosine similarity of the client's
	// deltas against the server's reference direction (EMA of recently
	// merged deltas).
	MedianCos float64 `json:"median_cos"`
	// MeanGap is the client's inter-update cadence in stream seconds;
	// LastStale the staleness of its latest update.
	MeanGap   float64 `json:"mean_gap,omitempty"`
	LastStale float64 `json:"last_stale,omitempty"`
	// LayerNorms is the EMA of the per-layer (or per-segment) share of
	// the delta norm — the update's "shape" profile.
	LayerNorms []float64 `json:"layer_norms,omitempty"`
	// Flags lists the anomaly rules currently flagging this client, in
	// the audit package's fixed rule order; empty for honest-looking
	// clients.
	Flags []string `json:"flags,omitempty"`
}

// TelemetryAudit is the audit section of a telemetry snapshot.
type TelemetryAudit struct {
	// Updates counts audited client updates since process start; Flagged
	// the clients with at least one active anomaly flag.
	Updates int64 `json:"updates"`
	Flagged int   `json:"flagged"`
	// Clients holds one row per audited client, sorted by client ID.
	Clients []TelemetryAuditClient `json:"clients,omitempty"`
}

// StalenessTotal sums the histogram counts (number of aggregated updates
// with a recorded staleness).
func (t *Telemetry) StalenessTotal() int64 {
	var n int64
	for _, c := range t.StalenessCounts {
		n += c
	}
	return n
}

// WriteTelemetry encodes one snapshot as JSON (one object, trailing
// newline).
func WriteTelemetry(w io.Writer, t *Telemetry) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// ReadTelemetry decodes one snapshot, rejecting unknown future versions
// and structurally impossible snapshots.
func ReadTelemetry(r io.Reader) (*Telemetry, error) {
	var t Telemetry
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("obs: decode telemetry: %w", err)
	}
	if t.Version <= 0 || t.Version > TelemetryVersion {
		return nil, fmt.Errorf("obs: telemetry version %d (this build understands <= %d)",
			t.Version, TelemetryVersion)
	}
	if t.Server < 0 {
		return nil, fmt.Errorf("obs: telemetry with negative server ID %d", t.Server)
	}
	if len(t.StalenessCounts) != 0 && len(t.StalenessCounts) != len(t.StalenessBounds)+1 {
		return nil, fmt.Errorf("obs: telemetry staleness histogram shape %d counts for %d bounds",
			len(t.StalenessCounts), len(t.StalenessBounds))
	}
	return &t, nil
}
