// Package obs is the observability subsystem shared by both Spyker
// runtimes: a low-overhead structured event tracer (protocol events into a
// ring buffer, exported as JSONL or Chrome trace_event files) and a
// registry of counters and fixed-bucket histograms, which a MetricsSink
// derives from the same events.
//
// The package is deliberately passive: sinks only record what the runtime
// tells them and never schedule, block, or feed anything back, so enabling
// observability can never perturb the discrete-event schedule (see the
// determinism regression test in internal/experiments). The default sink
// is Nop, whose per-call cost is one interface dispatch, so fully
// uninstrumented runs pay effectively nothing.
//
// Time is a plain float64 in seconds. Under the simulator it is virtual
// time (simulation.Sim.Now); in the live TCP runtime it is wall time since
// process start (WallClock). Events never carry absolute wall-clock
// timestamps, which keeps traces reproducible and diffable.
package obs

import (
	"encoding/json"
	"fmt"
	"time"
)

// EventKind discriminates protocol events.
type EventKind uint8

// The protocol event vocabulary. The kinds mirror the moving parts of the
// Spyker protocol: client-update aggregation (Alg. 1), server-model
// aggregation and the token ring (Alg. 2), message movement on the
// network, and state checkpoints of the live runtime.
const (
	// KindClientUpdate fires after a server merged one client update.
	// Node = server, Peer = client, Age = server age after the merge,
	// Stale = server age at merge time minus the model age the client
	// trained on.
	KindClientUpdate EventKind = iota + 1
	// KindServerAgg fires after a server merged a peer's model broadcast.
	// Node = local server, Peer = remote server, Age = local age after
	// the merge, Stale = remote age minus local age before the merge.
	KindServerAgg
	// KindTokenPass fires when a server forwards the token to its ring
	// successor. Node = sender, Peer = successor, Bid = token bid.
	KindTokenPass
	// KindSyncStart fires when a server enters a synchronization round,
	// either triggering it as token holder (Note "trigger") or joining on
	// a peer's broadcast (Note "join"). Bid identifies the round.
	KindSyncStart
	// KindSyncEnd fires when the token holder completes a round and
	// releases the token.
	KindSyncEnd
	// KindMsgSend/KindMsgRecv record one message entering/leaving a link.
	// Node = local endpoint, Peer = remote endpoint, Bytes = wire size.
	KindMsgSend
	KindMsgRecv
	// KindCheckpoint fires when the live runtime persists a server
	// snapshot. Node = server, Bytes = encoded size.
	KindCheckpoint
	// KindFault fires when the failure injector (internal/fault) applies
	// one planned fault. Node = targeted server (NoPeer for link faults),
	// Note = a short description like "crash", "restart", or "partition
	// 0->1".
	KindFault
	// KindTokenRegen fires when a server's silence timeout expires and it
	// mints a replacement token. Node = regenerating server, Bid = the
	// fresh (strictly higher) bid the new token carries.
	KindTokenRegen
	// KindTokenRetire fires when a server discards a token: a stale
	// incoming one (Note "stale-incoming"), its own token superseded by a
	// higher-bid round (Note "superseded"), or an injected drop (Note
	// "injected-drop"). Bid = the retired token's bid.
	KindTokenRetire
	// KindMembership fires when a server adopts a new ring membership
	// epoch (elastic membership). Node = adopting server, Bid = the new
	// epoch, Note = why ("admit", "exclude", or "observed" for epochs
	// learned from message headers).
	KindMembership
	// KindAudit fires when the contribution audit plane
	// (internal/obs/audit) changes its verdict about a client: Node =
	// auditing server, Peer = audited client, Note = the rule name
	// ("norm-outlier", "direction-inversion", "collusion" — prefixed
	// "clear:" when the anomaly subsided), Score = the rule's score at
	// the transition (robust z, median cosine, or pairwise similarity),
	// Stale = the staleness of the client's latest update.
	KindAudit
	// KindReject fires when a live server refuses an inbound frame and
	// closes the connection it arrived on: malformed, over the size the
	// receiver allows, of the wrong model dimension, non-finite, or not
	// what the connection's hello permits. Node = refusing server, Peer =
	// the remote node in the message-event ID space (NoPeer before the
	// hello), Note = the check that failed.
	KindReject
)

// kindNames maps kinds to their stable wire names (used in JSONL traces).
var kindNames = map[EventKind]string{
	KindClientUpdate: "client-update",
	KindServerAgg:    "server-agg",
	KindTokenPass:    "token-pass",
	KindSyncStart:    "sync-start",
	KindSyncEnd:      "sync-end",
	KindMsgSend:      "msg-send",
	KindMsgRecv:      "msg-recv",
	KindCheckpoint:   "checkpoint",
	KindFault:        "fault",
	KindTokenRegen:   "token-regen",
	KindTokenRetire:  "token-retire",
	KindMembership:   "membership",
	KindAudit:        "audit",
	KindReject:       "reject",
}

// kindByName is the inverse of kindNames, built once at init.
var kindByName = func() map[string]EventKind {
	m := make(map[string]EventKind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// MarshalJSON encodes the kind as its stable name.
func (k EventKind) MarshalJSON() ([]byte, error) {
	n, ok := kindNames[k]
	if !ok {
		return nil, fmt.Errorf("obs: cannot marshal unknown event kind %d", int(k))
	}
	return json.Marshal(n)
}

// UnmarshalJSON decodes a kind from its stable name.
func (k *EventKind) UnmarshalJSON(b []byte) error {
	var n string
	if err := json.Unmarshal(b, &n); err != nil {
		return err
	}
	kind, ok := kindByName[n]
	if !ok {
		return fmt.Errorf("obs: unknown event kind %q", n)
	}
	*k = kind
	return nil
}

// Event is one traced protocol event. Which fields are meaningful depends
// on Kind (see the kind constants). Node and Peer are node IDs in the
// emitting runtime's ID space; Peer is NoPeer when there is no other
// party.
//
// UID and Front are the causal-provenance extension (see spans.go and
// lineage.go): UID is the trace context riding with the message or update
// the event belongs to, and Front is the emitting server's merged-updates
// frontier — a vector clock, indexed by origin server, of how many client
// updates are incorporated in its model. Both are optional; traces written
// before the extension load with them zero.
type Event struct {
	Time  float64   `json:"t"`
	Kind  EventKind `json:"kind"`
	Node  int       `json:"node"`
	Peer  int       `json:"peer"`
	Age   float64   `json:"age,omitempty"`
	Stale float64   `json:"stale,omitempty"`
	Bytes int       `json:"bytes,omitempty"`
	Bid   int       `json:"bid,omitempty"`
	Note  string    `json:"note,omitempty"`
	UID   UID       `json:"uid,omitempty"`
	Front []int64   `json:"front,omitempty"`
	// Score carries the triggering rule's score on KindAudit events
	// (zero elsewhere; traces written before the audit extension load
	// with it zero).
	Score float64 `json:"score,omitempty"`
}

// NoPeer marks events without a counterparty.
const NoPeer = -1

// ServerNode is the node-ID offset that keeps servers in a distinct ID
// space from clients in message events (protocol events like
// KindClientUpdate use raw server indices — there Node is always a
// server and Peer always a client or server index, so no offset is
// needed). Both runtimes and the geo network share this convention.
const ServerNode = 1_000_000

// NodeName renders a message-event node ID using the ServerNode
// convention: "s3" for servers, "c17" for clients.
func NodeName(id int) string {
	if id >= ServerNode {
		return fmt.Sprintf("s%d", id-ServerNode)
	}
	return fmt.Sprintf("c%d", id)
}

// Sink receives events. Implementations must be safe for concurrent use
// (the live runtime emits from many goroutines) and must never block on
// the caller: emitting is always fire-and-forget.
//
// Enabled lets hot paths skip building an Event at all; callers are
// expected to guard emissions with it so the disabled cost is a single
// interface call.
type Sink interface {
	Enabled() bool
	Emit(e Event)
}

// Nop is the default sink: disabled, drops everything.
type Nop struct{}

// Enabled implements Sink.
func (Nop) Enabled() bool { return false }

// Emit implements Sink.
func (Nop) Emit(Event) {}

// multi fans one emission out to several sinks.
type multi []Sink

// Multi combines sinks; nil and disabled members are dropped. It returns
// Nop when nothing remains, and the sink itself when exactly one remains.
func Multi(sinks ...Sink) Sink {
	var live multi
	for _, s := range sinks {
		if s == nil {
			continue
		}
		if _, isNop := s.(Nop); isNop {
			continue
		}
		live = append(live, s)
	}
	switch len(live) {
	case 0:
		return Nop{}
	case 1:
		return live[0]
	}
	return live
}

// Enabled implements Sink.
func (m multi) Enabled() bool {
	for _, s := range m {
		if s.Enabled() {
			return true
		}
	}
	return false
}

// Emit implements Sink.
func (m multi) Emit(e Event) {
	for _, s := range m {
		if s.Enabled() {
			s.Emit(e)
		}
	}
}

// Clock reports the current time in seconds; the simulator passes its
// virtual clock, the live runtime a wall clock.
type Clock func() float64

// WallClock returns a Clock measuring seconds since start.
func WallClock(start time.Time) Clock {
	return func() float64 { return time.Since(start).Seconds() }
}
