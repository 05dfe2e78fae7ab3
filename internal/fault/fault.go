// Package fault is the failure-injection subsystem: a declarative,
// seeded fault plan (who fails, when, how, for how long) plus injectors
// that execute it against either runtime.
//
// In the discrete-event simulator the SimInjector schedules server
// crash/restart, token drops, and link partitions/latency-spikes/message
// drop-or-duplication through internal/simulation and internal/geo — the
// whole faulty run stays byte-deterministic given Plan.Seed, because every
// random draw comes from one seeded generator consumed in schedule order.
// In the live TCP runtime, Conn wraps a transport.Sender to drop or sever
// real connections, and Proc drives process-level kill and
// checkpoint-restore restart of spyker-live servers.
//
// Injection is one half of the story; the matching recovery machinery
// (silence-timeout token-loss detection, bid-based token regeneration,
// stuck-round retry) lives in internal/spyker — see Config.TokenTimeout
// and Config.SyncRetry there.
package fault

import (
	"fmt"
	"math/rand"
	"sort"
)

// Kind discriminates fault events.
type Kind int

// The fault vocabulary.
const (
	// KindCrash takes Server down at At: its volatile state (including a
	// held token) is lost and every message addressed to it while down is
	// discarded. It restarts Duration seconds later from its most recent
	// checkpoint (or from the initial model if none was taken); Duration 0
	// means the server never comes back.
	KindCrash Kind = iota + 1
	// KindTokenDrop silently discards the token held by Server at At — the
	// pure token-loss fault, isolating recovery from crash effects.
	KindTokenDrop
	// KindPartition drops every message between Src and Dst (both
	// directions) during [At, At+Duration).
	KindPartition
	// KindLinkDelay adds Extra seconds of one-way latency on the directed
	// link Src->Dst during [At, At+Duration).
	KindLinkDelay
	// KindLinkDrop drops each message on the directed link Src->Dst with
	// probability P during [At, At+Duration).
	KindLinkDrop
	// KindLinkDup duplicates each message on the directed link Src->Dst
	// with probability P during [At, At+Duration).
	KindLinkDup
	// KindJoin adds a new server to the ring at At, sponsored by Server
	// (or by whichever server holds the token, with the TokenHolder
	// sentinel): the sponsor hands the newcomer its model plus age
	// knowledge, bumps the membership epoch, and re-homes part of its
	// clients.
	KindJoin
	// KindLeave removes Server from the ring at At: the token is handed
	// off or dropped, a survivor announces the epoch bump excluding it,
	// and its clients re-home to their nearest surviving servers.
	KindLeave
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCrash:
		return "crash"
	case KindTokenDrop:
		return "token-drop"
	case KindPartition:
		return "partition"
	case KindLinkDelay:
		return "link-delay"
	case KindLinkDrop:
		return "link-drop"
	case KindLinkDup:
		return "link-dup"
	case KindJoin:
		return "join"
	case KindLeave:
		return "leave"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// TokenHolder is a sentinel for Event.Server: resolve the target to
// whichever server holds the token at injection time (falling back to
// server 0 if the token is in flight at that instant).
const TokenHolder = -1

// Any is a wildcard for Event.Src / Event.Dst: the link rule applies to
// every server on that side.
const Any = -1

// Event is one planned fault. Which fields are meaningful depends on
// Kind: Server targets crash/token faults (or TokenHolder), Src/Dst name
// the servers of a link fault (or Any), Duration bounds the fault window,
// Extra is KindLinkDelay's added latency, and P the per-message
// probability for KindLinkDrop/KindLinkDup.
type Event struct {
	At       float64
	Kind     Kind
	Server   int
	Src, Dst int
	Duration float64
	Extra    float64
	P        float64
}

// Plan is a declarative fault schedule. The zero plan injects nothing.
type Plan struct {
	// Seed feeds the injector's private generator; equal plans with equal
	// seeds reproduce the exact same faulty run.
	Seed int64
	// CheckpointEvery > 0 makes the sim injector checkpoint every server
	// periodically, so a crashed server restarts from its last periodic
	// snapshot and loses the progress since. Zero means crash-consistent:
	// a snapshot is taken immediately before each crash, isolating
	// token-loss recovery from state loss.
	CheckpointEvery float64
	Events          []Event
}

// Validate rejects structurally impossible plans: negative times or
// windows, probabilities outside [0,1], unknown kinds.
func (p *Plan) Validate(numServers int) error {
	if p.CheckpointEvery < 0 {
		return fmt.Errorf("fault: negative CheckpointEvery %v", p.CheckpointEvery)
	}
	// Join events enlarge the server set at runtime, so later events may
	// legitimately reference IDs past the construction-time count.
	maxID := numServers
	for _, e := range p.Events {
		if e.Kind == KindJoin {
			maxID++
		}
	}
	for i, e := range p.Events {
		if e.At < 0 || e.Duration < 0 {
			return fmt.Errorf("fault: event %d has negative time window (at=%v dur=%v)", i, e.At, e.Duration)
		}
		switch e.Kind {
		case KindCrash, KindTokenDrop:
			if e.Server != TokenHolder && (e.Server < 0 || e.Server >= numServers) {
				return fmt.Errorf("fault: event %d targets server %d of %d", i, e.Server, numServers)
			}
		case KindJoin, KindLeave:
			if e.Server != TokenHolder && (e.Server < 0 || e.Server >= maxID) {
				return fmt.Errorf("fault: event %d targets server %d of at most %d (with joins)", i, e.Server, maxID)
			}
		case KindPartition, KindLinkDelay, KindLinkDrop, KindLinkDup:
			for _, s := range [2]int{e.Src, e.Dst} {
				if s != Any && (s < 0 || s >= numServers) {
					return fmt.Errorf("fault: event %d link endpoint %d of %d servers", i, s, numServers)
				}
			}
			if e.P < 0 || e.P > 1 {
				return fmt.Errorf("fault: event %d probability %v outside [0,1]", i, e.P)
			}
			if e.Duration == 0 {
				return fmt.Errorf("fault: event %d link fault with zero duration", i)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// CrashPlan generates a plan with `crashes` token-holder crashes spread
// over the middle of [0, horizon): crash times are drawn uniformly from
// [0.2·horizon, 0.85·horizon) by a generator seeded with seed, sorted,
// and each takes down whichever server holds the token at that moment for
// `downtime` seconds. Deterministic: equal arguments, equal plan.
func CrashPlan(seed int64, crashes int, horizon, downtime float64) Plan {
	rng := rand.New(rand.NewSource(seed))
	times := make([]float64, crashes)
	for i := range times {
		times[i] = (0.2 + float64(0.65*rng.Float64())) * horizon
	}
	sort.Float64s(times)
	p := Plan{Seed: seed}
	for _, at := range times {
		p.Events = append(p.Events, Event{
			At: at, Kind: KindCrash, Server: TokenHolder, Duration: downtime,
		})
	}
	return p
}
