package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// This file reconstructs causal update lineage from a protocol event
// trace: for every client update, which servers its contribution reached,
// through which synchronization rounds, and how long end-to-end
// propagation took. It is runtime-agnostic — the simulator and the live
// TCP runtime emit the same events, so the same analysis applies to both.
//
// It rests on each server's merged-updates frontier, a vector clock of how
// many client updates of each origin server its model incorporates, which
// replayFrontiers rebuilds from the events (no event carries it). A
// client-update event at server i names the update (origin i, seq = the
// new coordinate i); every coordinate a server-agg event at j advances
// names updates whose influence just reached j through the copy it merged.
// Aggregation is a weighted average, so "reached" means causal influence,
// not verbatim inclusion — exactly the propagation guarantee the
// protocol's convergence argument relies on.

// Arrival is one hop of an update's journey: its influence reached Server
// at Time, carried by Via's model broadcast of synchronization round Bid.
type Arrival struct {
	Server int
	Via    int
	Bid    int
	Time   float64
}

// UpdateLineage is the reconstructed journey of one client update.
type UpdateLineage struct {
	UID    UID   // trace context minted at the client (zero in legacy traces)
	Client int   // contributing client
	Origin int   // server that merged the update first
	Seq    int64 // per-origin merge sequence number (1-based)
	Merged float64
	// Arrivals lists the servers the update's influence reached after the
	// origin, in time order. A server appears at most once (first reach).
	Arrivals []Arrival
}

// Name renders the update's identity: its UID when traced end to end,
// otherwise the server-side (origin, seq) coordinate.
func (u *UpdateLineage) Name() string {
	if u.UID != 0 {
		return u.UID.String()
	}
	return fmt.Sprintf("s%d@%d", u.Origin, u.Seq)
}

// ReachedAll reports whether the update reached all n servers.
func (u *UpdateLineage) ReachedAll(n int) bool { return len(u.Arrivals) >= n-1 }

// PropagationLatency reports the time from the origin merge to the last
// recorded arrival (0 when the update never left its origin).
func (u *UpdateLineage) PropagationLatency() float64 {
	if len(u.Arrivals) == 0 {
		return 0
	}
	return u.Arrivals[len(u.Arrivals)-1].Time - u.Merged
}

// Lineage is the causal digest of a trace.
type Lineage struct {
	NumServers int // distinct servers observed aggregating
	Updates    []*UpdateLineage
}

// BuildLineage reconstructs update lineage from a trace. Events need not
// be sorted. A trace with no client-update events yields an empty lineage,
// never an error — old traces stay loadable.
func BuildLineage(events []Event) *Lineage {
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })

	l := &Lineage{}
	byKey := make(map[[2]int64]*UpdateLineage) // (origin, seq)
	known := make(map[int][]int64)             // per server, the most its frontier ever held
	replayFrontiers(evs, func(e *Event, front []int64) {
		l.NumServers = max(l.NumServers, e.Node+1)
		if e.Kind == KindClientUpdate {
			u := &UpdateLineage{UID: e.UID, Client: e.Peer, Origin: e.Node, Seq: front[e.Node], Merged: e.Time}
			l.Updates = append(l.Updates, u)
			byKey[[2]int64{int64(e.Node), u.Seq}] = u
		}
		k := grow(known[e.Node], len(front))
		for o, v := range front {
			for seq := k[o] + 1; e.Kind == KindServerAgg && o != e.Node && seq <= v; seq++ {
				if u := byKey[[2]int64{int64(o), seq}]; u != nil {
					u.Arrivals = append(u.Arrivals, Arrival{Server: e.Node, Via: e.Peer, Bid: e.Bid, Time: e.Time})
				}
			}
			k[o] = max(k[o], v)
		}
		known[e.Node] = k
	})
	return l
}

// replayFrontiers rebuilds every server's frontier from the time-sorted
// events evs and hands each client-update and server-agg event to visit,
// with its server's frontier just after it (valid only during the call):
//
//   - KindClientUpdate at i advances coordinate i;
//   - KindSyncStart at i records i's frontier under the copy's UID, and
//     KindServerAgg max-merges the latest frontier recorded under the UID
//     it names;
//   - KindCheckpoint at i records i's frontier as a snapshot for its Peer
//     (i itself when NoPeer), and KindRestore replaces the frontier with
//     the snapshot it names (zeros when the trace does not hold it).
//
// Counts are relative to the trace's first event: frontiers start at
// zeros, so a trace a tracer ring truncated numbers each origin's updates
// from its first traced one. Each server's events are taken in its own
// order; among servers the earliest event goes next, unless it reads a
// copy or snapshot whose recording event is still to come, so an agg that
// clock-offset error stamped before its sender's sync-start (merged
// multi-process traces) still merges what the copy carried. A copy the
// trace does not hold (its sender's trace starts later) merges nothing.
func replayFrontiers(evs []Event, visit func(e *Event, front []int64)) {
	// src names what an event records or reads: a copy by its UID, a
	// snapshot by (whose state, for whom).
	src := func(e *Event) any {
		switch {
		case e.Kind == KindSyncStart || e.Kind == KindServerAgg:
			return e.UID
		case e.Kind == KindRestore:
			return [2]int{e.Peer, e.Node}
		case e.Peer == NoPeer:
			return [2]int{e.Node, e.Node}
		}
		return [2]int{e.Node, e.Peer}
	}
	queues := make(map[int][]int) // per server, its events' indices in order
	pending := make(map[any]int)  // recordings still to be replayed
	for i := range evs {
		switch e := &evs[i]; e.Kind {
		case KindSyncStart, KindCheckpoint:
			pending[src(e)]++
			fallthrough
		case KindClientUpdate, KindServerAgg, KindRestore:
			queues[e.Node] = append(queues[e.Node], i)
		}
	}
	fronts := make(map[int][]int64)
	saved := make(map[any][]int64)
	// A server's own checkpoints precede its restore in its own order.
	waits := func(e *Event) bool {
		_, ok := saved[src(e)]
		return (e.Kind == KindServerAgg || e.Kind == KindRestore && e.Peer != e.Node) && !ok && pending[src(e)] > 0
	}
	for {
		next, free := -1, false
		for _, q := range queues { // the pick is by index: the order of a map range cannot move it
			if len(q) > 0 {
				if ok := !waits(&evs[q[0]]); next < 0 || ok && !free || ok == free && q[0] < next {
					next, free = q[0], ok
				}
			}
		}
		if next < 0 {
			return
		}
		e := &evs[next]
		queues[e.Node] = queues[e.Node][1:]
		f := fronts[e.Node]
		switch e.Kind {
		case KindClientUpdate:
			f = grow(f, e.Node+1)
			f[e.Node]++
		case KindServerAgg:
			copied := saved[e.UID]
			f = grow(f, len(copied))
			for o, v := range copied {
				f[o] = max(f[o], v)
			}
		case KindRestore:
			f = append(f[:0], saved[src(e)]...)
		default: // a sync-start or a checkpoint
			saved[src(e)] = append([]int64(nil), f...)
			pending[src(e)]--
		}
		fronts[e.Node] = f
		if e.Kind == KindClientUpdate || e.Kind == KindServerAgg {
			visit(e, f)
		}
	}
}

// grow extends f with zeros to at least n entries.
func grow(f []int64, n int) []int64 {
	if len(f) < n {
		f = append(f, make([]int64, n-len(f))...)
	}
	return f
}

// HopChain reconstructs the causal path an update took to reach server:
// the sequence of arrivals, origin-side first, ending at server. It
// follows each arrival's Via pointer backwards — influence reached
// `server` through `via`, which itself received it earlier (or is the
// origin). A nil return means the update never reached server.
func (u *UpdateLineage) HopChain(server int) []Arrival {
	at := make(map[int]*Arrival, len(u.Arrivals))
	for i := range u.Arrivals {
		at[u.Arrivals[i].Server] = &u.Arrivals[i]
	}
	var chain []Arrival
	cur := server
	for cur != u.Origin {
		a, ok := at[cur]
		if !ok || len(chain) > len(u.Arrivals) { // unreachable or cycle guard
			return nil
		}
		chain = append(chain, *a)
		cur = a.Via
	}
	slices.Reverse(chain) // origin first
	return chain
}

// quantile reads the q-quantile from an ascending-sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// WriteProvenance renders the lineage digest: propagation coverage, the
// latency distribution, and the full journey of up to maxJourneys updates
// (slowest fully-propagated first, so the interesting tail leads).
func (l *Lineage) WriteProvenance(w io.Writer, maxJourneys int) {
	fmt.Fprintf(w, "provenance: %d traced updates across %d servers\n", len(l.Updates), l.NumServers)
	if len(l.Updates) == 0 {
		fmt.Fprintf(w, "  no provenance data — no updates flowed\n")
		return
	}

	var lat []float64 // of every update that reached all servers, ascending
	for _, u := range l.Updates {
		if u.ReachedAll(l.NumServers) {
			lat = append(lat, u.PropagationLatency())
		}
	}
	sort.Float64s(lat)
	fmt.Fprintf(w, "  fully propagated: %d/%d (%.1f%%)\n",
		len(lat), len(l.Updates), 100*float64(len(lat))/float64(len(l.Updates)))
	if len(lat) > 0 {
		var sum float64
		for _, v := range lat {
			sum += v
		}
		fmt.Fprintf(w, "  propagation latency: mean %.3fs  p50 %.3fs  p99 %.3fs  max %.3fs\n",
			sum/float64(len(lat)), quantile(lat, 0.50), quantile(lat, 0.99), lat[len(lat)-1])
	}

	if maxJourneys <= 0 {
		return
	}
	// Slowest fully-propagated journeys first; partial journeys after.
	ordered := append([]*UpdateLineage(nil), l.Updates...)
	sort.SliceStable(ordered, func(i, j int) bool {
		fi, fj := ordered[i].ReachedAll(l.NumServers), ordered[j].ReachedAll(l.NumServers)
		if fi != fj {
			return fi
		}
		return ordered[i].PropagationLatency() > ordered[j].PropagationLatency()
	})
	if len(ordered) > maxJourneys {
		ordered = ordered[:maxJourneys]
	}
	fmt.Fprintf(w, "\nupdate journeys (slowest fully-propagated first):\n")
	for _, u := range ordered {
		fmt.Fprintf(w, "  %s: origin s%d @ %.3fs", u.Name(), u.Origin, u.Merged)
		if !u.ReachedAll(l.NumServers) {
			fmt.Fprintf(w, "  [reached %d/%d servers]", 1+len(u.Arrivals), l.NumServers)
		}
		fmt.Fprintln(w)
		for _, a := range u.Arrivals {
			fmt.Fprintf(w, "    -> s%d @ %.3fs (+%.3fs, via s%d broadcast, sync #%d)\n",
				a.Server, a.Time, a.Time-u.Merged, a.Via, a.Bid)
		}
	}
}

// WriteCritPath renders the critical-path analysis: for the top slowest
// fully-propagated updates, the hop chain to their last-reached server
// with per-hop dwell times, plus the hop pairs that appear most often on
// critical paths — the links to optimize first.
func (l *Lineage) WriteCritPath(w io.Writer, top int) {
	type slow struct {
		u   *UpdateLineage
		lat float64
	}
	var slows []slow
	for _, u := range l.Updates {
		if u.ReachedAll(l.NumServers) && len(u.Arrivals) > 0 {
			slows = append(slows, slow{u, u.PropagationLatency()})
		}
	}
	fmt.Fprintf(w, "critical paths: %d fully-propagated updates across %d servers\n",
		len(slows), l.NumServers)
	if len(slows) == 0 {
		fmt.Fprintf(w, "  no update propagated to every server in this trace\n")
		return
	}
	sort.SliceStable(slows, func(i, j int) bool { return slows[i].lat > slows[j].lat })

	hopCount := make(map[[2]int]int)
	hopDwell := make(map[[2]int]float64)
	for _, s := range slows {
		last := s.u.Arrivals[len(s.u.Arrivals)-1]
		chain := s.u.HopChain(last.Server)
		prevT := s.u.Merged
		for _, a := range chain {
			k := [2]int{a.Via, a.Server}
			hopCount[k]++
			hopDwell[k] += a.Time - prevT
			prevT = a.Time
		}
	}

	if top > len(slows) {
		top = len(slows)
	}
	fmt.Fprintf(w, "\nslowest %d end-to-end propagations:\n", top)
	for _, s := range slows[:top] {
		last := s.u.Arrivals[len(s.u.Arrivals)-1]
		chain := s.u.HopChain(last.Server)
		fmt.Fprintf(w, "  %s  %.3fs total: s%d @ %.3fs", s.u.Name(), s.lat, s.u.Origin, s.u.Merged)
		prevT := s.u.Merged
		for _, a := range chain {
			fmt.Fprintf(w, " ->(+%.3fs sync #%d) s%d", a.Time-prevT, a.Bid, a.Server)
			prevT = a.Time
		}
		fmt.Fprintln(w)
	}

	type hopStat struct {
		hop   [2]int
		count int
		mean  float64
	}
	var hs []hopStat
	for k, c := range hopCount {
		hs = append(hs, hopStat{k, c, hopDwell[k] / float64(c)})
	}
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].count != hs[j].count {
			return hs[i].count > hs[j].count
		}
		return hs[i].hop[0]*1e6+hs[i].hop[1] < hs[j].hop[0]*1e6+hs[j].hop[1]
	})
	fmt.Fprintf(w, "\ncritical-path hops (count x mean segment time):\n")
	for _, h := range hs {
		fmt.Fprintf(w, "  s%d -> s%d: %d paths, mean %.3fs\n", h.hop[0], h.hop[1], h.count, h.mean)
	}
}
