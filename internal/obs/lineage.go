package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// This file reconstructs causal update lineage from a protocol event
// trace: for every client update, which servers its contribution reached,
// through which synchronization rounds, and how long end-to-end
// propagation took. It is runtime-agnostic — the simulator and the live
// TCP runtime emit the same frontier-carrying events, so the same
// analysis applies to both.
//
// The reconstruction rests on the merged-updates frontier the Spyker core
// maintains (spyker.ServerCore): a vector clock, indexed by origin
// server, counting how many client updates are incorporated into a
// model. A client-update event at server i advances coordinate i and
// names the update (origin i, seq = Front[i]); a server-agg event at
// server j max-merges the broadcast's frontier, and every coordinate it
// advances identifies updates whose influence just reached j through
// that broadcast. Aggregation is a weighted average, so "reached" means
// causal influence, not verbatim inclusion — exactly the propagation
// guarantee the protocol's convergence argument relies on.

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
	// Untracked counts client-update events without a frontier (legacy
	// traces, or cores instrumented before the provenance extension).
	Untracked int

	byKey map[lineageKey]*UpdateLineage
}

type lineageKey struct {
	origin int
	seq    int64
}

// BuildLineage reconstructs update lineage from a trace. Events need not
// be sorted. Traces without frontier information yield an empty lineage
// with Untracked set, never an error — old traces stay loadable.
func BuildLineage(events []Event) *Lineage {
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })

	l := &Lineage{byKey: make(map[lineageKey]*UpdateLineage)}
	known := make(map[int][]int64) // per-server reconstructed frontier
	servers := make(map[int]bool)
	adopt := func(node int, front []int64) {
		dst := known[node]
		if len(dst) < len(front) {
			dst = append(dst, make([]int64, len(front)-len(dst))...)
		}
		for o, v := range front {
			if v > dst[o] {
				dst[o] = v
			}
		}
		known[node] = dst
	}

	for i := range evs {
		e := &evs[i]
		switch e.Kind {
		case KindClientUpdate:
			servers[e.Node] = true
			if len(e.Front) <= e.Node {
				l.Untracked++
				continue
			}
			seq := e.Front[e.Node]
			u := &UpdateLineage{
				UID: e.UID, Client: e.Peer, Origin: e.Node, Seq: seq, Merged: e.Time,
			}
			l.Updates = append(l.Updates, u)
			l.byKey[lineageKey{e.Node, seq}] = u
			adopt(e.Node, e.Front)
		case KindServerAgg:
			servers[e.Node] = true
			if len(e.Front) == 0 {
				continue
			}
			prev := known[e.Node]
			for o, v := range e.Front {
				var p int64
				if o < len(prev) {
					p = prev[o]
				}
				for seq := p + 1; seq <= v; seq++ {
					if u, ok := l.byKey[lineageKey{o, seq}]; ok && o != e.Node {
						u.Arrivals = append(u.Arrivals, Arrival{
							Server: e.Node, Via: e.Peer, Bid: e.Bid, Time: e.Time,
						})
					}
				}
			}
			adopt(e.Node, e.Front)
		}
	}
	for s := range servers {
		if s+1 > l.NumServers {
			l.NumServers = s + 1
		}
	}
	return l
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
	// Reverse into origin-first order.
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain
}

// PropagationLatencies returns the full-propagation latency of every
// update that reached all servers, sorted ascending.
func (l *Lineage) PropagationLatencies() []float64 {
	var out []float64
	for _, u := range l.Updates {
		if u.ReachedAll(l.NumServers) {
			out = append(out, u.PropagationLatency())
		}
	}
	sort.Float64s(out)
	return out
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
	if l.Untracked > 0 {
		fmt.Fprintf(w, "  (%d client-update events carried no frontier and are excluded)\n", l.Untracked)
	}
	if len(l.Updates) == 0 {
		fmt.Fprintf(w, "  no provenance data — trace predates causal tracing or no updates flowed\n")
		return
	}

	full := 0
	for _, u := range l.Updates {
		if u.ReachedAll(l.NumServers) {
			full++
		}
	}
	fmt.Fprintf(w, "  fully propagated: %d/%d (%.1f%%)\n",
		full, len(l.Updates), 100*float64(full)/float64(len(l.Updates)))
	if lat := l.PropagationLatencies(); len(lat) > 0 {
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
