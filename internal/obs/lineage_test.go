package obs

import (
	"fmt"
	"strings"
	"testing"
)

func TestUIDEncodeDecode(t *testing.T) {
	u := UpdateUID(17, 3)
	if _, _, _, ok := u.Round(); ok {
		t.Fatalf("update UID decoded as a round: %v", u)
	}
	c, seq, ok := u.Update()
	if !ok || c != 17 || seq != 3 {
		t.Fatalf("Update() = (%d, %d, %v), want (17, 3, true)", c, seq, ok)
	}
	if got := u.String(); got != "c17#3" {
		t.Fatalf("String() = %q, want c17#3", got)
	}

	for _, w := range []struct {
		server, bid, c int
		str            string
	}{{2, 5, 0, "s2/sync#5"}, {2, 5, 3, "s2/sync#5.3"}, {9998, uidBase - 1, 900_000, "s9998/sync#999999999.900000"}} {
		r := RoundUID(w.server, w.bid, w.c)
		if _, _, ok := r.Update(); ok {
			t.Fatalf("round UID decoded as an update: %v", r)
		}
		s, bid, c, ok := r.Round()
		if !ok || s != w.server || bid != w.bid || c != w.c {
			t.Fatalf("Round() = (%d, %d, %d, %v), want (%d, %d, %d, true)", s, bid, c, ok, w.server, w.bid, w.c)
		}
		if got := r.String(); got != w.str {
			t.Fatalf("String() = %q, want %s", got, w.str)
		}
	}
	if RoundUID(2, 5, 0) != -UID(3*uidBase+5) {
		t.Fatal("copy 0 must keep the round UID of traces written before copies existed")
	}

	var zero UID
	if _, _, ok := zero.Update(); ok {
		t.Fatal("zero UID must not decode as update")
	}
	if _, _, _, ok := zero.Round(); ok {
		t.Fatal("zero UID must not decode as round")
	}
	if zero.String() != "-" {
		t.Fatalf("zero String() = %q, want -", zero.String())
	}
}

// journeyEvents builds a 3-server trace where client 7's first update
// merges at server 0, reaches server 1 via server 0's round-1 broadcast,
// and reaches server 2 only later via server 1's round-2 broadcast — a
// genuine two-hop relay.
func journeyEvents() []Event {
	uid := UpdateUID(7, 1)
	return []Event{
		{Time: 1.0, Kind: KindClientUpdate, Node: 0, Peer: 7, UID: uid},
		// Round 1: server 0 broadcasts; only server 1 merges it.
		{Time: 1.5, Kind: KindSyncStart, Node: 0, Peer: NoPeer, Bid: 1, UID: RoundUID(0, 1, 0)},
		{Time: 2.0, Kind: KindServerAgg, Node: 1, Peer: 0, Bid: 1, UID: RoundUID(0, 1, 0)},
		// Round 2: server 1 relays; server 2 merges and the update arrives
		// there through server 1, not server 0.
		{Time: 3.0, Kind: KindSyncStart, Node: 1, Peer: NoPeer, Bid: 2, UID: RoundUID(1, 2, 0)},
		{Time: 3.5, Kind: KindServerAgg, Node: 2, Peer: 1, Bid: 2, UID: RoundUID(1, 2, 0)},
	}
}

func TestBuildLineageTwoHopJourney(t *testing.T) {
	l := BuildLineage(journeyEvents())
	if l.NumServers != 3 {
		t.Fatalf("NumServers = %d, want 3", l.NumServers)
	}
	if len(l.Updates) != 1 {
		t.Fatalf("updates = %d, want 1", len(l.Updates))
	}
	u := l.Updates[0]
	if u.Origin != 0 || u.Client != 7 || u.Seq != 1 || u.Merged != 1.0 {
		t.Fatalf("journey header wrong: %+v", u)
	}
	if u.UID != UpdateUID(7, 1) {
		t.Fatalf("UID = %v, want %v", u.UID, UpdateUID(7, 1))
	}
	if !u.ReachedAll(3) {
		t.Fatalf("update should have reached all 3 servers: %+v", u.Arrivals)
	}
	requireArrivals(t, u, Arrival{Server: 1, Via: 0, Bid: 1, Time: 2.0}, Arrival{Server: 2, Via: 1, Bid: 2, Time: 3.5})
	if got := u.PropagationLatency(); got != 2.5 {
		t.Fatalf("propagation latency = %v, want 2.5", got)
	}

	// The hop chain to server 2 must pass through server 1.
	chain := u.HopChain(2)
	if len(chain) != 2 || chain[0].Server != 1 || chain[1].Server != 2 {
		t.Fatalf("hop chain = %+v, want s0 -> s1 -> s2", chain)
	}
	if u.HopChain(0) != nil && len(u.HopChain(0)) != 0 {
		t.Fatalf("chain to the origin must be empty, got %+v", u.HopChain(0))
	}
}

// requireArrivals fails t unless u's arrivals are want, in order.
func requireArrivals(t *testing.T, u *UpdateLineage, want ...Arrival) {
	t.Helper()
	if len(u.Arrivals) != len(want) {
		t.Fatalf("%s arrivals = %+v, want %+v", u.Name(), u.Arrivals, want)
	}
	for i, w := range want {
		if u.Arrivals[i] != w {
			t.Fatalf("%s arrival %d = %+v, want %+v", u.Name(), i, u.Arrivals[i], w)
		}
	}
}

func TestBuildLineageServerArrivalOnce(t *testing.T) {
	// A re-broadcast carrying an already-merged frontier must not record a
	// second arrival at the same server.
	evs := journeyEvents()
	evs = append(evs,
		Event{Time: 8, Kind: KindSyncStart, Node: 2, Peer: NoPeer, Bid: 3, UID: RoundUID(2, 3, 0)},
		Event{Time: 9, Kind: KindServerAgg, Node: 1, Peer: 2, Bid: 3, UID: RoundUID(2, 3, 0)},
	)
	l := BuildLineage(evs)
	if n := len(l.Updates[0].Arrivals); n != 2 {
		t.Fatalf("arrivals = %d after duplicate-frontier broadcast, want 2", n)
	}
}

// TestBuildLineageLegacyTraceLoads: pre-provenance events (no UIDs, no
// sync-starts) build a lineage of their updates, which no copy UID
// connects to another server, and never an error.
func TestBuildLineageLegacyTraceLoads(t *testing.T) {
	evs := []Event{
		{Time: 1, Kind: KindClientUpdate, Node: 0, Peer: 3, Age: 2, Stale: 1},
		{Time: 2, Kind: KindServerAgg, Node: 1, Peer: 0, Bid: 1},
	}
	l := BuildLineage(evs)
	if len(l.Updates) != 1 || len(l.Updates[0].Arrivals) != 0 || l.Updates[0].Name() != "s0@1" {
		t.Fatalf("legacy trace lineage: %+v", l.Updates)
	}
}

// TestReplayFrontierAdvancesAndMerges: a client update advances only its
// server's own coordinate; a merge max-merges what the copy it names
// carried, so a stale copy cannot move a frontier back and an untraced
// merge (no copy UID) merges nothing.
func TestReplayFrontierAdvancesAndMerges(t *testing.T) {
	var evs []Event
	at := func(e Event) { e.Time = float64(len(evs)); evs = append(evs, e) }
	update := func(node, n int) {
		for range n {
			at(Event{Kind: KindClientUpdate, Node: node})
		}
	}
	update(0, 1)
	update(1, 5)
	update(2, 2)
	at(Event{Kind: KindSyncStart, Node: 2, UID: RoundUID(2, 1, 0)})
	at(Event{Kind: KindServerAgg, Node: 1, Peer: 2, UID: RoundUID(2, 1, 0)})
	at(Event{Kind: KindSyncStart, Node: 1, UID: RoundUID(1, 2, 0)})
	at(Event{Kind: KindServerAgg, Node: 0, Peer: 1, UID: RoundUID(1, 2, 0)})
	at(Event{Kind: KindServerAgg, Node: 0, Peer: 2, UID: RoundUID(2, 1, 0)}) // stale
	at(Event{Kind: KindServerAgg, Node: 0, Peer: 2})                         // untraced
	var got []string
	replayFrontiers(evs, func(e *Event, front []int64) {
		got = append(got, fmt.Sprintf("s%d%v", e.Node, front))
	})
	want := "[s0[1] s1[0 1] s1[0 2] s1[0 3] s1[0 4] s1[0 5] s2[0 0 1] s2[0 0 2] s1[0 5 2] s0[1 5 2] s0[1 5 2] s0[1 5 2]]"
	if fmt.Sprint(got) != want {
		t.Fatalf("frontiers %v\nwant      %s", got, want)
	}
}

// TestReplayMergesTheCopyNamed: a retry copy carries what its sender had
// merged when it was sent, so a peer that merges the original copy after
// the retry was sent (a slow link) is credited with the original's updates
// only, and with the rest when the retry lands.
func TestReplayMergesTheCopyNamed(t *testing.T) {
	evs := []Event{
		{Time: 1, Kind: KindClientUpdate, Node: 0, Peer: 4, UID: UpdateUID(4, 1)},
		{Time: 2, Kind: KindSyncStart, Node: 0, Peer: NoPeer, Bid: 1, Note: "trigger", UID: RoundUID(0, 1, 0)},
		{Time: 3, Kind: KindClientUpdate, Node: 0, Peer: 5, UID: UpdateUID(5, 1)},
		{Time: 4.5, Kind: KindSyncStart, Node: 0, Peer: NoPeer, Bid: 1, Note: "retry", UID: RoundUID(0, 1, 1)},
		{Time: 6, Kind: KindServerAgg, Node: 1, Peer: 0, Bid: 1, UID: RoundUID(0, 1, 0)},
		{Time: 7, Kind: KindServerAgg, Node: 1, Peer: 0, Bid: 1, UID: RoundUID(0, 1, 1)},
	}
	l := BuildLineage(evs)
	requireArrivals(t, l.Updates[0], Arrival{Server: 1, Via: 0, Bid: 1, Time: 6})
	requireArrivals(t, l.Updates[1], Arrival{Server: 1, Via: 0, Bid: 1, Time: 7})
}

// TestReplayRestoresTheSnapshotNamed: a restore puts back the frontier of
// the snapshot it names — a server restarted from a checkpoint taken before
// it merged an update no longer carries that update, and a joiner carries
// what its sponsor had when it admitted it.
func TestReplayRestoresTheSnapshotNamed(t *testing.T) {
	evs := []Event{
		{Time: 1, Kind: KindCheckpoint, Node: 1, Peer: NoPeer},
		{Time: 2, Kind: KindClientUpdate, Node: 0, Peer: 4, UID: UpdateUID(4, 1)},
		{Time: 3, Kind: KindSyncStart, Node: 0, Peer: NoPeer, Bid: 1, UID: RoundUID(0, 1, 0)},
		{Time: 4, Kind: KindServerAgg, Node: 1, Peer: 0, Bid: 1, UID: RoundUID(0, 1, 0)},
		// Server 1 crashes and comes back from its checkpoint at t=1.
		{Time: 5, Kind: KindRestore, Node: 1, Peer: 1},
		{Time: 6, Kind: KindSyncStart, Node: 1, Peer: NoPeer, Bid: 2, UID: RoundUID(1, 2, 0)},
		{Time: 7, Kind: KindServerAgg, Node: 2, Peer: 1, Bid: 2, UID: RoundUID(1, 2, 0)},
		// Server 0 admits server 3, which reaches server 2 first.
		{Time: 8, Kind: KindCheckpoint, Node: 0, Peer: 3},
		{Time: 8, Kind: KindRestore, Node: 3, Peer: 0},
		{Time: 9, Kind: KindSyncStart, Node: 3, Peer: NoPeer, Bid: 3, UID: RoundUID(3, 3, 0)},
		{Time: 10, Kind: KindServerAgg, Node: 2, Peer: 3, Bid: 3, UID: RoundUID(3, 3, 0)},
	}
	l := BuildLineage(evs)
	requireArrivals(t, l.Updates[0],
		Arrival{Server: 1, Via: 0, Bid: 1, Time: 4},
		Arrival{Server: 2, Via: 3, Bid: 3, Time: 10})
}

// TestReplayCountsFromTheTraceStart: a trace whose oldest events were
// dropped numbers each origin's updates from its first traced one, and an
// agg of a copy sent before the trace began merges none of them.
func TestReplayCountsFromTheTraceStart(t *testing.T) {
	evs := journeyEvents()
	whole := BuildLineage(evs)
	tail := append([]Event{
		{Time: 0.5, Kind: KindServerAgg, Node: 1, Peer: 2, Bid: 0, UID: RoundUID(2, 0, 0)},
	}, evs...)
	for _, l := range []*Lineage{whole, BuildLineage(tail)} {
		if u := l.Updates[0]; u.Seq != 1 || len(u.Arrivals) != 2 || u.Arrivals[0].Time != 2 {
			t.Fatalf("journey = %+v", u)
		}
	}
}

// TestReplayWaitsForTheSendersCopy: in a merged multi-process trace clock
// offset error can stamp an agg before its sender's sync-start; the replay
// takes the sender's events up to that sync-start first, so the agg still
// merges what the copy carried. A sender whose own trace starts after the
// copy was sent (merged inputs that start at different times) has no
// sync-start for it: the agg merges nothing, and the updates that copy
// carried reach the server only through a copy the trace holds.
func TestReplayWaitsForTheSendersCopy(t *testing.T) {
	evs := []Event{
		{Time: 0.9, Kind: KindServerAgg, Node: 1, Peer: 0, Bid: 1, UID: RoundUID(0, 1, 0)},
		{Time: 1.0, Kind: KindClientUpdate, Node: 0, Peer: 4, UID: UpdateUID(4, 1)},
		{Time: 1.1, Kind: KindSyncStart, Node: 0, Peer: NoPeer, Bid: 1, UID: RoundUID(0, 1, 0)},
		// Server 2's trace starts at t=3: its round-2 sync-start is not in it.
		{Time: 2.0, Kind: KindServerAgg, Node: 1, Peer: 2, Bid: 2, UID: RoundUID(2, 2, 0)},
		{Time: 3.0, Kind: KindClientUpdate, Node: 2, Peer: 6, UID: UpdateUID(6, 9)},
	}
	l := BuildLineage(evs)
	requireArrivals(t, l.Updates[0], Arrival{Server: 1, Via: 0, Bid: 1, Time: 0.9})
	if u := l.Updates[1]; u.Seq != 1 || len(u.Arrivals) != 0 {
		t.Fatalf("server 2's first traced update = %+v, want seq 1 and no arrivals", u)
	}
}

func TestWriteProvenanceRendersJourney(t *testing.T) {
	var b strings.Builder
	BuildLineage(journeyEvents()).WriteProvenance(&b, 5)
	out := b.String()
	for _, want := range []string{
		"1 traced updates across 3 servers",
		"fully propagated: 1/1",
		"c7#1: origin s0 @ 1.000s",
		"-> s1 @ 2.000s (+1.000s, via s0 broadcast, sync #1)",
		"-> s2 @ 3.500s (+2.500s, via s1 broadcast, sync #2)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("provenance output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCritPathRendersHops(t *testing.T) {
	var b strings.Builder
	BuildLineage(journeyEvents()).WriteCritPath(&b, 5)
	out := b.String()
	for _, want := range []string{
		"slowest 1 end-to-end propagations",
		"c7#1  2.500s total",
		"s0 -> s1: 1 paths",
		"s1 -> s2: 1 paths",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("critpath output missing %q:\n%s", want, out)
		}
	}
}

func TestWriteProvenanceEmptyLineage(t *testing.T) {
	var b strings.Builder
	BuildLineage(nil).WriteProvenance(&b, 5)
	if !strings.Contains(b.String(), "no provenance data") {
		t.Fatalf("empty lineage output: %s", b.String())
	}
}
