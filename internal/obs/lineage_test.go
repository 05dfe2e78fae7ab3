package obs

import (
	"strings"
	"testing"
)

func TestUIDEncodeDecode(t *testing.T) {
	u := UpdateUID(17, 3)
	if _, _, ok := u.Round(); ok {
		t.Fatalf("update UID decoded as a round: %v", u)
	}
	c, seq, ok := u.Update()
	if !ok || c != 17 || seq != 3 {
		t.Fatalf("Update() = (%d, %d, %v), want (17, 3, true)", c, seq, ok)
	}
	if got := u.String(); got != "c17#3" {
		t.Fatalf("String() = %q, want c17#3", got)
	}

	r := RoundUID(2, 5)
	if _, _, ok := r.Update(); ok {
		t.Fatalf("round UID decoded as an update: %v", r)
	}
	s, bid, ok := r.Round()
	if !ok || s != 2 || bid != 5 {
		t.Fatalf("Round() = (%d, %d, %v), want (2, 5, true)", s, bid, ok)
	}
	if got := r.String(); got != "s2/sync#5" {
		t.Fatalf("String() = %q, want s2/sync#5", got)
	}

	var zero UID
	if _, _, ok := zero.Update(); ok {
		t.Fatal("zero UID must not decode as update")
	}
	if _, _, ok := zero.Round(); ok {
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
		{Time: 1.0, Kind: KindClientUpdate, Node: 0, Peer: 7, UID: uid, Front: []int64{1, 0, 0}},
		// Round 1: server 0 broadcasts; only server 1 merges it.
		{Time: 2.0, Kind: KindServerAgg, Node: 1, Peer: 0, Bid: 1, UID: RoundUID(0, 1), Front: []int64{1, 0, 0}},
		// Round 2: server 1 relays; server 2 merges and the update arrives
		// there through server 1, not server 0.
		{Time: 3.5, Kind: KindServerAgg, Node: 2, Peer: 1, Bid: 2, UID: RoundUID(1, 2), Front: []int64{1, 0, 0}},
	}
}

func TestBuildLineageTwoHopJourney(t *testing.T) {
	l := BuildLineage(journeyEvents())
	if l.NumServers != 3 {
		t.Fatalf("NumServers = %d, want 3", l.NumServers)
	}
	if len(l.Updates) != 1 || l.Untracked != 0 {
		t.Fatalf("updates = %d untracked = %d, want 1/0", len(l.Updates), l.Untracked)
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
	want := []Arrival{
		{Server: 1, Via: 0, Bid: 1, Time: 2.0},
		{Server: 2, Via: 1, Bid: 2, Time: 3.5},
	}
	if len(u.Arrivals) != len(want) {
		t.Fatalf("arrivals = %+v, want %+v", u.Arrivals, want)
	}
	for i, w := range want {
		if u.Arrivals[i] != w {
			t.Fatalf("arrival %d = %+v, want %+v", i, u.Arrivals[i], w)
		}
	}
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

func TestBuildLineageServerArrivalOnce(t *testing.T) {
	// A re-broadcast carrying an already-merged frontier must not record a
	// second arrival at the same server.
	evs := journeyEvents()
	evs = append(evs, Event{
		Time: 9, Kind: KindServerAgg, Node: 1, Peer: 2, Bid: 3,
		Front: []int64{1, 0, 0},
	})
	l := BuildLineage(evs)
	if n := len(l.Updates[0].Arrivals); n != 2 {
		t.Fatalf("arrivals = %d after duplicate-frontier broadcast, want 2", n)
	}
}

func TestBuildLineageLegacyTraceUntracked(t *testing.T) {
	// Pre-provenance events: no UID, no frontier. Lineage must stay empty
	// and count them, never error.
	evs := []Event{
		{Time: 1, Kind: KindClientUpdate, Node: 0, Peer: 3, Age: 2, Stale: 1},
		{Time: 2, Kind: KindServerAgg, Node: 1, Peer: 0, Bid: 1},
	}
	l := BuildLineage(evs)
	if len(l.Updates) != 0 {
		t.Fatalf("legacy trace produced %d updates", len(l.Updates))
	}
	if l.Untracked != 1 {
		t.Fatalf("untracked = %d, want 1", l.Untracked)
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
