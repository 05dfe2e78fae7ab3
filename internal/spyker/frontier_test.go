package spyker

import (
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/ring"
)

// The merged-updates frontier is not state the core keeps: obs.BuildLineage
// rebuilds every server's frontier from the events the cores emit. These
// tests drive real cores and read the rebuilt frontier back through the
// lineage: an update's Seq is its origin's own coordinate just after it,
// and an arrival is a coordinate a merge advanced.

// tickClock is a clock that moves one unit per reading, so every event of
// a test keeps its place when the lineage sorts the trace by time.
func tickClock() obs.Clock {
	var now float64
	return func() float64 { now++; return now }
}

func TestFrontierAdvancesOnClientUpdates(t *testing.T) {
	tr, clock := obs.NewTracer(64), tickClock()
	s := NewServerCore(coreConfig(1, 3, 2), []float64{0, 0}, false, &fakeOut{})
	s.Instrument(tr, clock)
	s.HandleClientUpdate(0, []float64{1, 1}, 0, obs.UpdateUID(0, 1))
	s.HandleClientUpdate(1, []float64{1, 1}, 1, obs.UpdateUID(1, 1))

	l := obs.BuildLineage(tr.Events())
	if len(l.Updates) != 2 {
		t.Fatalf("lineage holds %d updates, want 2", len(l.Updates))
	}
	for i, u := range l.Updates {
		if u.Origin != 1 || u.Seq != int64(i+1) || u.Client != i || u.UID != obs.UpdateUID(i, 1) {
			t.Fatalf("update %d = %+v, want origin 1 seq %d client %d", i, u, i+1, i)
		}
		if len(u.Arrivals) != 0 {
			t.Fatalf("update %d reached %v without a merge", i, u.Arrivals)
		}
	}
}

func TestFrontierMergesFromBroadcasts(t *testing.T) {
	tr, clock := obs.NewTracer(64), tickClock()
	// Server 1 holds the token and syncs after two local updates.
	out1 := &fakeOut{}
	cfg := coreConfig(1, 3, 2)
	cfg.HIntra = 2
	cfg.HInter = 1e9
	s1 := NewServerCore(cfg, []float64{0, 0}, true, out1)
	s1.Instrument(tr, clock)
	out0 := &fakeOut{}
	s0 := NewServerCore(coreConfig(0, 3, 2), []float64{0, 0}, false, out0)
	s0.Instrument(tr, clock)
	s2 := NewServerCore(coreConfig(2, 3, 2), []float64{0, 0}, false, &fakeOut{})
	s2.Instrument(tr, clock)

	s0.HandleClientUpdate(0, []float64{1, 1}, 0, 0)
	s1.HandleClientUpdate(0, []float64{1, 1}, s1.Age(), 0)
	s1.HandleClientUpdate(1, []float64{1, 1}, s1.Age(), 0)
	if len(out1.models) != 1 {
		t.Fatalf("server 1 sent %d broadcasts, want its sync trigger", len(out1.models))
	}
	m := out1.models[0]
	s0.HandleServerModel(1, m.params, m.age, m.bid, m.uid, ring.Membership{})
	if len(out0.models) != 1 {
		t.Fatalf("server 0 sent %d broadcasts, want its answer to the round", len(out0.models))
	}
	// A stale redelivery of the same copy and an untraced copy (no UID)
	// must merge nothing new.
	s0.HandleServerModel(1, m.params, m.age, m.bid, m.uid, ring.Membership{})
	s0.HandleServerModel(2, []float64{2, 2}, 1, m.bid, 0, ring.Membership{})
	// Server 0 answered the round before it merged server 1's copy, so its
	// answer carries server 0's own update to server 2 and not server 1's.
	a := out0.models[0]
	s2.HandleServerModel(0, a.params, a.age, a.bid, a.uid, ring.Membership{})
	// The merges left server 0's own coordinate where it was.
	s0.HandleClientUpdate(1, []float64{1, 1}, s0.Age(), 0)

	l := obs.BuildLineage(tr.Events())
	got := make(map[string][]hop)
	for _, u := range l.Updates {
		got[u.Name()] = nil
		for _, a := range u.Arrivals {
			got[u.Name()] = append(got[u.Name()], hop{a.Server, a.Via, a.Bid})
		}
	}
	want := map[string][]hop{
		"s0@1": {{2, 0, a.bid}},
		"s0@2": nil,
		"s1@1": {{0, 1, m.bid}},
		"s1@2": {{0, 1, m.bid}},
	}
	if len(got) != len(want) {
		t.Fatalf("lineage updates %v, want %v", got, want)
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok || len(g) != len(w) {
			t.Fatalf("update %s reached %v, want %v", name, g, w)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("update %s reached %v, want %v", name, g, w)
			}
		}
	}
}

// hop is an obs.Arrival without its time: where an update's influence
// reached, through whose copy, in which round.
type hop struct{ Server, Via, Bid int }
