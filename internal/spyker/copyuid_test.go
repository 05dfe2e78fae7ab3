package spyker

import (
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/ring"
)

// A broadcast travels under the UID of its copy, and the core's events
// name that copy: KindSyncStart where it is sent, KindServerAgg where it is
// merged. That is all obs.BuildLineage needs to rebuild every frontier.

// stuckHolder is a 3-server holder that has triggered a round nobody
// answers: out.models[0] is the trigger.
func stuckHolder(t *testing.T, out *fakeOut, tr *obs.Tracer) *ServerCore {
	t.Helper()
	cfg := recoveryConfig(0, 3)
	cfg.HInter = 2
	s := NewServerCore(cfg, []float64{0, 0}, true, out)
	s.Instrument(tr, func() float64 { return 0 })
	s.HandleAge(1, 5, ring.Membership{})
	if len(out.models) != 1 {
		t.Fatalf("no round triggered: %d broadcasts", len(out.models))
	}
	s.Tick(0)
	return s
}

func TestBroadcastCarriesItsCopyUID(t *testing.T) {
	out, tr := &fakeOut{}, obs.NewTracer(64)
	s := stuckHolder(t, out, tr)
	s.Tick(5)
	s.Tick(10)
	bid := out.models[0].bid
	var starts []obs.UID
	for _, e := range tr.Events() {
		if e.Kind == obs.KindSyncStart {
			starts = append(starts, e.UID)
		}
	}
	if len(out.models) != 3 || len(starts) != 3 {
		t.Fatalf("%d broadcasts and %d sync-starts, want the trigger and two retries", len(out.models), len(starts))
	}
	for c, m := range out.models {
		if want := obs.RoundUID(0, bid, c); m.uid != want || starts[c] != want {
			t.Fatalf("copy %d went out as %v with sync-start %v, want %v", c, m.uid, starts[c], want)
		}
	}
	// A peer joining the round answers with copy 0 of its own.
	peer := NewServerCore(coreConfig(1, 3, 2), []float64{0, 0}, false, out)
	peer.HandleServerModel(0, []float64{1, 1}, 1, bid, out.models[2].uid, ring.Membership{})
	if got := out.models[3].uid; got != obs.RoundUID(1, bid, 0) {
		t.Fatalf("join broadcast went out as %v, want %v", got, obs.RoundUID(1, bid, 0))
	}
}

func TestTracedEventsNameTheCopyMerged(t *testing.T) {
	tr := obs.NewTracer(64)
	s := NewServerCore(coreConfig(0, 2, 1), []float64{0, 0}, false, &fakeOut{})
	s.Instrument(tr, func() float64 { return 1 })

	uid, copyUID := obs.UpdateUID(4, 1), obs.RoundUID(1, 3, 2)
	s.HandleClientUpdate(0, []float64{1, 1}, 0, uid)
	s.HandleServerModel(1, []float64{2, 2}, 1, 3, copyUID, ring.Membership{})

	want := map[obs.EventKind]obs.UID{obs.KindClientUpdate: uid, obs.KindServerAgg: copyUID}
	for _, e := range tr.Events() {
		if w, ok := want[e.Kind]; ok {
			if e.UID != w {
				t.Fatalf("%v UID = %v, want %v", e.Kind, e.UID, w)
			}
			delete(want, e.Kind)
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing events: %v", want)
	}
}

// TestSnapshotRestoresRoundCopy: a holder restored from a snapshot taken
// after its second retry sends copy 3 next, not a copy UID it already
// used.
func TestSnapshotRestoresRoundCopy(t *testing.T) {
	out := &fakeOut{}
	s := stuckHolder(t, out, obs.NewTracer(64))
	s.Tick(5)
	s.Tick(10)
	var st State
	s.SnapshotInto(&st)
	if st.RoundCopy != 2 {
		t.Fatalf("snapshot RoundCopy = %d, want 2", st.RoundCopy)
	}
	r, err := RestoreServerCore(st, out)
	if err != nil {
		t.Fatal(err)
	}
	r.Tick(20)
	r.Tick(25)
	if got, want := out.models[len(out.models)-1].uid, obs.RoundUID(0, st.Token.Bid, 3); got != want {
		t.Fatalf("restored holder's retry went out as %v, want %v", got, want)
	}
	joiner, err := s.AdmitMember(7)
	if err != nil || joiner.RoundCopy != 0 {
		t.Fatalf("join snapshot RoundCopy = %d (err %v), want 0", joiner.RoundCopy, err)
	}
}
