package spyker

import (
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/ring"
)

// The merged-updates frontier is plain protocol state: it must advance on
// every client update, merge on every server-model aggregation, and ride
// through snapshots — all without any sink attached (tracing only observes
// it).

func TestFrontierAdvancesOnClientUpdates(t *testing.T) {
	s := NewServerCore(coreConfig(1, 3, 2), []float64{0, 0}, false, &fakeOut{})
	if got := s.Frontier(); len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("initial frontier = %v, want zeros", got)
	}
	s.HandleClientUpdate(0, []float64{1, 1}, 0, 0)
	s.HandleClientUpdate(1, []float64{1, 1}, 1, 0)
	got := s.Frontier()
	if got[1] != 2 || got[0] != 0 || got[2] != 0 {
		t.Fatalf("frontier = %v, want [0 2 0] (own coordinate only)", got)
	}
	// Frontier() must return a copy, not the live vector.
	got[1] = 99
	if s.Frontier()[1] != 2 {
		t.Fatal("Frontier() aliases internal state")
	}
}

func TestFrontierMergesFromBroadcasts(t *testing.T) {
	s := NewServerCore(coreConfig(0, 3, 2), []float64{0, 0}, false, &fakeOut{})
	s.HandleClientUpdate(0, []float64{1, 1}, 0, 0)

	// A peer broadcast carrying front [0 5 2] max-merges into [1 5 2].
	s.HandleServerModel(1, []float64{2, 2}, 1, 1, []int64{0, 5, 2}, ring.Membership{})
	got := s.Frontier()
	if got[0] != 1 || got[1] != 5 || got[2] != 2 {
		t.Fatalf("frontier = %v, want [1 5 2]", got)
	}

	// A stale broadcast (lower coordinates) must not regress the frontier,
	// and untraced broadcasts (nil front) must merge nothing.
	s.HandleServerModel(2, []float64{2, 2}, 1, 2, []int64{0, 3, 1}, ring.Membership{})
	s.HandleServerModel(1, []float64{2, 2}, 1, 3, nil, ring.Membership{})
	got = s.Frontier()
	if got[0] != 1 || got[1] != 5 || got[2] != 2 {
		t.Fatalf("frontier regressed: %v, want [1 5 2]", got)
	}
}

func TestBroadcastCarriesFrontier(t *testing.T) {
	// When a sync triggers, the outbound broadcast must hand the live
	// frontier to the transport layer.
	var gotFront []int64
	out := &frontierOut{onModel: func(front []int64) {
		gotFront = append([]int64(nil), front...)
	}}
	cfg := coreConfig(0, 2, 1)
	cfg.HIntra = 2 // trigger a sync after two local updates
	cfg.HInter = 1e9
	s := NewServerCore(cfg, []float64{0, 0}, true, out)
	s.HandleClientUpdate(0, []float64{1, 1}, s.Age(), 0)
	s.HandleClientUpdate(0, []float64{1, 1}, s.Age(), 0)
	if gotFront == nil {
		t.Fatal("sync never triggered a broadcast")
	}
	if gotFront[0] != 2 || gotFront[1] != 0 {
		t.Fatalf("broadcast frontier = %v, want [2 0]", gotFront)
	}
}

type frontierOut struct {
	fakeOut
	onModel func(front []int64)
}

func (f *frontierOut) BroadcastModel(p []float64, age float64, bid int, front []int64, mem ring.Membership) {
	f.onModel(front)
	f.fakeOut.BroadcastModel(p, age, bid, front, mem)
}

func TestTracedEventsCarryUIDAndFrontier(t *testing.T) {
	tr := obs.NewTracer(64)
	s := NewServerCore(coreConfig(0, 2, 1), []float64{0, 0}, false, &fakeOut{})
	s.Instrument(tr, func() float64 { return 1 })

	uid := obs.UpdateUID(4, 1)
	s.HandleClientUpdate(0, []float64{1, 1}, 0, uid)
	s.HandleServerModel(1, []float64{2, 2}, 1, 3, []int64{0, 7}, ring.Membership{})

	evs := tr.Events()
	var sawUpdate, sawAgg bool
	for _, e := range evs {
		switch e.Kind {
		case obs.KindClientUpdate:
			sawUpdate = true
			if e.UID != uid {
				t.Fatalf("client-update UID = %v, want %v", e.UID, uid)
			}
			if len(e.Front) != 2 || e.Front[0] != 1 {
				t.Fatalf("client-update front = %v, want [1 0]", e.Front)
			}
		case obs.KindServerAgg:
			sawAgg = true
			if e.UID != obs.RoundUID(1, 3) {
				t.Fatalf("server-agg UID = %v, want %v", e.UID, obs.RoundUID(1, 3))
			}
			if len(e.Front) != 2 || e.Front[0] != 1 || e.Front[1] != 7 {
				t.Fatalf("server-agg front = %v, want [1 7]", e.Front)
			}
		}
	}
	if !sawUpdate || !sawAgg {
		t.Fatalf("missing events: update=%v agg=%v", sawUpdate, sawAgg)
	}
}

func TestSnapshotRestoresFrontier(t *testing.T) {
	s := NewServerCore(coreConfig(0, 3, 2), []float64{0, 0}, false, &fakeOut{})
	s.HandleClientUpdate(0, []float64{1, 1}, 0, 0)
	s.HandleServerModel(1, []float64{2, 2}, 1, 1, []int64{0, 4, 0}, ring.Membership{})

	var st State
	s.SnapshotInto(&st)
	if len(st.Frontier) != 3 || st.Frontier[0] != 1 || st.Frontier[1] != 4 {
		t.Fatalf("snapshot frontier = %v, want [1 4 0]", st.Frontier)
	}
	r, err := RestoreServerCore(st, &fakeOut{})
	if err != nil {
		t.Fatal(err)
	}
	got := r.Frontier()
	if got[0] != 1 || got[1] != 4 || got[2] != 0 {
		t.Fatalf("restored frontier = %v, want [1 4 0]", got)
	}
}

// TestRestoreLegacySnapshotWithoutFrontier: a checkpoint written before
// the provenance extension decodes with a nil Frontier. No writer in this
// tree produces one; it is refused with an error, as is a frontier of the
// wrong length.
func TestRestoreLegacySnapshotWithoutFrontier(t *testing.T) {
	s := NewServerCore(coreConfig(0, 2, 1), []float64{0, 0}, false, &fakeOut{})
	s.HandleClientUpdate(0, []float64{1, 1}, 0, 0)
	var st State
	s.SnapshotInto(&st)
	st.Frontier = nil // checkpoint written before the provenance extension
	if _, err := RestoreServerCore(st, &fakeOut{}); err == nil {
		t.Fatal("a snapshot without a frontier was restored")
	}

	st.Frontier = []int64{1, 2, 3} // wrong length must be rejected
	if _, err := RestoreServerCore(st, &fakeOut{}); err == nil {
		t.Fatal("mismatched frontier length must fail restore")
	}
}
