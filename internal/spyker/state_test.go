package spyker

import (
	"encoding/json"
	"testing"

	"github.com/spyker-fl/spyker/internal/ring"
)

// driveCore applies a fixed message sequence to a core and records every
// outbound action through a fakeOut.
func driveCore(s *ServerCore) *fakeOut {
	out := s.out.(*fakeOut)
	s.HandleClientUpdate(0, []float64{1, 1}, s.Age(), 0)
	s.HandleAge(2, 7, ring.Membership{})
	s.HandleServerModel(1, []float64{3, -3}, 4, 9, 0, ring.Membership{})
	s.HandleClientUpdate(1, []float64{-1, 2}, s.Age(), 0)
	return out
}

// TestSnapshotRestoreBehavioralEquivalence: a restored core must behave
// byte-for-byte like the original on any subsequent message sequence.
func TestSnapshotRestoreBehavioralEquivalence(t *testing.T) {
	outA := &fakeOut{}
	a := NewServerCore(coreConfig(0, 3, 4), []float64{0.5, -0.5}, true, outA)
	// Put the core into a nontrivial state.
	a.HandleClientUpdate(0, []float64{2, 2}, 0, 0)
	a.HandleAge(1, 3, ring.Membership{})
	a.HandleServerModel(2, []float64{1, 1}, 2, 5, 0, ring.Membership{})

	var st State
	a.SnapshotInto(&st)
	outB := &fakeOut{}
	b, err := RestoreServerCore(st, outB)
	if err != nil {
		t.Fatal(err)
	}

	if b.Age() != a.Age() || b.HasToken() != a.HasToken() {
		t.Fatalf("restored core differs immediately: age %v vs %v", b.Age(), a.Age())
	}
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("restored params differ at %d", i)
		}
	}

	// Drive both with identical inputs and compare every output.
	outA.replies, outA.models, outA.ages, outA.tokens = nil, nil, nil, nil
	driveCore(a)
	driveCore(b)
	if len(outA.replies) != len(outB.replies) || len(outA.models) != len(outB.models) ||
		len(outA.ages) != len(outB.ages) || len(outA.tokens) != len(outB.tokens) {
		t.Fatalf("outbound action counts differ: %d/%d replies, %d/%d models",
			len(outA.replies), len(outB.replies), len(outA.models), len(outB.models))
	}
	for i := range outA.replies {
		ra, rb := outA.replies[i], outB.replies[i]
		if ra.client != rb.client || ra.age != rb.age || ra.lr != rb.lr {
			t.Fatalf("reply %d differs: %+v vs %+v", i, ra, rb)
		}
		for j := range ra.params {
			if ra.params[j] != rb.params[j] {
				t.Fatalf("reply %d param %d differs", i, j)
			}
		}
	}
	if a.Age() != b.Age() {
		t.Errorf("ages diverged after identical inputs: %v vs %v", a.Age(), b.Age())
	}
}

// TestSnapshotIsDeepCopy: mutating the core after Snapshot must not
// change the snapshot.
func TestSnapshotIsDeepCopy(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(0, 2, 2), []float64{1, 1}, true, out)
	var st State
	s.SnapshotInto(&st)
	s.HandleClientUpdate(0, []float64{9, 9}, 0, 0)
	if st.Age != 0 || st.W[0] != 1 {
		t.Error("snapshot aliased live state")
	}
	if st.Token == nil {
		t.Fatal("token missing from snapshot")
	}
	st.Token.Ages[0] = 99
	if s.token.Ages[0] == 99 {
		t.Error("snapshot token aliases live token")
	}
}

// TestSnapshotJSONRoundTrip: the snapshot must survive JSON encoding — the
// format the live runtime persists checkpoints in.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(1, 3, 2), []float64{1, 2}, false, out)
	s.HandleClientUpdate(0, []float64{3, 4}, 0, 0)
	s.HandleServerModel(2, []float64{5, 6}, 3, 7, 0, ring.Membership{})
	var st State
	s.SnapshotInto(&st)

	decoded := jsonRoundTrip(t, st)
	restored, err := RestoreServerCore(decoded, &fakeOut{})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Age() != s.Age() {
		t.Errorf("age after JSON round trip: %v vs %v", restored.Age(), s.Age())
	}
	if restored.UpdatesFrom(0) != 1 {
		t.Error("decay counters lost in round trip")
	}
}

// TestRestoreLegacySnapshotFixedRing: a snapshot with a nil Mem (what a
// checkpoint written before the elastic-membership extension decoded to)
// has no writer in this tree; it is refused with an error, not guessed
// onto the construction-time fixed ring.
func TestRestoreLegacySnapshotFixedRing(t *testing.T) {
	s := NewServerCore(coreConfig(1, 3, 2), []float64{1, 2}, false, &fakeOut{})
	s.HandleClientUpdate(0, []float64{3, 4}, 0, 0)
	var st State
	s.SnapshotInto(&st)
	if _, err := RestoreServerCore(st, &fakeOut{}); err != nil {
		t.Fatalf("the snapshot as written must restore: %v", err)
	}
	st.Mem = nil // what a pre-elastic checkpoint decoded to
	if _, err := RestoreServerCore(st, &fakeOut{}); err == nil {
		t.Fatal("a snapshot without a ring membership was restored")
	}
}

// TestSnapshotRoundTripsMembership: a post-admission membership — epoch
// above 0, a member ID past the construction-time count — must survive
// the JSON checkpoint format and restore exactly, both for the joiner's
// re-keyed snapshot and for the sponsor's own.
func TestSnapshotRoundTripsMembership(t *testing.T) {
	sponsor := NewServerCore(coreConfig(0, 3, 2), []float64{1, 2}, false, &fakeOut{})
	st, err := sponsor.AdmitMember(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.Config.ID != 3 {
		t.Fatalf("joiner snapshot keyed to ID %d, want 3", st.Config.ID)
	}
	decoded := jsonRoundTrip(t, st)
	joiner, err := RestoreServerCore(decoded, &fakeOut{})
	if err != nil {
		t.Fatal(err)
	}
	want := ring.Membership{Epoch: 1, Members: []int{0, 1, 2, 3}}
	if got := joiner.Membership(); ring.Compare(got, want) != 0 {
		t.Fatalf("joiner membership = %v, want %v", got, want)
	}

	// The sponsor's own snapshot carries the same epoch-1 view; after an
	// exclusion the hole in the slot space must round-trip too.
	sponsor.ExcludeMember(1)
	var sst State
	sponsor.SnapshotInto(&sst)
	r, err := RestoreServerCore(sst, &fakeOut{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Membership(), (ring.Membership{Epoch: 2, Members: []int{0, 2, 3}}); ring.Compare(got, want) != 0 {
		t.Fatalf("sponsor membership after exclusion = %v, want %v", got, want)
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	if _, err := RestoreServerCore(State{}, &fakeOut{}); err == nil {
		t.Error("empty state accepted")
	}
	mem := ring.Fixed(3)
	st := State{Config: coreConfig(0, 3, 2), W: []float64{1}, Mem: &mem,
		Ages: []float64{1, 2}}
	if _, err := RestoreServerCore(st, &fakeOut{}); err == nil {
		t.Error("ages shorter than the membership's slots accepted")
	}
	st.Config.ID = 5
	st.Ages = []float64{1, 2, 3}
	if _, err := RestoreServerCore(st, &fakeOut{}); err == nil {
		t.Error("a server outside its own membership accepted")
	}
}

// jsonRoundTrip encodes st as the live runtime's checkpoints do and decodes
// it back.
func jsonRoundTrip(t *testing.T, st State) State {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var decoded State
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	return decoded
}

// TestRestoreRefusesMalformedMembership: a snapshot whose membership could
// not index its own ages — a negative member, members out of order or
// repeated, one past the ages, a negative epoch — is refused with an
// error before anything is sized by it.
func TestRestoreRefusesMalformedMembership(t *testing.T) {
	for _, tc := range []struct {
		name string
		id   int
		mem  ring.Membership
	}{
		{"negative member", -5, ring.Membership{Members: []int{-5}}},
		{"descending", 0, ring.Membership{Members: []int{2, 0}}},
		{"repeated", 0, ring.Membership{Members: []int{0, 0, 1}}},
		{"past the ages", 0, ring.Membership{Members: []int{0, 3}}},
		{"negative epoch", 0, ring.Membership{Epoch: -1, Members: []int{0, 1}}},
	} {
		cfg := coreConfig(0, 3, 2)
		cfg.ID = tc.id
		st := State{Config: cfg, W: []float64{1}, Mem: &tc.mem,
			Ages: []float64{0, 0, 0}}
		if _, err := RestoreServerCore(st, &fakeOut{}); err == nil {
			t.Errorf("%s: %s restored", tc.name, tc.mem)
		}
	}
}
