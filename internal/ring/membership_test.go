package ring

import "testing"

func TestFixed(t *testing.T) {
	m := Fixed(4)
	if m.Epoch != 0 || m.Count() != 4 || m.Slots() != 4 {
		t.Fatalf("Fixed(4) = %s, want e0{0,1,2,3}", m)
	}
	for i := 0; i < 4; i++ {
		if !m.Contains(i) || m.Index(i) != i {
			t.Fatalf("Fixed(4) missing member %d", i)
		}
	}
	if Fixed(0).Count() != 0 || Fixed(0).Slots() != 0 {
		t.Fatalf("Fixed(0) not empty")
	}
	if Fixed(0).IsZero() {
		t.Fatalf("Fixed(0) must not be zero: empty ring != absent header")
	}
	if !(Membership{}).IsZero() {
		t.Fatalf("zero Membership must report IsZero")
	}
}

// TestSuccessor pins the generalized ring arithmetic: on fixed rings it
// must match the historical (id+1) % n, on sparse rings it skips holes,
// and a singleton ring is its own successor.
func TestSuccessor(t *testing.T) {
	tests := []struct {
		name string
		m    Membership
		id   int
		want int
	}{
		{"fixed-mid", Fixed(4), 1, 2},
		{"fixed-wrap", Fixed(4), 3, 0},
		{"fixed-matches-modulo", Fixed(5), 2, (2 + 1) % 5},
		{"sparse-skips-hole", Membership{Epoch: 1, Members: []int{0, 2, 3}}, 0, 2},
		{"sparse-wrap", Membership{Epoch: 1, Members: []int{0, 2, 3}}, 3, 0},
		{"nonmember-id", Membership{Epoch: 1, Members: []int{0, 2, 3}}, 1, 2},
		{"singleton", Membership{Epoch: 2, Members: []int{4}}, 4, 4},
		{"empty", Membership{Epoch: 9}, 7, 7},
	}
	for _, tt := range tests {
		if got := tt.m.Successor(tt.id); got != tt.want {
			t.Errorf("%s: %s.Successor(%d) = %d, want %d", tt.name, tt.m, tt.id, got, tt.want)
		}
	}
}

// TestRegenBid pins the regeneration-bid formula against the historical
// maxBidSeen + NumServers + 1 + ID on fixed rings, and checks sparse
// rings use the member index so bids stay dense and distinct.
func TestRegenBid(t *testing.T) {
	tests := []struct {
		name       string
		m          Membership
		maxBid, id int
		want       int
	}{
		{"fixed-s0", Fixed(4), 10, 0, 10 + 4 + 1 + 0},
		{"fixed-s3", Fixed(4), 10, 3, 10 + 4 + 1 + 3},
		{"sparse-uses-index", Membership{Epoch: 1, Members: []int{0, 2, 5}}, 7, 5, 7 + 3 + 1 + 2},
		{"singleton", Membership{Epoch: 2, Members: []int{3}}, 0, 3, 0 + 1 + 1 + 0},
	}
	for _, tt := range tests {
		if got := tt.m.RegenBid(tt.maxBid, tt.id); got != tt.want {
			t.Errorf("%s: RegenBid(%d, %d) = %d, want %d", tt.name, tt.maxBid, tt.id, got, tt.want)
		}
	}
	// Distinctness: every member of a ring regenerating against the same
	// maxBidSeen must mint a different bid.
	m := Membership{Epoch: 1, Members: []int{0, 2, 5, 9}}
	seen := map[int]int{}
	for _, id := range m.Members {
		b := m.RegenBid(42, id)
		if prev, dup := seen[b]; dup {
			t.Fatalf("members %d and %d both mint bid %d", prev, id, b)
		}
		seen[b] = id
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("RegenBid for non-member did not panic")
		}
	}()
	m.RegenBid(0, 1)
}

func TestWithMember(t *testing.T) {
	base := Fixed(2)
	m := base.WithMember(2)
	if m.Epoch != 1 || m.Count() != 3 || !m.Contains(2) {
		t.Fatalf("WithMember(2) = %s", m)
	}
	if base.Count() != 2 {
		t.Fatalf("WithMember mutated receiver: %s", base)
	}
	// Insert into the middle keeps ascending order.
	mid := Membership{Epoch: 4, Members: []int{0, 5}}.WithMember(3)
	if mid.Members[0] != 0 || mid.Members[1] != 3 || mid.Members[2] != 5 {
		t.Fatalf("middle insert = %v", mid.Members)
	}
	// Re-adding an existing member bumps the epoch but not the set.
	again := m.WithMember(2)
	if again.Epoch != 2 || again.Count() != 3 {
		t.Fatalf("re-add = %s", again)
	}
}

func TestWithoutMember(t *testing.T) {
	base := Fixed(4)
	m := base.WithoutMember(1)
	if m.Epoch != 1 || m.Count() != 3 || m.Contains(1) {
		t.Fatalf("WithoutMember(1) = %s", m)
	}
	if base.Count() != 4 {
		t.Fatalf("WithoutMember mutated receiver: %s", base)
	}
	// Slots keep the departed member's hole: IDs are never recycled.
	hole := Fixed(4).WithoutMember(3)
	if hole.Slots() != 3 || hole.NextID() != 3 {
		// Removing the max member shrinks Slots; that is fine, the hole
		// rule only matters for interior members.
		t.Fatalf("WithoutMember(3) Slots = %d", hole.Slots())
	}
	interior := Fixed(4).WithoutMember(1)
	if interior.Slots() != 4 || interior.NextID() != 4 {
		t.Fatalf("interior hole Slots = %d, want 4", interior.Slots())
	}
	// Removing a non-member still bumps the epoch (callers guard).
	same := base.WithoutMember(9)
	if same.Epoch != 1 || same.Count() != 4 {
		t.Fatalf("remove non-member = %s", same)
	}
}

// TestCompare pins the total order every server resolves concurrent
// reconfigurations with: epoch first, then leave-beats-join (fewer
// members win at equal epoch), then a deterministic element tiebreak.
func TestCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Membership
		want int // sign
	}{
		{"higher-epoch-wins", Membership{Epoch: 2, Members: []int{0}}, Membership{Epoch: 1, Members: []int{0, 1, 2}}, 1},
		{"lower-epoch-loses", Membership{Epoch: 0, Members: []int{0, 1, 2, 3}}, Membership{Epoch: 1, Members: []int{0}}, -1},
		{"equal", Fixed(3), Membership{Epoch: 0, Members: []int{0, 1, 2}}, 0},
		{"leave-beats-join", Membership{Epoch: 1, Members: []int{0, 1}}, Membership{Epoch: 1, Members: []int{0, 1, 2}}, 1},
		{"element-tiebreak", Membership{Epoch: 1, Members: []int{0, 3}}, Membership{Epoch: 1, Members: []int{0, 2}}, 1},
		{"zero-loses-to-fixed", Membership{}, Fixed(2), -1},
	}
	for _, tt := range tests {
		got := Compare(tt.a, tt.b)
		if sign(got) != tt.want {
			t.Errorf("%s: Compare(%s, %s) = %d, want sign %d", tt.name, tt.a, tt.b, got, tt.want)
		}
		if sign(Compare(tt.b, tt.a)) != -tt.want {
			t.Errorf("%s: Compare not antisymmetric", tt.name)
		}
	}
}

func sign(v int) int {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	}
	return 0
}

func TestCloneIsDeep(t *testing.T) {
	m := Fixed(3)
	c := m.Clone()
	if Compare(c, m) != 0 {
		t.Fatalf("Clone = %s, want %s", c, m)
	}
	c.Members[0] = 99
	if m.Members[0] != 0 {
		t.Fatalf("Clone shares storage with receiver")
	}
	z := (Membership{}).Clone()
	if !z.IsZero() {
		t.Fatalf("Clone of zero must stay zero (nil Members)")
	}
}

func TestString(t *testing.T) {
	if got := (Membership{Epoch: 3, Members: []int{0, 2, 4}}).String(); got != "e3{0,2,4}" {
		t.Fatalf("String = %q", got)
	}
}
