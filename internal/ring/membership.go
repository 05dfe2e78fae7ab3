// Package ring defines the epoch-versioned server membership that the
// Spyker token ring (PAPER.md Alg. 2) runs over. A Membership is the
// single source of truth for "who is in the ring right now": an epoch
// number plus the ordered list of stable server IDs. It is carried on
// the token and in every inter-server message header, so any server can
// adopt a newer ring the moment it hears about one — no separate
// consensus round, the token ring itself is the gossip channel.
//
// Immutability contract: a Membership's Members slice is never mutated
// in place. Every mutation (WithMember, WithoutMember) allocates a fresh
// slice, so a Membership value may be aliased freely across wire
// buffers, outboxes, and cores without defensive copies.
package ring

import (
	"fmt"
	"sort"
	"strings"
)

// Membership is an epoch-versioned server ring. Members holds the stable
// server IDs in strictly ascending order; the ring successor of a member
// is the next ID in the list, wrapping to the first. The zero value
// (nil Members) means "no membership information" — message headers from
// legacy senders decode to it, and receivers ignore it.
type Membership struct {
	Epoch   int
	Members []int
}

// Fixed is the construction-time ring: epoch 0 with members 0..n-1, the
// ring every deployment starts on before any join or leave.
func Fixed(n int) Membership {
	m := make([]int, n)
	for i := range m {
		m[i] = i
	}
	return Membership{Epoch: 0, Members: m}
}

// IsZero reports whether m carries no membership information (the state
// of a header from a sender that predates elastic membership).
func (m Membership) IsZero() bool { return m.Members == nil }

// Count is the number of ring members — the denominator of every
// "all servers have broadcast" check.
func (m Membership) Count() int { return len(m.Members) }

// Slots is the dense array size needed to index per-server state by
// stable ID: max(Members)+1. Slots ≥ Count, with equality exactly when
// the ring is the fixed 0..n-1 prefix; IDs of departed members keep
// their slots so ages never need re-indexing.
func (m Membership) Slots() int {
	if len(m.Members) == 0 {
		return 0
	}
	return m.Members[len(m.Members)-1] + 1
}

// WellFormed reports whether m may size per-server state: a non-negative
// epoch, members strictly ascending, non-negative and below bound. Check a
// membership read from outside with it before its Slots size anything.
func (m Membership) WellFormed(bound int) bool {
	if m.Epoch < 0 {
		return false
	}
	prev := -1
	for _, id := range m.Members {
		if id <= prev || id >= bound {
			return false
		}
		prev = id
	}
	return true
}

// Contains reports whether id is a current ring member.
func (m Membership) Contains(id int) bool {
	i := sort.SearchInts(m.Members, id)
	return i < len(m.Members) && m.Members[i] == id
}

// Index returns id's position in the ordered member list, or -1 if id is
// not a member.
func (m Membership) Index(id int) int {
	i := sort.SearchInts(m.Members, id)
	if i < len(m.Members) && m.Members[i] == id {
		return i
	}
	return -1
}

// Successor returns the ring successor of id: the smallest member ID
// greater than id, wrapping to the first member. This generalizes the
// fixed-ring (id+1) % n. In a singleton ring the successor of the sole
// member is itself. id need not be a member — a server that was just
// excluded still computes the member its token should go to.
func (m Membership) Successor(id int) int {
	if len(m.Members) == 0 {
		return id
	}
	i := sort.SearchInts(m.Members, id+1)
	if i == len(m.Members) {
		i = 0
	}
	return m.Members[i]
}

// RegenBid is the bid a member mints when regenerating a lost token:
// maxBidSeen + Count + 1 + Index(id). Offsetting by the member *index*
// (not the raw ID) keeps regenerated bids distinct per member and
// totally ordered above every bid any server has seen, and reduces to
// the pre-elastic maxBidSeen + NumServers + 1 + ID on fixed rings.
// Panics if id is not a member — only members may regenerate.
func (m Membership) RegenBid(maxBidSeen, id int) int {
	idx := m.Index(id)
	if idx < 0 {
		panic(fmt.Sprintf("ring: RegenBid for non-member %d of %s", id, m))
	}
	return maxBidSeen + len(m.Members) + 1 + idx
}

// NextID is the smallest stable ID never used by this ring:
// max(Members)+1. Joiners are assigned NextID so departed members' IDs
// are never recycled within a run (recycling would hand the joiner the age
// slot that still carries the departed member's last age, and a trace
// reader would take two servers for one).
func (m Membership) NextID() int { return m.Slots() }

// WithMember returns a new membership at Epoch+1 that includes id.
// The receiver is not modified. Adding an existing member still bumps
// the epoch — callers wanting idempotence check Contains first.
func (m Membership) WithMember(id int) Membership {
	if id < 0 {
		panic(fmt.Sprintf("ring: negative member ID %d", id))
	}
	i := sort.SearchInts(m.Members, id)
	out := make([]int, 0, len(m.Members)+1)
	out = append(out, m.Members[:i]...)
	if i == len(m.Members) || m.Members[i] != id {
		out = append(out, id)
	}
	out = append(out, m.Members[i:]...)
	return Membership{Epoch: m.Epoch + 1, Members: out}
}

// WithoutMember returns a new membership at Epoch+1 that excludes id.
// The receiver is not modified.
func (m Membership) WithoutMember(id int) Membership {
	out := make([]int, 0, len(m.Members))
	for _, v := range m.Members {
		if v != id {
			out = append(out, v)
		}
	}
	return Membership{Epoch: m.Epoch + 1, Members: out}
}

// Compare totally orders memberships so every server adopts the same
// winner regardless of arrival order. a beats b (returns > 0) when:
//
//  1. a.Epoch > b.Epoch — newer epochs always win; or, at equal epoch,
//  2. a has fewer members — concurrent reconfigurations at the same
//     epoch are resolved "leave beats join": the safety-critical
//     exclusion of a dead server must not lose to an optimistic add; or
//  3. lexicographically larger member sequence — an arbitrary but
//     deterministic tiebreak between same-size sets.
//
// Returns 0 exactly when the two are Equal. The zero Membership carries
// no information and loses to every non-zero one, whatever the epochs.
func Compare(a, b Membership) int {
	if a.IsZero() || b.IsZero() {
		switch {
		case a.IsZero() && b.IsZero():
			return 0
		case a.IsZero():
			return -1
		}
		return 1
	}
	if a.Epoch != b.Epoch {
		if a.Epoch > b.Epoch {
			return 1
		}
		return -1
	}
	if len(a.Members) != len(b.Members) {
		if len(a.Members) < len(b.Members) {
			return 1
		}
		return -1
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			if a.Members[i] > b.Members[i] {
				return 1
			}
			return -1
		}
	}
	return 0
}

// Clone returns a deep copy whose Members slice shares no storage with
// the receiver. Cores clone on adoption so retaining a membership never
// pins (or races with) a transport's recycled wire buffer.
func (m Membership) Clone() Membership {
	if m.Members == nil {
		return Membership{Epoch: m.Epoch}
	}
	return Membership{Epoch: m.Epoch, Members: append([]int(nil), m.Members...)}
}

// String renders the membership as "e3{0,2,4}" for logs and panics.
func (m Membership) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "e%d{", m.Epoch)
	for i, id := range m.Members {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte('}')
	return b.String()
}
