package spyker

import (
	"fmt"
	"sort"

	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// State is a serializable snapshot of a ServerCore: everything needed to
// resume the protocol after a restart — the model, the age bookkeeping,
// the token (if held), the synchronization dedup sets, and the per-client
// decay counters. It is a plain data struct so it gob/json-encodes
// directly.
type State struct {
	Config Config

	W       []float64
	Age     float64
	AgePrev float64

	Ages             []float64
	Token            *Token // nil if not held
	OngoingSynchro   bool
	DidBroadcast     []int // sorted synchronization IDs already served
	Cnt              map[int]int
	LastAgeBroadcast float64

	Updates map[int]int
	Total   int

	SyncsTriggered int
	SyncsJoined    int

	// MaxBidSeen and TokenRegens are the token-loss recovery state (see
	// Config.TokenTimeout): the freshest round bid witnessed, never below
	// a held token's bid, and the number of regenerations performed.
	MaxBidSeen  int
	TokenRegens int

	// Frontier is the merged-updates vector clock (causal provenance; see
	// ServerCore.Frontier), as long as Ages.
	Frontier []int64

	// Mem is the epoch-versioned ring membership the core was running on.
	Mem *ring.Membership
}

// SnapshotInto captures the core's full protocol state in a caller-owned
// State, reusing its slices and maps — the allocation-free path for
// periodic checkpointing with a scratch State. The result shares no
// storage with the core.
func (s *ServerCore) SnapshotInto(st *State) {
	st.Config = s.cfg
	st.W = append(st.W[:0], s.model()...)
	st.Age = s.age
	st.AgePrev = s.agePrev
	st.Ages = append(st.Ages[:0], s.ages...)
	st.OngoingSynchro = s.ongoingSynchro
	st.LastAgeBroadcast = s.lastAgeBroadcast
	st.Total = s.total
	st.SyncsTriggered = s.syncsTriggered
	st.SyncsJoined = s.syncsJoined
	st.MaxBidSeen = s.maxBidSeen
	st.TokenRegens = s.tokenRegens
	st.Frontier = append(st.Frontier[:0], s.frontier...)
	if st.Mem == nil {
		st.Mem = &ring.Membership{}
	}
	st.Mem.Epoch = s.mem.Epoch
	st.Mem.Members = append(st.Mem.Members[:0], s.mem.Members...)
	if s.token != nil {
		if st.Token == nil {
			st.Token = &Token{}
		}
		st.Token.Bid = s.token.Bid
		st.Token.Ages = append(st.Token.Ages[:0], s.token.Ages...)
	} else {
		st.Token = nil
	}
	st.DidBroadcast = st.DidBroadcast[:0]
	//lint:sorted keys are collected and sorted just below
	for bid := range s.didBroadcast {
		st.DidBroadcast = append(st.DidBroadcast, bid)
	}
	sort.Ints(st.DidBroadcast)
	if st.Cnt == nil {
		st.Cnt = make(map[int]int, len(s.cnt))
	}
	clear(st.Cnt)
	//lint:sorted map-to-map copy is order-independent
	for k, v := range s.cnt {
		st.Cnt[k] = v
	}
	if st.Updates == nil {
		st.Updates = make(map[int]int, len(s.updates))
	}
	clear(st.Updates)
	//lint:sorted map-to-map copy is order-independent
	for k, v := range s.updates {
		st.Updates[k] = v
	}
}

// RestoreServerCore rebuilds a core from a snapshot, attaching the given
// outbound. The state is copied, not aliased. The core restores onto
// exactly the snapshot's ring, with the server's stable ID free of the
// 0..N-1 constraint as long as it is a member. A snapshot is outside
// input: one that SnapshotInto cannot have written — no membership, no
// frontier, lengths that disagree — is refused with an error.
func RestoreServerCore(st State, out Outbound) (*ServerCore, error) {
	if st.Mem == nil || st.Frontier == nil {
		return nil, fmt.Errorf("spyker: snapshot carries no ring membership or no frontier")
	}
	mem := st.Mem.Clone()
	if !mem.Contains(st.Config.ID) {
		return nil, fmt.Errorf("spyker: snapshot server %d not a member of %s",
			st.Config.ID, mem)
	}
	if len(st.Ages) < mem.Slots() {
		return nil, fmt.Errorf("spyker: snapshot ages length %d < %d membership slots",
			len(st.Ages), mem.Slots())
	}
	// Ages and frontier grow in lockstep (growTo), so their lengths must
	// agree.
	if len(st.Frontier) != len(st.Ages) {
		return nil, fmt.Errorf("spyker: snapshot frontier length %d != ages length %d",
			len(st.Frontier), len(st.Ages))
	}
	if st.Token != nil && st.MaxBidSeen < st.Token.Bid {
		return nil, fmt.Errorf("spyker: snapshot holds token bid %d above its freshest witnessed bid %d",
			st.Token.Bid, st.MaxBidSeen)
	}
	s := newServerCore(st.Config, mem, st.W, false, out)
	s.age = st.Age
	s.agePrev = st.AgePrev
	s.growTo(len(st.Ages))
	copy(s.ages, st.Ages)
	copy(s.frontier, st.Frontier)
	if st.Token != nil {
		t := Token{Bid: st.Token.Bid, Ages: tensor.Clone(st.Token.Ages), Mem: s.mem}
		s.token = &t
		s.hasToken = true
	}
	s.ongoingSynchro = st.OngoingSynchro
	for _, bid := range st.DidBroadcast {
		s.didBroadcast[bid] = true
	}
	//lint:sorted map-to-map copy is order-independent
	for k, v := range st.Cnt {
		s.cnt[k] = v
	}
	s.lastAgeBroadcast = st.LastAgeBroadcast
	//lint:sorted map-to-map copy is order-independent
	for k, v := range st.Updates {
		s.updates[k] = v
	}
	s.total = st.Total
	s.syncsTriggered = st.SyncsTriggered
	s.syncsJoined = st.SyncsJoined
	s.maxBidSeen = st.MaxBidSeen
	s.tokenRegens = st.TokenRegens
	return s, nil
}
