// Package spyker implements the paper's primary contribution: the fully
// asynchronous multi-server federated-learning protocol. The protocol
// logic (Alg. 1 client/server interaction and Alg. 2 token-triggered
// server-model exchange) lives in ServerCore, a transport-agnostic state
// machine driven by message-handler calls. The same core is executed both
// under the discrete-event simulator (sim.go) and over real TCP by the
// live runtime (internal/live).
package spyker

import (
	"fmt"
	"math"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// Token is the circulating token of Alg. 2. It carries a synchronization
// ID (bid), the freshest known age of every server model, and — the
// elastic-membership extension — the ring membership the sender believed
// in, so a token pass (or a regenerated token) also propagates membership
// changes. Mem is the zero Membership on tokens from legacy senders and
// checkpoints; receivers ignore it then.
type Token struct {
	Bid  int
	Ages []float64
	Mem  ring.Membership
}

// Outbound is everything a ServerCore needs to talk to the outside world.
// Implementations route over the discrete-event simulator or over TCP.
//
// Ownership of params differs between the two model-carrying calls.
// ReplyClient is given the vector: it holds a copy of the new model that
// nothing else refers to — the buffer the client's update arrived in,
// overwritten by the merge (see HandleClientUpdate) — and the
// implementation keeps it for as long as the reply is in flight and
// disposes of it afterwards, with no copy of its own. A merger that merges
// later (see merger) may still be writing that vector when ReplyClient is
// called; its owner joins it before it delivers or drops the reply.
// BroadcastModel is lent the core's live model vector, valid
// only for the duration of the call — the core mutates it on the next
// handler — so an implementation that delivers asynchronously (every real
// transport does) must copy it before returning; internal/paramvec pools
// make that copy allocation-free.
type Outbound interface {
	// ReplyClient returns the new server model to client k along with the
	// model age and the client's next learning rate (Alg. 1 l. 19). params
	// is owned by the callee from here on; it may still be being written
	// until the merger's owner joins the merge at delivery.
	ReplyClient(k int, params []float64, age, lr float64)
	// BroadcastModel sends this server's model, age and the current
	// synchronization ID to every other server (Alg. 2 l. 25/35). params is
	// a borrow. uid names the copy (obs.RoundUID), which the receiver's
	// server-agg event names in turn. mem is the sender's current ring
	// membership, attached to the message header so receivers converge on
	// the freshest epoch; unlike params it may be aliased after the call
	// returns (Membership slices are immutable by the ring package's
	// contract).
	BroadcastModel(params []float64, age float64, bid int, uid obs.UID, mem ring.Membership)
	// BroadcastAge announces this server's model age to every other
	// server so the token holder can trigger a synchronization
	// (Alg. 2 l. 29). mem rides the header like on BroadcastModel.
	BroadcastAge(age float64, mem ring.Membership)
	// SendToken forwards the token to the next server on the ring
	// (Alg. 2 l. 41).
	SendToken(t Token, next int)
}

// Config parameterizes a ServerCore.
type Config struct {
	ID         int // this server's index in 0..N-1
	NumServers int
	NumClients int // clients assigned to THIS server (for the decay average)

	EtaServer float64 // client-update aggregation rate eta_i
	Phi       float64 // sigmoid activation rate
	EtaA      float64 // server-model aggregation rate eta_a
	HInter    float64 // inter-server age-drift threshold
	HIntra    float64 // intra-server age-drift threshold

	ClientLR     float64 // base local learning rate eta_k
	DecayEnabled bool
	Beta         float64 // relative decay per excess update
	EtaMin       float64 // learning-rate floor

	// RobustClipFactor > 0 enables Byzantine-robust norm clipping of
	// client updates (an extension; the paper lists "Byzantine Learning"
	// as a keyword but evaluates only honest clients): the delta a client
	// update applies is rescaled so its L2 norm never exceeds
	// RobustClipFactor times the running average of honest delta norms.
	// Sign-flipped or noise updates from malicious clients are thereby
	// bounded to the influence of one ordinary update. 0 disables.
	RobustClipFactor float64

	// TokenTimeout > 0 arms token-loss recovery (the crash/recovery
	// extension, ROADMAP 4(c)): a server that neither holds the token nor
	// has observed fresh ring traffic (a token arrival or a previously
	// unseen sync-round broadcast) for this many clock seconds — as
	// sampled by Tick — regenerates the token with a strictly higher bid,
	// so any stale survivor that later resurfaces is discarded by the bid
	// comparison in HandleToken. 0 (the default) disables recovery and
	// leaves the protocol exactly as specified by Alg. 2. The timeout
	// should be several times the expected gap between synchronizations:
	// a spurious regeneration during a legitimately quiet phase is safe
	// (the bid order retires the losing token) but costs an extra round.
	TokenTimeout float64

	// SyncRetry > 0 makes a token holder whose synchronization round has
	// made no progress for this many clock seconds re-broadcast its model
	// under the same bid. A round stalls permanently when a participant
	// was down (or a broadcast was lost) — the holder's cnt can then never
	// reach NumServers — and the retry lets a restarted server join the
	// round late, completing it. 0 disables.
	SyncRetry float64
}

// TickPeriod is how often, in clock seconds, a runtime must call Tick for
// the recovery timers: a quarter of the shortest armed timeout (detection
// latency at most 1.25x the configured window), 0 when both are off.
func (c Config) TickPeriod() float64 {
	shortest := c.TokenTimeout
	if c.SyncRetry > 0 && (shortest <= 0 || c.SyncRetry < shortest) {
		shortest = c.SyncRetry
	}
	if shortest <= 0 {
		return 0
	}
	return shortest / 4
}

// ServerCore is the Spyker server state machine. It is not safe for
// concurrent use; callers serialize handler invocations (the simulator
// runs them on its event loop, the live runtime uses one mutex per
// server). Its plain client merge goes through the merger it is given,
// which it joins before the model is read again (see merger).
type ServerCore struct {
	cfg Config
	out Outbound

	// mem is the ring membership this server currently believes in (the
	// elastic-membership extension). The age vector below is indexed by
	// stable server ID and sized mem.Slots(); it only ever grows across
	// epoch changes — a departed member's slot keeps its last value, so
	// carried-over ages never need re-indexing.
	mem ring.Membership

	// w is the model. Everything reaches it through model(), which first
	// joins the merger; the plain merge's hand-off to the merger
	// (applyClientDelta) is the one other code that names it, which
	// internal/lint's TestServerModelHasOneReader enforces.
	w       []float64
	merger  merger
	age     float64
	agePrev float64

	ages             []float64 // freshest known age per server (by stable ID)
	token            *Token
	hasToken         bool
	ongoingSynchro   bool
	didBroadcast     map[int]bool
	cnt              map[int]int
	lastAgeBroadcast float64
	// roundCopy is the copy index of the held round's latest broadcast: 0
	// for the trigger, n for the n-th SyncRetry re-broadcast (obs.RoundUID).
	roundCopy int

	updates map[int]int     // u[k]: updates received per client
	rates   map[int]float64 // current learning rate per client
	total   int             // total updates received (for the average)

	// Byzantine-robust clipping state: exponential moving average of the
	// (post-clip) client delta norms. deltaScratch is the persistent
	// model-sized buffer the clip path computes deltas into, so clipping
	// costs no per-update allocation.
	deltaNormEMA float64
	emaReady     bool
	clipped      int // updates whose delta was clipped
	deltaScratch paramvec.Vec

	syncsTriggered int
	syncsJoined    int

	// Token-loss recovery state (see Config.TokenTimeout and Tick).
	// maxBidSeen is the highest sync-round bid this server has witnessed —
	// carried by an adopted token or by a received model broadcast; a
	// token whose post-increment bid does not exceed it is a stale
	// survivor (or wire duplicate) and is discarded. ringSeq counts fresh
	// ring activity; Tick compares it against lastRingSeq to measure
	// silence. stuck* track how long the holder's current round has made
	// no progress (the SyncRetry path).
	maxBidSeen  int
	ringSeq     uint64
	lastRingSeq uint64
	quietSince  float64
	quietValid  bool
	stuckBid    int
	stuckSince  float64
	stuckValid  bool
	tokenRegens int

	// Observability (see Instrument): sink receives protocol events
	// stamped with clock(). Defaults to the no-op sink and a zero clock,
	// so an uninstrumented core pays one interface call per handler.
	sink  obs.Sink
	clock obs.Clock
}

// merger carries out the core's plain client merges: merge does
// w += weight*(reply-w), then reply = w, now or later, and join returns once
// every merge it was handed is done. A core merges inline unless its runtime
// installs another merger (the DES installs its mergeChain, in sim.go).
type merger interface {
	merge(w []float64, weight float64, reply []float64)
	join()
}

// inline is the merger of the live runtime and the tests: each merge runs
// at once, so there is never anything to join.
type inline struct{}

func (inline) merge(w []float64, weight float64, reply []float64) {
	paramvec.Vec(w).MergeReplyInto(weight, reply)
}
func (inline) join() {}

// NewServerCore creates a server with the given initial model on the
// fixed construction-time ring 0..NumServers-1 at epoch 0. If holdsToken
// is true the server starts as the token holder with bid 1 (paper: the
// token initially resides at one randomly chosen server).
func NewServerCore(cfg Config, initial []float64, holdsToken bool, out Outbound) *ServerCore {
	if cfg.NumServers <= 0 || cfg.ID < 0 || cfg.ID >= cfg.NumServers {
		panic(fmt.Sprintf("spyker: bad server id %d of %d", cfg.ID, cfg.NumServers))
	}
	return newServerCore(cfg, ring.Fixed(cfg.NumServers), initial, holdsToken, out)
}

// newServerCore creates a server on an arbitrary ring membership — the
// elastic path used by checkpoint restore and runtime joins, where the
// server's stable ID need not lie in 0..NumServers-1 as long as it is a
// ring member.
func newServerCore(cfg Config, mem ring.Membership, initial []float64, holdsToken bool, out Outbound) *ServerCore {
	if !mem.Contains(cfg.ID) {
		panic(fmt.Sprintf("spyker: server %d not a member of %s", cfg.ID, mem))
	}
	slots := mem.Slots()
	s := &ServerCore{
		cfg:          cfg,
		out:          out,
		mem:          mem.Clone(),
		w:            tensor.Clone(initial),
		merger:       inline{},
		ages:         make([]float64, slots),
		didBroadcast: make(map[int]bool),
		cnt:          make(map[int]int),
		updates:      make(map[int]int),
		rates:        make(map[int]float64),
		sink:         obs.Nop{},
		clock:        zeroClock,
	}
	if holdsToken {
		s.token = &Token{Bid: 1, Ages: make([]float64, slots), Mem: s.mem}
		s.hasToken = true
		s.maxBidSeen = 1
	}
	return s
}

// zeroClock stamps events of an uninstrumented core.
func zeroClock() float64 { return 0 }

// Instrument attaches an observability sink and the clock that stamps its
// events (the simulator passes virtual time, the live runtime wall time
// since start). Nil arguments restore the defaults. Call before the first
// handler runs; the core emits KindClientUpdate, KindServerAgg,
// KindSyncStart/KindSyncEnd, and KindTokenPass events.
func (s *ServerCore) Instrument(sink obs.Sink, clock obs.Clock) {
	if sink == nil {
		sink = obs.Nop{}
	}
	if clock == nil {
		clock = zeroClock
	}
	s.sink = sink
	s.clock = clock
}

// Params returns the live parameter vector (callers must not modify).
func (s *ServerCore) Params() []float64 { return s.model() }

// model is the one way to the model: w, once the merger has finished.
func (s *ServerCore) model() []float64 {
	s.merger.join()
	return s.w
}

// Age returns the current model age A_i.
func (s *ServerCore) Age() float64 { return s.age }

// KnownAges returns a copy of this server's age-vector knowledge (what
// it believes every member slot's model age to be, its own included).
func (s *ServerCore) KnownAges() []float64 {
	return append([]float64(nil), s.ages...)
}

// HasToken reports whether this server currently holds the token.
func (s *ServerCore) HasToken() bool { return s.hasToken }

// SyncsTriggered reports how many synchronizations this server initiated
// as token holder.
func (s *ServerCore) SyncsTriggered() int { return s.syncsTriggered }

// SyncsJoined reports how many synchronizations this server participated
// in (including triggered ones).
func (s *ServerCore) SyncsJoined() int { return s.syncsJoined }

// UpdatesFrom reports how many updates client k has contributed.
func (s *ServerCore) UpdatesFrom(k int) int { return s.updates[k] }

// Membership returns the ring membership this server currently believes
// in. The returned value is a borrow: callers must not mutate its
// Members slice (the ring package's immutability contract makes reading
// it safe even while the core adopts newer epochs, because adoption
// replaces the slice rather than mutating it).
func (s *ServerCore) Membership() ring.Membership { return s.mem }

// Epoch returns the membership epoch this server currently believes in.
func (s *ServerCore) Epoch() int { return s.mem.Epoch }

// SetNumClients updates the client count that feeds the decay average —
// the elastic runtime re-homes clients between servers, and the decay
// rule should track the population a server actually serves.
func (s *ServerCore) SetNumClients(n int) { s.cfg.NumClients = n }

// growTo extends the age vector to at least n slots. It never shrinks: a
// departed member's slot keeps its last age, which is exactly what
// carry-over across epochs requires.
func (s *ServerCore) growTo(n int) {
	for len(s.ages) < n {
		s.ages = append(s.ages, 0)
	}
}

// observeMembership folds a membership header from any inbound message
// into this server's belief: strictly fresher ones (ring.Compare order)
// are adopted, everything else — including the zero header of legacy
// senders — is ignored.
func (s *ServerCore) observeMembership(mem ring.Membership) {
	if ring.Compare(mem, s.mem) > 0 {
		s.adoptMembership(mem, "observed")
	}
}

// adoptMembership installs a fresher ring membership. The age vector
// grows to the new slot count (carry-over: existing ages keep their
// slots), the silence detector counts the adoption as fresh ring
// activity, and two ring-shape consequences are
// applied immediately: a server that finds itself excluded retires any
// token it holds (it is no longer allowed to broker rounds), and a
// holder whose in-progress round already has enough broadcasts under
// the shrunken ring completes it on the spot — the departed member's
// missing broadcast must not stall the round until SyncRetry.
func (s *ServerCore) adoptMembership(mem ring.Membership, note string) {
	s.mem = mem.Clone() // wire headers alias transport buffers; own it
	s.growTo(s.mem.Slots())
	s.ringSeq++
	s.emit(obs.KindMembership, obs.NoPeer, s.mem.Epoch, note)
	if !s.mem.Contains(s.cfg.ID) {
		if s.hasToken {
			s.emit(obs.KindTokenRetire, obs.NoPeer, s.token.Bid, "excluded")
			s.releaseToken()
		}
		return
	}
	if s.hasToken && s.ongoingSynchro && s.cnt[s.token.Bid] >= s.mem.Count() {
		s.forwardToken()
	}
}

// AdmitMember adds newID to the ring (epoch bump, broadcast to the
// current members) and returns the State a new server with that ID
// should bootstrap from: this server's model and age knowledge, re-keyed
// to the joiner's identity with the per-identity protocol state (token,
// round participation, round copy, client counters) cleared. Admitting an
// existing member is idempotent — no epoch bump, just a fresh snapshot.
func (s *ServerCore) AdmitMember(newID int) (State, error) {
	if newID < 0 {
		return State{}, fmt.Errorf("spyker: admit negative server ID %d", newID)
	}
	if !s.mem.Contains(newID) {
		s.adoptMembership(s.mem.WithMember(newID), "admit")
		// Announce the new ring to the current members right away; the
		// age header is the cheapest membership carrier.
		s.lastAgeBroadcast = s.age
		s.out.BroadcastAge(s.age, s.mem)
	}
	var st State
	s.SnapshotInto(&st)
	s.emit(obs.KindCheckpoint, newID, 0, "") // what the joiner's restore names
	st.Config.ID = newID
	st.Config.NumServers = s.mem.Slots()
	st.Config.NumClients = 0
	st.Ages[newID] = st.Age // the joiner starts with this model, at its age
	st.Token = nil
	st.OngoingSynchro = false
	st.RoundCopy = 0
	// DidBroadcast and Cnt are cleared rather than copied: membership
	// adoption grows the completion target of in-flight rounds, so the
	// joiner must be free to broadcast into a round the sponsor already
	// served — inheriting the sponsor's dedup set would stall such rounds
	// until SyncRetry.
	st.DidBroadcast = nil
	st.Cnt = nil
	st.Updates = nil
	st.SyncsTriggered = 0
	st.SyncsJoined = 0
	st.TokenRegens = 0
	return st, nil
}

// ExcludeMember removes id from the ring (epoch bump, broadcast to the
// survivors). Call it on any surviving member after a leave or an
// unrecoverable crash; excluding a non-member is a no-op. The excluded
// server may keep running — once the new epoch reaches it, it retires
// any token it holds and stops participating in rounds.
func (s *ServerCore) ExcludeMember(id int) {
	if !s.mem.Contains(id) {
		return
	}
	s.adoptMembership(s.mem.WithoutMember(id), "exclude")
	s.lastAgeBroadcast = s.age
	s.out.BroadcastAge(s.age, s.mem)
}

// YieldToken gracefully hands a held, idle token to the ring successor —
// the leave path: a server about to depart passes the token on instead
// of forcing the survivors through a TokenTimeout regeneration. It
// reports whether the token was sent; a holder mid-synchronization (or a
// singleton ring) returns false, and the caller falls back to DropToken
// plus timeout recovery.
func (s *ServerCore) YieldToken() bool {
	if !s.hasToken || s.ongoingSynchro {
		return false
	}
	next := s.mem.Successor(s.cfg.ID)
	if next == s.cfg.ID {
		return false
	}
	t := *s.token
	t.Ages = tensor.Clone(s.ages)
	t.Mem = s.mem
	s.token = nil
	s.hasToken = false
	s.emit(obs.KindTokenPass, next, t.Bid, "yield")
	s.out.SendToken(t, next)
	return true
}

// StalenessWeight implements the dampening weight w_k^t of Alg. 1 l. 14.
// The pseudo-code writes w = A_i - A_k literally, but the text specifies
// the weight must "decrease the impact of the received update" as the age
// difference grows, so — consistent with the FedAsync staleness family the
// paper builds on and evaluates against — we use the polynomial form
// (1 + (A_i - A_k))^(-1/2): a fresh update (equal ages) gets weight 1,
// stale updates are damped. The 1/2 exponent matches the FedAsync
// configuration of the paper's evaluation, keeping the client-update
// aggregation of the two systems directly comparable. Sync-Spyker reuses
// this weight for its client-update aggregation.
func StalenessWeight(serverAge, clientAge float64) float64 {
	tau := serverAge - clientAge
	if tau < 0 {
		tau = 0
	}
	return 1 / math.Sqrt(1+tau)
}

// DecayRate implements the Decay function of Sec. 4.1 given the update
// count uk of a client and the per-server average uBar. Clients at or
// below the average keep the base rate.
//
// The paper's pseudo-formula subtracts beta*(uk-uBar) linearly, but on any
// long horizon the gap of an above-average client grows without bound, so
// the linear rule eventually pins every faster-than-average client at
// etaMin — which contradicts the paper's own stated goal, to "balance the
// overall contribution of clients" (Sec. 5.5), and destroys convergence in
// our emulation. We therefore use the hyperbolic rule the stated goal
// implies: lr = base * (uBar/uk)^beta. With beta=1 a client contributing
// r times the average rate is damped by exactly 1/r, so every client's
// long-run contribution mass is equal; beta=0 disables the decay; etaMin
// still floors the rate.
func DecayRate(base, beta, etaMin, uk, uBar float64) float64 {
	if uk <= uBar || uk <= 0 || uBar <= 0 {
		return base
	}
	// math.Pow calls no exp at beta 1 or 0, where its special cases answer.
	lr := base * math.Pow(uBar/uk, beta)
	if lr < etaMin {
		lr = etaMin
	}
	return lr
}

// ServerAggWeight computes the sigmoid aggregation weight of Alg. 2
// ll. 47-48 for merging a remote model of age remoteAge into a local model
// of age localAge with activation rate phi.
func ServerAggWeight(phi, localAge, remoteAge float64) float64 {
	denom := localAge
	if denom < 1 {
		denom = 1 // guard: ages start at 0
	}
	a := phi * (remoteAge - localAge) / denom
	return 1 / (1 + tensor.Exp(-a))
}

// HandleClientUpdate processes a trained model from client k that was
// based on a server model of age clientAge (Alg. 1, Aggregation).
//
// It consumes params: the merge overwrites the vector with the new server
// model and hands it to Outbound.ReplyClient as the reply, so the caller
// gives the vector up with the call — it must not read it afterwards, and a
// caller that may deliver one update twice passes each call a copy.
//
// When the decay is enabled, the update's aggregation weight is scaled by
// the same decay ratio as the client's learning rate. This realizes the
// paper's stated goal — "the impact of the updates that the most active
// clients generate is therefore dampened" — on the server side too:
// without it, a client whose learning rate has been floored at eta_min
// returns an (almost) unchanged copy of an old server model, and merging
// that echo at full weight drags the server back toward its own past.
//
// uid is the update's trace context: the causal ID the client minted when
// the trained update left it (obs.UpdateUID), zero for untraced callers.
func (s *ServerCore) HandleClientUpdate(k int, params []float64, clientAge float64, uid obs.UID) {
	s.updates[k]++
	s.total++
	lr := s.decayedRate(k)
	s.rates[k] = lr

	damp := 1.0
	if s.cfg.DecayEnabled && s.cfg.ClientLR > 0 {
		damp = lr / s.cfg.ClientLR
	}
	staleness := s.age - clientAge
	wk := StalenessWeight(s.age, clientAge)
	s.applyClientDelta(params, s.cfg.EtaServer*wk*damp)
	s.age++
	s.ages[s.cfg.ID] = s.age

	if s.sink.Enabled() {
		s.sink.Emit(obs.Event{
			Time: s.clock(), Kind: obs.KindClientUpdate,
			Node: s.cfg.ID, Peer: k, Age: s.age, Stale: staleness, UID: uid,
		})
	}
	// params now holds the new model, or will once the merge has run, and
	// is the reply (see the Outbound contract): no copy of the model is
	// made for it.
	s.out.ReplyClient(k, params, s.age, lr)
	s.checkSynchronization()
}

// ensureScratch grows the clip-path scratch buffer to hold at least n
// elements: the clip path's one allocation, on first use or after a
// model-size change.
func (s *ServerCore) ensureScratch(n int) {
	if cap(s.deltaScratch) < n {
		s.deltaScratch = paramvec.New(n)
	}
}

// applyClientDelta merges a client update at the given effective weight:
// W += weight * (params - W), and leaves a copy of the new W in params —
// the reply. With RobustClipFactor enabled, the delta is first rescaled so
// its norm stays within the factor times the running average delta norm,
// bounding what any single (possibly malicious) update can do to the
// model; that path needs the whole delta's norm before it can move W, so
// it cannot write the reply in the merging sweep and copies it afterwards.
// The plain sweep is the merger's, which may leave it pending when this
// returns.
func (s *ServerCore) applyClientDelta(params []float64, weight float64) {
	if s.cfg.RobustClipFactor <= 0 {
		s.merger.merge(s.w, weight, params)
		return
	}
	w := paramvec.Vec(s.model())
	s.ensureScratch(len(w))
	delta := s.deltaScratch[:len(w)]
	delta.DiffInto(params, w)
	norm := delta.L2Norm()
	scale := 1.0
	if s.emaReady {
		if limit := s.cfg.RobustClipFactor * s.deltaNormEMA; norm > limit && norm > 0 {
			scale = limit / norm
			s.clipped++
		}
	}
	w.AxpyInto(weight*scale, delta)
	// The EMA tracks post-clip norms so attackers cannot inflate the
	// clipping threshold by flooding oversized updates.
	post := norm * scale
	if !s.emaReady {
		s.deltaNormEMA = post
		s.emaReady = true
	} else {
		s.deltaNormEMA = float64(0.9*s.deltaNormEMA) + float64(0.1*post)
	}
	copy(params, w)
}

// ReengageClient re-sends the current model to client k without
// processing an update. The restart path uses it to revive clients that
// starved while this server was down: their in-flight updates were
// discarded, so without a fresh model no reply would ever reach them and
// their training loop would stay parked forever.
//
// There is no update in hand whose buffer could carry the reply, so this
// rare path gives ReplyClient a copy made for it.
func (s *ServerCore) ReengageClient(k int) {
	s.out.ReplyClient(k, tensor.Clone(s.model()), s.age, s.decayedRate(k))
}

// decayedRate implements the Decay function of Sec. 4.1: clients that have
// contributed more updates than the per-server average get their learning
// rate reduced proportionally to the excess, floored at EtaMin. Beta is
// interpreted as a relative decay per excess update so the rule is
// invariant to the absolute learning-rate scale.
func (s *ServerCore) decayedRate(k int) float64 {
	if !s.cfg.DecayEnabled {
		return s.cfg.ClientLR
	}
	uk := float64(s.updates[k])
	nClients := s.cfg.NumClients
	if nClients <= 0 {
		nClients = len(s.updates)
	}
	uBar := float64(s.total) / float64(nClients)
	return DecayRate(s.cfg.ClientLR, s.cfg.Beta, s.cfg.EtaMin, uk, uBar)
}

// The paper's pseudo-code merges age knowledge with max(), which is only
// sound if ages grow monotonically — but ServerAgg (Alg. 2 l. 50) moves a
// server's age toward the remote age by a weighted average, so ages can
// DECREASE. With max-merge, a peer's historical peak age then sticks in
// everybody's knowledge map forever, the perceived inter-server drift
// never falls below hInter again, and the deployment synchronizes in an
// infinite loop (our protocol fuzzer found this livelock). Since the
// paper assumes FIFO links, a direct report from a server is always
// causally fresher than any previous one, so knowledge is overwritten
// instead (see DESIGN.md, deviation 10).

// HandleAge processes an age announcement from server j (Alg. 2 RcvAge).
// mem is the sender's membership header (zero when the caller carries
// none). The header is observed first, so an age announcement from a
// just-joined server both grows the local arrays and installs the new
// epoch before the age lands.
func (s *ServerCore) HandleAge(j int, age float64, mem ring.Membership) {
	s.observeMembership(mem)
	if j < 0 {
		return
	}
	s.growTo(j + 1)
	s.ages[j] = age
	s.checkSynchronization()
}

// HandleToken processes token arrival (Alg. 2 RcvToken). Token entries
// may be staler than direct knowledge (the token traveled the ring), but
// adopting them is still safe: a wrongly perceived drift at worst
// triggers one extra exchange, whose direct reports refresh the map.
//
// Recovery extension: a token whose post-increment bid does not exceed
// the freshest round bid this server has witnessed is a stale survivor
// (the pre-crash token resurfacing after a regeneration) or a wire
// duplicate, and is discarded — the "Token.Bid dedup" that keeps recovery
// single-token. In fault-free executions the condition never fires: every
// token pass follows a completed round whose broadcasts carried exactly
// maxBidSeen, so the incoming bid is always maxBidSeen+1.
func (s *ServerCore) HandleToken(t Token) {
	s.ringSeq++
	// The membership header is observed before the bid dedup: even a
	// stale token's ring knowledge may be fresher than ours, and an
	// excluded receiver must learn of its exclusion no matter which
	// token incarnation brings the news.
	s.observeMembership(t.Mem)
	if t.Bid+1 <= s.maxBidSeen {
		s.emit(obs.KindTokenRetire, obs.NoPeer, t.Bid, "stale-incoming")
		return
	}
	if !s.mem.Contains(s.cfg.ID) {
		// This server has been excluded from the ring (the token itself
		// may have brought the news). It must not broker rounds, but
		// dropping the token would stall the survivors until a
		// TokenTimeout regeneration — so relay it unchanged to the ring
		// successor, which also carries the exclusion epoch forward.
		next := s.mem.Successor(s.cfg.ID)
		if next == s.cfg.ID {
			return
		}
		t.Mem = s.mem
		s.emit(obs.KindTokenPass, next, t.Bid, "relay-excluded")
		s.out.SendToken(t, next)
		return
	}
	if s.hasToken {
		// The incoming token outbids ours (a regenerated token overtaking
		// a dormant survivor): ours retires, the higher bid wins.
		s.retireOwnToken()
	}
	for j, a := range t.Ages {
		if j != s.cfg.ID && j < len(s.ages) {
			s.ages[j] = a
		}
	}
	s.ages[s.cfg.ID] = s.age
	t.Bid++
	kept := t // only a kept token moves to the heap, not every arrival
	s.token = &kept
	s.hasToken = true
	if t.Bid > s.maxBidSeen {
		s.maxBidSeen = t.Bid
	}
	s.checkSynchronization()
}

// emit sends one protocol event about this server, stamped with the core's
// clock, to the attached sink; without one it costs the Enabled check and
// neither reads the clock nor builds the event.
func (s *ServerCore) emit(kind obs.EventKind, peer, bid int, note string) {
	if s.sink.Enabled() {
		s.sink.Emit(obs.Event{Time: s.clock(), Kind: kind, Node: s.cfg.ID, Peer: peer, Bid: bid, Note: note})
	}
}

// broadcast sends copy c of this server's model into round bid: a
// KindSyncStart names the copy's UID, and the model travels under it.
func (s *ServerCore) broadcast(bid, c int, note string) {
	uid := obs.RoundUID(s.cfg.ID, bid, c)
	if s.sink.Enabled() {
		s.sink.Emit(obs.Event{Time: s.clock(), Kind: obs.KindSyncStart, Node: s.cfg.ID, Peer: obs.NoPeer, Bid: bid, Note: note, UID: uid})
	}
	s.out.BroadcastModel(s.model(), s.age, bid, uid, s.mem)
}

// releaseToken forgets the held token and whatever round it was brokering.
func (s *ServerCore) releaseToken() {
	s.token = nil
	s.hasToken = false
	s.ongoingSynchro = false
}

// retireOwnToken discards the held token (it lost a bid comparison to a
// fresher round or token). Any round it was brokering is abandoned; the
// fresher round that superseded it redistributes the models anyway.
func (s *ServerCore) retireOwnToken() {
	s.emit(obs.KindTokenRetire, obs.NoPeer, s.token.Bid, "superseded")
	s.releaseToken()
}

// DropToken discards a held token without forwarding it, simulating the
// token being lost in flight or with a crashed process — the injected
// fault internal/fault uses to exercise recovery without a full crash.
// It reports whether a token was actually held.
func (s *ServerCore) DropToken() bool {
	if !s.hasToken {
		return false
	}
	s.emit(obs.KindTokenRetire, obs.NoPeer, s.token.Bid, "injected-drop")
	s.releaseToken()
	return true
}

// Tick drives the clock-based recovery paths; now is the same clock that
// stamps this core's events (virtual seconds under the simulator, wall
// seconds since start in the live runtime). Callers invoke it
// periodically — a few times per TokenTimeout — from the same context
// that serializes the other handlers. With recovery disarmed (both
// TokenTimeout and SyncRetry zero, the default) it returns immediately
// and allocates nothing.
func (s *ServerCore) Tick(now float64) {
	if s.cfg.TokenTimeout <= 0 && s.cfg.SyncRetry <= 0 {
		return
	}
	// A singleton ring has no peers to recover with, and an excluded
	// server has no business regenerating the ring's token.
	if s.mem.Count() <= 1 || !s.mem.Contains(s.cfg.ID) {
		return
	}
	if s.cfg.SyncRetry > 0 {
		if s.hasToken && s.ongoingSynchro {
			if !s.stuckValid || s.stuckBid != s.token.Bid {
				s.stuckValid = true
				s.stuckBid = s.token.Bid
				s.stuckSince = now
			} else if now-s.stuckSince >= s.cfg.SyncRetry {
				// The round has not completed for a full retry period: a
				// participant is down or a broadcast was lost. Re-broadcast
				// under the same bid — peers that already served it only
				// re-aggregate, while a restarted server joins late and its
				// broadcast finally completes the count. Each retry is a copy
				// of its own, so a trace reader can tell which one a peer
				// merged.
				s.stuckSince = now
				s.roundCopy++
				s.broadcast(s.token.Bid, s.roundCopy, "retry")
			}
		} else {
			s.stuckValid = false
		}
	}
	if s.cfg.TokenTimeout > 0 {
		if s.hasToken || s.ringSeq != s.lastRingSeq || !s.quietValid {
			s.lastRingSeq = s.ringSeq
			s.quietSince = now
			s.quietValid = true
			return
		}
		if now-s.quietSince >= s.cfg.TokenTimeout {
			s.quietSince = now
			s.regenerateToken()
		}
	}
}

// regenerateToken mints a replacement token after a silence timeout. The
// bid jumps past everything this server has witnessed by a margin of the
// member count (covering in-flight increments of a token it may not have
// seen) plus its member index (ring.RegenBid) — so concurrent
// regenerations at different servers mint distinct bids, and the
// strictly highest one wins every later comparison, retiring the others.
func (s *ServerCore) regenerateToken() {
	bid := s.mem.RegenBid(s.maxBidSeen, s.cfg.ID)
	s.token = &Token{Bid: bid, Ages: tensor.Clone(s.ages), Mem: s.mem}
	s.hasToken = true
	s.maxBidSeen = bid
	s.tokenRegens++
	s.emit(obs.KindTokenRegen, obs.NoPeer, bid, "")
	s.checkSynchronization()
}

// TokenRegens reports how many times this server regenerated the token.
func (s *ServerCore) TokenRegens() int { return s.tokenRegens }

// MaxBidSeen reports the highest sync-round bid this server has
// witnessed (diagnostics and tests).
func (s *ServerCore) MaxBidSeen() int { return s.maxBidSeen }

// HandleServerModel processes another server's model broadcast
// (Alg. 2 RcvModel) with its trace context and membership header: uid
// names the copy of the broadcast (obs.RoundUID; zero from untraced
// callers), and the server-agg event names it in turn; mem is the
// sender's ring membership (zero when the caller carries none).
func (s *ServerCore) HandleServerModel(j int, params []float64, age float64, bid int, uid obs.UID, mem ring.Membership) {
	s.observeMembership(mem)
	// Fresh ring traffic resets the silence timer — but a holder's
	// SyncRetry re-broadcast of an already-served round does not, or a
	// stale holder stuck re-broadcasting a dead round would suppress the
	// regeneration that is supposed to supersede it.
	if bid > s.maxBidSeen || !s.didBroadcast[bid] {
		s.ringSeq++
	}
	if j < 0 {
		return
	}
	s.growTo(j + 1)
	if bid > s.maxBidSeen {
		s.maxBidSeen = bid
	}
	if s.hasToken && bid > s.token.Bid {
		// A round fresher than our token's exists, so ours is a stale
		// survivor of a regeneration (with a single token no broadcast can
		// outrun the holder's own bid): retire it and join the fresh round
		// below like any non-holder.
		s.retireOwnToken()
	}
	s.ages[j] = age
	if !s.didBroadcast[bid] && s.mem.Contains(s.cfg.ID) {
		// Excluded servers still merge broadcasts they happen to receive
		// (a fresher model never hurts) but must not broadcast into the
		// round — the holder counts broadcasts against the member count.
		s.didBroadcast[bid] = true
		s.agePrev = s.age
		s.syncsJoined++
		s.broadcast(bid, 0, "join")
	}
	s.serverAgg(j, params, age, bid, uid)
	if s.hasToken && s.token.Bid == bid && s.mem.Contains(j) {
		s.cnt[bid]++
		if s.cnt[bid] >= s.mem.Count() {
			s.forwardToken()
		}
	}
}

// forwardToken stamps the freshest ages and the current membership into
// the token and passes it to the ring successor under that membership.
// On a ring that shrank to just this server the round ends but the token
// stays put — there is nobody to pass it to.
func (s *ServerCore) forwardToken() {
	next := s.mem.Successor(s.cfg.ID)
	if next == s.cfg.ID {
		s.ongoingSynchro = false
		s.emit(obs.KindSyncEnd, obs.NoPeer, s.token.Bid, "")
		return
	}
	t := *s.token
	t.Ages = tensor.Clone(s.ages)
	t.Mem = s.mem
	s.releaseToken()
	s.emit(obs.KindSyncEnd, obs.NoPeer, t.Bid, "")
	s.emit(obs.KindTokenPass, next, t.Bid, "")
	s.out.SendToken(t, next)
}

// serverAgg merges server from's model into the local one
// (Alg. 2 ServerAgg): the sigmoid of the relative age difference decides
// how much the remote model counts, and the local age moves toward the
// remote age by the same effective weight. The emitted event names the
// copy merged (uid), from which the lineage analyzer (obs.BuildLineage)
// attributes every update that copy carried to this hop.
func (s *ServerCore) serverAgg(from int, params []float64, remoteAge float64, bid int, uid obs.UID) {
	ageDrift := remoteAge - s.age
	w := ServerAggWeight(s.cfg.Phi, s.age, remoteAge)
	ew := float64(s.cfg.EtaA * w)
	paramvec.Vec(s.model()).WeightedMergeInto(ew, params)
	s.age = float64((1-ew)*s.age) + float64(ew*remoteAge)
	s.ages[s.cfg.ID] = s.age
	if s.sink.Enabled() {
		s.sink.Emit(obs.Event{
			Time: s.clock(), Kind: obs.KindServerAgg,
			Node: s.cfg.ID, Peer: from, Age: s.age, Stale: ageDrift,
			Bid: bid, UID: uid,
		})
	}
}

// checkSynchronization implements Alg. 2 l. 20-29: trigger a model
// exchange when server-model ages drifted apart by more than HInter or
// when this server aged by more than HIntra since the last exchange.
func (s *ServerCore) checkSynchronization() {
	if s.mem.Count() == 0 {
		return
	}
	// Drift is measured over the current ring members only: a departed
	// server's frozen age slot must not keep the perceived inter-server
	// drift above HInter forever.
	maxA, minA := s.ages[s.mem.Members[0]], s.ages[s.mem.Members[0]]
	for _, id := range s.mem.Members[1:] {
		a := s.ages[id]
		if a > maxA {
			maxA = a
		}
		if a < minA {
			minA = a
		}
	}
	if maxA-minA < s.cfg.HInter && s.age-s.agePrev < s.cfg.HIntra {
		return
	}
	if s.mem.Count() == 1 || !s.mem.Contains(s.cfg.ID) {
		// A singleton ring has no peers to exchange with, and an
		// excluded server no longer takes part in exchanges; just reset
		// the intra-server trigger.
		s.agePrev = s.age
		return
	}
	if s.hasToken && !s.ongoingSynchro {
		s.agePrev = s.age
		s.ongoingSynchro = true
		bid := s.token.Bid
		s.didBroadcast[bid] = true
		s.cnt[bid] = 1 // counts our own model
		s.syncsTriggered++
		s.syncsJoined++
		s.roundCopy = 0
		s.broadcast(bid, 0, "trigger")
	} else if !s.hasToken {
		// Age announcements from non-token holders are rate-limited: a
		// server only re-broadcasts its age after its model aged by at
		// least 1 since the previous announcement.
		if s.age-s.lastAgeBroadcast >= 1 {
			s.lastAgeBroadcast = s.age
			s.out.BroadcastAge(s.age, s.mem)
		}
	}
}
