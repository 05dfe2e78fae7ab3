package spyker

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/tensor"
)

func TestStalenessWeight(t *testing.T) {
	if w := StalenessWeight(5, 5); w != 1 {
		t.Errorf("fresh update weight = %v, want 1", w)
	}
	if w := StalenessWeight(5, 9); w != 1 {
		t.Errorf("future client age should clamp to 1, got %v", w)
	}
	w1 := StalenessWeight(10, 8)
	w2 := StalenessWeight(10, 2)
	if !(w1 > w2) {
		t.Errorf("staleness must damp more for older updates: %v vs %v", w1, w2)
	}
	if w := StalenessWeight(101, 1); math.Abs(w-1/math.Sqrt(101)) > 1e-12 {
		t.Errorf("tau=100 weight = %v, want %v", w, 1/math.Sqrt(101))
	}
}

func TestStalenessWeightBounds(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		w := StalenessWeight(math.Abs(a), math.Abs(b))
		return w > 0 && w <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecayRate(t *testing.T) {
	base := 0.05
	if lr := DecayRate(base, 1, 1e-6, 3, 5); lr != base {
		t.Errorf("below-average client should keep base rate, got %v", lr)
	}
	if lr := DecayRate(base, 1, 1e-6, 10, 5); math.Abs(lr-base/2) > 1e-12 {
		t.Errorf("2x contributor should get base/2, got %v", lr)
	}
	if lr := DecayRate(base, 1, 1e-6, 1e9, 5); lr != 1e-6 {
		t.Errorf("floor not applied, got %v", lr)
	}
	if lr := DecayRate(base, 0, 1e-6, 100, 5); lr != base {
		t.Errorf("beta=0 must disable decay, got %v", lr)
	}
	// Contribution-equalization property: rate * damp == average rate.
	uk, uBar := 42.0, 6.0
	lr := DecayRate(base, 1, 0, uk, uBar)
	if got := lr / base * uk; math.Abs(got-uBar) > 1e-9 {
		t.Errorf("equalization broken: effective mass %v, want %v", got, uBar)
	}
}

func TestServerAggWeight(t *testing.T) {
	// Equal ages: sigmoid(0) = 0.5.
	if w := ServerAggWeight(1.5, 100, 100); math.Abs(w-0.5) > 1e-12 {
		t.Errorf("equal-age weight = %v, want 0.5", w)
	}
	// Older remote model gets more weight; younger less.
	wOlder := ServerAggWeight(1.5, 100, 200)
	wYounger := ServerAggWeight(1.5, 100, 50)
	if !(wOlder > 0.5 && wYounger < 0.5) {
		t.Errorf("weights not monotone in age difference: %v, %v", wOlder, wYounger)
	}
	// Larger phi sharpens the transition.
	if !(ServerAggWeight(3, 100, 200) > ServerAggWeight(1.5, 100, 200)) {
		t.Error("phi does not sharpen the sigmoid")
	}
	// Zero local age must not divide by zero.
	if w := ServerAggWeight(1.5, 0, 10); math.IsNaN(w) || w <= 0.5 {
		t.Errorf("zero-age guard broken: %v", w)
	}
}

// fakeOut records every outbound action of a core.
type fakeOut struct {
	replies []replyRec
	models  []modelRec
	ages    []float64
	tokens  []tokenRec
}

type replyRec struct {
	client int
	params []float64
	age    float64
	lr     float64
}

type modelRec struct {
	params []float64
	age    float64
	bid    int
}

type tokenRec struct {
	t    Token
	next int
}

// A reply's vector is the fake's to keep (the Outbound contract); a
// broadcast's is a borrow of the live model, so its record snapshots it.
func (f *fakeOut) ReplyClient(k int, p []float64, age, lr float64) {
	f.replies = append(f.replies, replyRec{k, p, age, lr})
}
func (f *fakeOut) BroadcastModel(p []float64, age float64, bid int, _ []int64, _ ring.Membership) {
	f.models = append(f.models, modelRec{tensor.Clone(p), age, bid})
}
func (f *fakeOut) BroadcastAge(age float64, _ ring.Membership) { f.ages = append(f.ages, age) }
func (f *fakeOut) SendToken(t Token, next int) {
	f.tokens = append(f.tokens, tokenRec{t, next})
}

func coreConfig(id, n, clients int) Config {
	return Config{
		ID: id, NumServers: n, NumClients: clients,
		EtaServer: 0.6, Phi: 1.5, EtaA: 0.6,
		HInter: 5, HIntra: 350,
		ClientLR: 0.05, DecayEnabled: true, Beta: 1, EtaMin: 1e-6,
	}
}

func TestClientUpdateAgesAndReplies(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(0, 2, 2), []float64{0, 0}, false, out)

	s.HandleClientUpdate(7, []float64{1, 1}, 0, 0)
	if s.Age() != 1 {
		t.Errorf("age = %v, want 1", s.Age())
	}
	if len(out.replies) != 1 {
		t.Fatalf("replies = %d", len(out.replies))
	}
	r := out.replies[0]
	if r.client != 7 || r.age != 1 {
		t.Errorf("reply = %+v", r)
	}
	// Fresh update, staleness weight 1, so W = 0 + 0.6*1*(1-0)... but the
	// decay counts this as the client's first update with uBar=0.5 so the
	// aggregation is damped by lr/base.
	if r.params[0] <= 0 || r.params[0] > 0.6+1e-12 {
		t.Errorf("merged param = %v, want in (0, 0.6]", r.params[0])
	}
	if s.UpdatesFrom(7) != 1 {
		t.Errorf("UpdatesFrom = %d", s.UpdatesFrom(7))
	}
}

func TestDecayReducesOveractiveClientRate(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(0, 2, 4), make([]float64, 2), false, out)
	// Client 0 sends 12 updates, clients 1..3 none.
	for i := 0; i < 12; i++ {
		s.HandleClientUpdate(0, []float64{1, 1}, s.Age(), 0)
	}
	last := out.replies[len(out.replies)-1]
	if last.lr >= 0.05 {
		t.Errorf("over-active client lr = %v, want < base", last.lr)
	}
	// uBar = 12/4 = 3, u = 12 -> lr = base*3/12.
	if math.Abs(last.lr-0.05*3/12) > 1e-12 {
		t.Errorf("lr = %v, want %v", last.lr, 0.05*3/12)
	}
}

func TestDecayDisabled(t *testing.T) {
	cfg := coreConfig(0, 2, 4)
	cfg.DecayEnabled = false
	out := &fakeOut{}
	s := NewServerCore(cfg, make([]float64, 2), false, out)
	for i := 0; i < 12; i++ {
		s.HandleClientUpdate(0, []float64{1, 1}, s.Age(), 0)
	}
	for _, r := range out.replies {
		if r.lr != 0.05 {
			t.Fatalf("decay disabled but lr = %v", r.lr)
		}
	}
}

func TestServerAggMovesModelAndAge(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(0, 2, 2), []float64{0, 0}, false, out)
	s.HandleServerModel(1, []float64{10, 10}, 100, 1, nil, ring.Membership{})
	p := s.Params()
	if p[0] <= 0 || p[0] >= 10 {
		t.Errorf("param after agg = %v, want strictly between", p[0])
	}
	if s.Age() <= 0 || s.Age() >= 100 {
		t.Errorf("age after agg = %v, want strictly between", s.Age())
	}
}

func TestTokenHolderTriggersSyncOnInterDrift(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(0, 3, 2), make([]float64, 2), true, out)
	// Learn that server 2's model is far ahead.
	s.HandleAge(2, 10, ring.Membership{}) // drift 10 >= hInter 5
	if len(out.models) != 1 {
		t.Fatalf("expected one model broadcast, got %d", len(out.models))
	}
	if out.models[0].bid != 1 {
		t.Errorf("bid = %d, want 1", out.models[0].bid)
	}
	if s.SyncsTriggered() != 1 {
		t.Errorf("SyncsTriggered = %d", s.SyncsTriggered())
	}
	// A second trigger before completion must not re-broadcast.
	s.HandleAge(2, 20, ring.Membership{})
	if len(out.models) != 1 {
		t.Errorf("re-broadcast during ongoing sync: %d", len(out.models))
	}
}

func TestNonHolderBroadcastsAge(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(1, 3, 2), make([]float64, 2), false, out)
	// Give the server a bit of local age so the rate limiter (min age gap
	// of 1 between announcements) lets the first broadcast through.
	s.HandleClientUpdate(0, []float64{1, 1}, 0, 0)
	s.HandleClientUpdate(0, []float64{1, 1}, 1, 0)
	out.ages = nil // ignore anything emitted during warm-up
	s.HandleAge(2, 10, ring.Membership{})
	if len(out.models) != 0 {
		t.Error("non-holder must not broadcast its model")
	}
	if len(out.ages) != 1 {
		t.Fatalf("expected one age broadcast, got %d", len(out.ages))
	}
	// Age announcements are rate limited: an immediate re-trigger with the
	// same local age must not re-broadcast.
	s.HandleAge(2, 11, ring.Membership{})
	if len(out.ages) != 1 {
		t.Errorf("age broadcast not rate limited: %d", len(out.ages))
	}
}

func TestHIntraTriggersSync(t *testing.T) {
	cfg := coreConfig(0, 2, 2)
	cfg.HIntra = 3
	cfg.HInter = 1e9
	out := &fakeOut{}
	s := NewServerCore(cfg, make([]float64, 2), true, out)
	for i := 0; i < 3; i++ {
		s.HandleClientUpdate(0, []float64{1, 1}, s.Age(), 0)
	}
	if len(out.models) != 1 {
		t.Errorf("hIntra trigger broadcasts = %d, want 1", len(out.models))
	}
}

func TestNonHolderJoinsSyncOnUnknownBid(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(1, 3, 2), make([]float64, 2), false, out)
	s.HandleServerModel(0, []float64{1, 1}, 5, 42, nil, ring.Membership{})
	if len(out.models) != 1 {
		t.Fatalf("expected join broadcast, got %d", len(out.models))
	}
	if out.models[0].bid != 42 {
		t.Errorf("join used bid %d, want 42", out.models[0].bid)
	}
	if s.SyncsJoined() != 1 {
		t.Errorf("SyncsJoined = %d", s.SyncsJoined())
	}
	// Receiving the same bid from another server must not re-broadcast.
	s.HandleServerModel(2, []float64{2, 2}, 6, 42, nil, ring.Membership{})
	if len(out.models) != 1 {
		t.Errorf("duplicate join broadcast: %d", len(out.models))
	}
}

func TestTokenForwardedAfterAllModels(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(0, 3, 2), make([]float64, 2), true, out)
	s.HandleAge(1, 10, ring.Membership{}) // trigger sync; cnt[1] = 1 (own model)
	if len(out.tokens) != 0 {
		t.Fatal("token forwarded before models arrived")
	}
	s.HandleServerModel(1, []float64{1, 1}, 10, 1, nil, ring.Membership{})
	if len(out.tokens) != 0 {
		t.Fatal("token forwarded after only one model")
	}
	s.HandleServerModel(2, []float64{2, 2}, 3, 1, nil, ring.Membership{})
	if len(out.tokens) != 1 {
		t.Fatalf("token not forwarded after all models: %d", len(out.tokens))
	}
	tr := out.tokens[0]
	if tr.next != 1 {
		t.Errorf("token sent to %d, want ring successor 1", tr.next)
	}
	if len(tr.t.Ages) != 3 {
		t.Errorf("token ages length %d", len(tr.t.Ages))
	}
	if s.HasToken() {
		t.Error("core still holds the token after forwarding")
	}
}

func TestRcvTokenIncrementsBid(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(1, 3, 2), make([]float64, 2), false, out)
	s.HandleToken(Token{Bid: 4, Ages: []float64{7, 0, 3}})
	if !s.HasToken() {
		t.Fatal("token not installed")
	}
	if s.ages[0] != 7 || s.ages[2] != 3 {
		t.Errorf("token ages not merged: %v", s.ages)
	}
	if s.token.Bid != 5 {
		t.Errorf("bid = %d, want 5", s.token.Bid)
	}
}

func TestAgesFollowFreshReports(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(0, 3, 2), make([]float64, 2), false, out)
	s.HandleAge(1, 3, ring.Membership{})
	if s.ages[1] != 3 {
		t.Errorf("ages[1] = %v, want 3", s.ages[1])
	}
	// Ages can legitimately DECREASE (ServerAgg averages them), and FIFO
	// links make every direct report causally fresher than the previous
	// one, so knowledge follows the report rather than max-merging — the
	// max-merge of the paper's pseudo-code livelocks (see core.go).
	s.HandleAge(1, 2, ring.Membership{})
	if s.ages[1] != 2 {
		t.Errorf("ages[1] = %v, want 2 (fresh report adopted)", s.ages[1])
	}
}

func TestTokenRefreshesOwnAgeEntry(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(1, 3, 2), make([]float64, 2), false, out)
	s.HandleClientUpdate(0, []float64{1, 1}, 0, 0) // own age 1
	s.HandleToken(Token{Bid: 1, Ages: []float64{5, 99, 5}})
	if s.ages[1] != s.Age() {
		t.Errorf("token overwrote own age entry: %v vs %v", s.ages[1], s.Age())
	}
	if s.ages[0] != 5 || s.ages[2] != 5 {
		t.Errorf("token entries not adopted: %v", s.ages)
	}
}

func TestSingleServerNeverSyncs(t *testing.T) {
	cfg := coreConfig(0, 1, 2)
	cfg.HIntra = 1
	out := &fakeOut{}
	s := NewServerCore(cfg, make([]float64, 2), true, out)
	for i := 0; i < 10; i++ {
		s.HandleClientUpdate(0, []float64{1, 1}, s.Age(), 0)
	}
	if len(out.models) != 0 || len(out.tokens) != 0 || len(out.ages) != 0 {
		t.Error("single-server deployment attempted a synchronization")
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewServerCore(Config{ID: 5, NumServers: 3}, nil, false, &fakeOut{})
}

// TestFullSyncRoundLoopback wires three cores together with instant
// delivery and checks that one full synchronization homogenizes the
// models: the pairwise distance between server models must shrink, and
// the token must move to the ring successor.
func TestFullSyncRoundLoopback(t *testing.T) {
	n := 3
	cores := make([]*ServerCore, n)
	for i := 0; i < n; i++ {
		initial := []float64{float64(i * 10), float64(i * -10)}
		cores[i] = NewServerCore(coreConfig(i, n, 2), initial, i == 0,
			&loopbackOut{id: i, cores: &cores})
	}
	distBefore := pairwiseDist(cores)

	// Server 2 ages past the hInter drift threshold: its updates merge its
	// own initial model so its parameters stay put while its age grows.
	// The resulting age announcement reaches the holder (server 0), which
	// triggers the synchronization; the loopback bus completes the whole
	// exchange synchronously.
	for k := 0; k < 6; k++ {
		// A copy per call: the handler consumes the vector it is given.
		cores[2].HandleClientUpdate(0, tensor.Clone(cores[2].Params()), cores[2].Age(), 0)
	}

	if cores[0].SyncsTriggered() != 1 {
		t.Fatalf("holder did not trigger a sync")
	}
	// The token must have moved on (possibly several hops if the drift
	// stayed above the threshold and later holders re-triggered), and at
	// any quiescent point exactly one server holds it.
	if cores[0].SyncsJoined() < 1 {
		t.Error("server 0 did not complete its own sync")
	}
	holders := 0
	for _, c := range cores {
		if c.HasToken() {
			holders++
		}
	}
	if holders != 1 {
		t.Errorf("%d token holders, want exactly 1", holders)
	}
	if d := pairwiseDist(cores); d >= distBefore {
		t.Errorf("models did not homogenize: %v -> %v", distBefore, d)
	}
	for i := 0; i < n; i++ {
		if cores[i].SyncsJoined() == 0 {
			t.Errorf("server %d never joined the sync", i)
		}
	}
}

// loopbackOut delivers everything synchronously to the other cores.
type loopbackOut struct {
	id    int
	cores *[]*ServerCore
}

func (l *loopbackOut) ReplyClient(int, []float64, float64, float64) {}
func (l *loopbackOut) BroadcastModel(p []float64, age float64, bid int, _ []int64, _ ring.Membership) {
	for i, c := range *l.cores {
		if i != l.id && c != nil {
			c.HandleServerModel(l.id, tensor.Clone(p), age, bid, nil, ring.Membership{})
		}
	}
}
func (l *loopbackOut) BroadcastAge(age float64, _ ring.Membership) {
	for i, c := range *l.cores {
		if i != l.id && c != nil {
			c.HandleAge(l.id, age, ring.Membership{})
		}
	}
}
func (l *loopbackOut) SendToken(t Token, next int) {
	(*l.cores)[next].HandleToken(t)
}

// BenchmarkTokenSyncRound times one full token-triggered synchronization
// round (Alg. 2) across four servers on the synchronous loopback ring:
// trigger at the token holder, N model broadcasts, N*(N-1) sigmoid merges,
// token forwarded to the ring successor.
func BenchmarkTokenSyncRound(b *testing.B) {
	const n = 4
	rng := rand.New(rand.NewSource(8))
	cores := make([]*ServerCore, n)
	for i := range cores {
		cfg := coreConfig(i, n, aggregateClients)
		cfg.HIntra = 1e18
		cores[i] = NewServerCore(cfg, randVec(rng, aggregateDim), i == 0,
			&loopbackOut{id: i, cores: &cores})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		holder := 0
		for !cores[holder].HasToken() {
			holder++
		}
		// Feigning a drifted peer age trips the h_inter trigger; the
		// round's own direct reports overwrite it with the true ages.
		h := cores[holder]
		h.HandleAge((holder+1)%n, h.Age()+h.cfg.HInter+1, ring.Membership{})
	}
	b.StopTimer()
	// Every server merges the n-1 models of each round it joins.
	joined := 0
	for _, c := range cores {
		joined += c.SyncsJoined()
	}
	b.ReportMetric(float64(joined*(n-1))/float64(b.N), "merges/round")
}

// l2dist is the Euclidean distance between two parameter vectors.
func l2dist(a, b []float64) float64 {
	d := make(paramvec.Vec, len(a))
	d.DiffInto(a, b)
	return d.L2Norm()
}

func pairwiseDist(cores []*ServerCore) float64 {
	var d float64
	for i := range cores {
		for j := i + 1; j < len(cores); j++ {
			d += l2dist(cores[i].Params(), cores[j].Params())
		}
	}
	return d
}

func TestRobustClippingBoundsOversizedDeltas(t *testing.T) {
	cfg := coreConfig(0, 2, 2)
	cfg.RobustClipFactor = 1.5
	cfg.DecayEnabled = false
	out := &fakeOut{}
	s := NewServerCore(cfg, []float64{0, 0}, false, out)

	// Establish an honest delta-norm baseline.
	for i := 0; i < 5; i++ {
		honest := []float64{s.Params()[0] + 0.1, s.Params()[1] + 0.1}
		s.HandleClientUpdate(0, honest, s.Age(), 0)
	}
	if s.clipped != 0 {
		t.Fatalf("honest updates were clipped: %d", s.clipped)
	}
	before := tensor.Clone(s.Params())

	// A poisoned update 100x the honest norm must be clipped.
	poison := []float64{before[0] - 50, before[1] - 50}
	s.HandleClientUpdate(1, poison, s.Age(), 0)
	if s.clipped != 1 {
		t.Fatalf("oversized delta not clipped")
	}
	moved := l2dist(s.Params(), before)
	// Unclipped, the update would have moved the model by
	// etaServer * ||delta|| ~ 0.6*70; clipped it is bounded by
	// etaServer * 1.5 * EMA ~ 0.6*1.5*0.14.
	if moved > 1 {
		t.Errorf("clipped poison still moved the model by %v", moved)
	}
}

func TestRobustClippingDisabledByDefault(t *testing.T) {
	cfg := coreConfig(0, 2, 2)
	cfg.DecayEnabled = false
	out := &fakeOut{}
	s := NewServerCore(cfg, []float64{0, 0}, false, out)
	s.HandleClientUpdate(0, []float64{0.1, 0.1}, 0, 0)
	s.HandleClientUpdate(1, []float64{-100, -100}, s.Age(), 0)
	if s.clipped != 0 {
		t.Error("clipping active although RobustClipFactor is 0")
	}
	// The oversized update must have moved the model massively.
	if paramvec.Vec(s.Params()).L2Norm() < 10 {
		t.Error("expected undefended model to be dragged far")
	}
}

// TestReplyRidesInTheUpdatesBuffer pins the ownership rule of the
// client-update path: the handler consumes the vector it is given, the
// reply is that very vector holding a copy of the new model — on the fused
// path and on the clip path alike — and it shares no storage with the
// core's live model, so whoever receives it may keep and change it.
func TestReplyRidesInTheUpdatesBuffer(t *testing.T) {
	for _, clip := range []float64{0, 1.5} {
		cfg := coreConfig(0, 2, 2)
		cfg.RobustClipFactor = clip
		out := &fakeOut{}
		s := NewServerCore(cfg, []float64{0, 0, 0, 0, 0}, false, out)
		for i := 0; i < 4; i++ {
			u := []float64{1, -2, 3, float64(10 * i), 0.5}
			s.HandleClientUpdate(i%2, u, s.Age(), 0)
			r := out.replies[len(out.replies)-1]
			if &r.params[0] != &u[0] || len(r.params) != len(u) {
				t.Fatalf("clip %v: the reply is not the update's own vector", clip)
			}
			w := s.Params()
			if &r.params[0] == &w[0] {
				t.Fatalf("clip %v: the reply aliases the live model", clip)
			}
			for j := range w {
				if math.Float64bits(r.params[j]) != math.Float64bits(w[j]) {
					t.Fatalf("clip %v: reply[%d] = %v, model has %v", clip, j, r.params[j], w[j])
				}
			}
			before := tensor.Clone(w)
			for j := range r.params {
				r.params[j] = -99 // the receiver owns it
			}
			for j := range w {
				if w[j] != before[j] {
					t.Fatalf("clip %v: writing to the reply changed the model", clip)
				}
			}
		}
	}
}

// TestReengageReplyIsAnOwnedCopy: the one reply made with no update in
// hand still hands over a vector of its own, never the live model.
func TestReengageReplyIsAnOwnedCopy(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(0, 2, 2), []float64{3, 4}, false, out)
	s.ReengageClient(1)
	if len(out.replies) != 1 {
		t.Fatalf("replies = %d", len(out.replies))
	}
	r := out.replies[0]
	if &r.params[0] == &s.Params()[0] {
		t.Fatal("re-engagement lent out the live model")
	}
	if r.params[0] != 3 || r.params[1] != 4 || r.client != 1 {
		t.Fatalf("reply = %+v", r)
	}
	r.params[0] = -1
	if s.Params()[0] != 3 {
		t.Fatal("writing to the reply changed the model")
	}
}
