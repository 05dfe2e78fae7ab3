package spyker

import (
	"testing"

	"github.com/spyker-fl/spyker/internal/ring"
)

// recoveryConfig arms token-loss recovery on top of the standard test
// config.
func recoveryConfig(id, n int) Config {
	cfg := coreConfig(id, n, 2)
	cfg.TokenTimeout = 10
	cfg.SyncRetry = 4
	return cfg
}

func TestTokenRegeneratedAfterSilence(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(recoveryConfig(1, 3), []float64{0, 0}, false, out)

	s.Tick(0) // initializes the quiet timer
	s.Tick(9)
	if s.HasToken() {
		t.Fatal("regenerated before the timeout elapsed")
	}
	s.Tick(11)
	if !s.HasToken() {
		t.Fatal("no regeneration after the silence timeout")
	}
	if s.TokenRegens() != 1 {
		t.Fatalf("TokenRegens = %d, want 1", s.TokenRegens())
	}
	// maxBidSeen was 0; the regenerated bid must jump past any bid a
	// surviving token could still reach: 0 + NumServers + 1 + ID.
	if want := 0 + 3 + 1 + 1; s.token.Bid != want {
		t.Fatalf("regenerated bid = %d, want %d", s.token.Bid, want)
	}
	if s.MaxBidSeen() != s.token.Bid {
		t.Fatalf("maxBidSeen %d != regenerated bid %d", s.MaxBidSeen(), s.token.Bid)
	}
}

func TestFreshRingTrafficResetsSilenceTimer(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(recoveryConfig(1, 3), []float64{0, 0}, false, out)

	s.Tick(0)
	// A previously unseen round broadcast is ring activity.
	s.HandleServerModel(0, []float64{0, 0}, 1, 3, nil, ring.Membership{})
	s.Tick(9) // observes the activity, resets the timer
	s.Tick(18)
	if s.HasToken() {
		t.Fatal("regenerated despite fresh ring traffic at t=9")
	}
	s.Tick(20)
	if !s.HasToken() {
		t.Fatal("no regeneration once the ring went quiet again")
	}
}

func TestAgeTrafficDoesNotResetSilenceTimer(t *testing.T) {
	// Age announcements keep flowing from every survivor after the token
	// is lost, so they must not count as ring liveness — otherwise loss of
	// the token could never be detected.
	out := &fakeOut{}
	s := NewServerCore(recoveryConfig(1, 3), []float64{0, 0}, false, out)

	s.Tick(0)
	s.HandleAge(0, 5, ring.Membership{})
	s.Tick(6)
	s.HandleAge(2, 7, ring.Membership{})
	s.Tick(11)
	if !s.HasToken() {
		t.Fatal("age chatter suppressed token-loss detection")
	}
}

func TestHolderNeverRegenerates(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(recoveryConfig(0, 3), []float64{0, 0}, true, out)

	s.Tick(0)
	s.Tick(100)
	s.Tick(200)
	if s.TokenRegens() != 0 {
		t.Fatalf("holder regenerated its own token %d times", s.TokenRegens())
	}
}

func TestStaleTokenDiscarded(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(recoveryConfig(1, 3), []float64{0, 0}, false, out)

	// Witness round 8 via a broadcast.
	s.HandleServerModel(0, []float64{0, 0}, 1, 8, nil, ring.Membership{})
	if s.MaxBidSeen() != 8 {
		t.Fatalf("maxBidSeen = %d, want 8", s.MaxBidSeen())
	}
	// A survivor carrying bid 7 (post-increment 8 <= 8) is stale.
	s.HandleToken(Token{Bid: 7, Ages: []float64{0, 0, 0}})
	if s.HasToken() {
		t.Fatal("stale token adopted")
	}
	// Bid 8 arrives post-increment as 9 > 8: legitimate, adopted.
	s.HandleToken(Token{Bid: 8, Ages: []float64{0, 0, 0}})
	if !s.HasToken() || s.token.Bid != 9 {
		t.Fatalf("fresh token not adopted: hasToken=%v", s.HasToken())
	}
}

func TestIncomingHigherBidTokenReplacesHeldToken(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(recoveryConfig(0, 3), []float64{0, 0}, true, out) // holds bid 1

	s.HandleToken(Token{Bid: 10, Ages: []float64{0, 0, 0}})
	if !s.HasToken() || s.token.Bid != 11 {
		t.Fatalf("higher-bid token should replace the held one, got bid %v", s.token)
	}
	// And a lower-bid arrival while holding is discarded outright.
	s.HandleToken(Token{Bid: 3, Ages: []float64{0, 0, 0}})
	if s.token.Bid != 11 {
		t.Fatalf("lower-bid token overwrote the held one: bid %d", s.token.Bid)
	}
}

func TestFresherRoundRetiresHeldToken(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(recoveryConfig(0, 3), []float64{0, 0}, true, out) // holds bid 1

	// A broadcast for round 12 proves a regenerated token exists: the
	// survivor this server holds must retire, and the server joins the
	// fresh round like any non-holder.
	s.HandleServerModel(1, []float64{0, 0}, 1, 12, nil, ring.Membership{})
	if s.HasToken() {
		t.Fatal("stale held token survived a fresher round broadcast")
	}
	if len(out.models) != 1 || out.models[0].bid != 12 {
		t.Fatalf("server did not join the fresh round: %+v", out.models)
	}
}

func TestDropToken(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(recoveryConfig(0, 3), []float64{0, 0}, true, out)

	if !s.DropToken() {
		t.Fatal("DropToken on a holder returned false")
	}
	if s.HasToken() {
		t.Fatal("token still held after DropToken")
	}
	if s.DropToken() {
		t.Fatal("DropToken on a non-holder returned true")
	}
}

func TestSyncRetryRebroadcastsStuckRound(t *testing.T) {
	out := &fakeOut{}
	cfg := recoveryConfig(0, 3)
	cfg.HInter = 2
	s := NewServerCore(cfg, []float64{0, 0}, true, out)

	// Manufacture inter-server drift so the holder triggers a round.
	s.HandleAge(1, 5, ring.Membership{})
	if !s.ongoingSynchro || len(out.models) != 1 {
		t.Fatalf("no sync triggered: ongoing=%v broadcasts=%d", s.ongoingSynchro, len(out.models))
	}
	bid := out.models[0].bid

	s.Tick(0) // records the stuck round
	s.Tick(3) // within SyncRetry: no rebroadcast yet
	if len(out.models) != 1 {
		t.Fatalf("premature retry: %d broadcasts", len(out.models))
	}
	s.Tick(5)
	if len(out.models) != 2 || out.models[1].bid != bid {
		t.Fatalf("expected a same-bid retry broadcast, got %+v", out.models)
	}
	// The round completes when the missing participants finally answer.
	s.HandleServerModel(1, []float64{0, 0}, 5, bid, nil, ring.Membership{})
	s.HandleServerModel(2, []float64{0, 0}, 5, bid, nil, ring.Membership{})
	if s.HasToken() {
		t.Fatal("token not forwarded after the retried round completed")
	}
	if len(out.tokens) != 1 {
		t.Fatalf("tokens sent = %d, want 1", len(out.tokens))
	}
}

func TestTickDisarmedIsFreeAndInert(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(0, 3, 2), []float64{0, 0}, false, out) // no timeout configured

	allocs := testing.AllocsPerRun(1000, func() { s.Tick(123) })
	if allocs != 0 {
		t.Fatalf("disarmed Tick allocates %v per call", allocs)
	}
	s.Tick(0)
	s.Tick(1e9)
	if s.HasToken() || s.TokenRegens() != 0 {
		t.Fatal("disarmed Tick changed protocol state")
	}
	if len(out.models)+len(out.ages)+len(out.tokens) != 0 {
		t.Fatal("disarmed Tick produced outbound traffic")
	}
}

func TestRecoveryStateRoundTripsThroughSnapshot(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(recoveryConfig(1, 3), []float64{0, 0}, false, out)
	s.HandleServerModel(0, []float64{0, 0}, 1, 8, nil, ring.Membership{})
	s.Tick(0)
	s.Tick(11) // regenerate once

	var st State
	s.SnapshotInto(&st)
	if st.MaxBidSeen != s.MaxBidSeen() || st.TokenRegens != 1 {
		t.Fatalf("snapshot recovery state = (%d,%d), want (%d,1)",
			st.MaxBidSeen, st.TokenRegens, s.MaxBidSeen())
	}
	r, err := RestoreServerCore(st, &fakeOut{})
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxBidSeen() != s.MaxBidSeen() || r.TokenRegens() != 1 {
		t.Fatalf("restored recovery state = (%d,%d)", r.MaxBidSeen(), r.TokenRegens())
	}
}

// TestLegacySnapshotDerivesMaxBidFromToken: a checkpoint written before
// the recovery extension decodes with MaxBidSeen 0 beside a held token,
// and restore used to derive the floor from the token's bid. No writer in
// this tree produces one, and a core that has witnessed less than the
// token it holds would accept that token's stale twins: it is refused.
func TestLegacySnapshotDerivesMaxBidFromToken(t *testing.T) {
	out := &fakeOut{}
	s := NewServerCore(coreConfig(0, 3, 2), []float64{0, 0}, true, out)
	s.HandleToken(Token{Bid: 6, Ages: []float64{0, 0, 0}}) // now holds bid 7

	var st State
	s.SnapshotInto(&st)
	if st.MaxBidSeen != 7 {
		t.Fatalf("snapshot MaxBidSeen = %d, want the held token's bid 7", st.MaxBidSeen)
	}
	st.MaxBidSeen = 0 // simulate a pre-extension checkpoint
	if _, err := RestoreServerCore(st, &fakeOut{}); err == nil {
		t.Fatal("a snapshot that witnessed less than the token it holds was restored")
	}
}

// TestTickPeriod: both runtimes drive Tick at a quarter of the shortest
// armed timeout, and not at all when neither is armed.
func TestTickPeriod(t *testing.T) {
	for _, tt := range []struct{ tokenTimeout, syncRetry, want float64 }{
		{0, 0, 0},
		{5, 0, 1.25},
		{0, 2.5, 0.625},
		{5, 2.5, 0.625},
		{2, 8, 0.5},
	} {
		cfg := Config{TokenTimeout: tt.tokenTimeout, SyncRetry: tt.syncRetry}
		if got := cfg.TickPeriod(); got != tt.want {
			t.Errorf("TickPeriod(TokenTimeout=%v, SyncRetry=%v) = %v, want %v",
				tt.tokenTimeout, tt.syncRetry, got, tt.want)
		}
	}
}
