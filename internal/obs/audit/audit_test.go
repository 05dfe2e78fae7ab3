package audit

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
)

// memSink collects every emitted event in order.
type memSink struct{ events []obs.Event }

func (s *memSink) Enabled() bool    { return true }
func (s *memSink) Emit(e obs.Event) { s.events = append(s.events, e) }
func (s *memSink) kind(k obs.EventKind) []obs.Event {
	var out []obs.Event
	for _, e := range s.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

const dim = 96

// randUnit returns a fresh random direction of the given norm.
func randUnit(rng *rand.Rand, norm float64) []float64 {
	v := make([]float64, dim)
	var n float64
	for i := range v {
		v[i] = rng.NormFloat64()
		n += v[i] * v[i]
	}
	n = math.Sqrt(n)
	for i := range v {
		v[i] *= norm / n
	}
	return v
}

// feedRounds drives nClients clients round-robin for rounds rounds; mk
// builds client c's delta for round t. The model is held at zero so the
// staleness-drift correction is identically zero and the deltas reach
// the statistics unmodified.
func feedRounds(rec *Recorder, nClients, rounds int, mk func(c, t int) []float64) {
	now := 0.0
	model := make([]float64, dim)
	for t := 0; t < rounds; t++ {
		for c := 0; c < nClients; c++ {
			now += 0.01
			age := float64(t*nClients + c)
			rec.Observe(now, c, mk(c, t), model, age, age+1)
		}
	}
}

func hasFlag(flags []string, rule string) bool {
	for _, f := range flags {
		if f == rule {
			return true
		}
	}
	return false
}

func TestNormOutlierFlagged(t *testing.T) {
	sink := &memSink{}
	rec := NewRecorder(0, sink)
	rng := rand.New(rand.NewSource(1))
	feedRounds(rec, 6, 20, func(c, t int) []float64 {
		if c == 0 {
			return randUnit(rng, 12) // attacker: 12x the honest norm
		}
		return randUnit(rng, 0.9+0.2*rng.Float64())
	})
	if !hasFlag(rec.Flags(0), RuleNormOutlier) {
		t.Fatalf("attacker not flagged as norm outlier: flags %v", rec.Flags(0))
	}
	for c := 1; c < 6; c++ {
		if len(rec.Flags(c)) != 0 {
			t.Fatalf("honest client %d flagged: %v", c, rec.Flags(c))
		}
	}
	raises := sink.kind(obs.KindAudit)
	if len(raises) == 0 {
		t.Fatal("no audit events emitted")
	}
	if e := raises[0]; e.Node != 0 || e.Peer != 0 || e.Note != RuleNormOutlier || e.Score <= 0 {
		t.Fatalf("bad first raise event: %+v", e)
	}
}

func TestDirectionInversionFlagged(t *testing.T) {
	rec := NewRecorder(0, nil)
	rng := rand.New(rand.NewSource(2))
	common := randUnit(rng, 1)
	mk := func(c, t int) []float64 {
		if c == 0 {
			// Sign-flip attacker: an outsized steady push against the
			// honest drift. The magnitude makes it a norm outlier first;
			// the inversion rule then refines the conviction by direction.
			v := make([]float64, dim)
			for i := range v {
				v[i] = -6 * common[i]
			}
			return v
		}
		// Honest: shared drift plus dominant fresh noise, so the reference
		// direction forms without the honest clients looking colluded.
		v := randUnit(rng, 1.2)
		for i := range v {
			v[i] += 0.5 * common[i]
		}
		return v
	}
	feedRounds(rec, 6, 30, mk)
	if !hasFlag(rec.Flags(0), RuleDirectionInversion) {
		t.Fatalf("sign-flip attacker not flagged for inversion: flags %v", rec.Flags(0))
	}
	for c := 1; c < 6; c++ {
		if len(rec.Flags(c)) != 0 {
			t.Fatalf("honest client %d flagged: %v", c, rec.Flags(c))
		}
	}
}

func TestCollusionFlaggedPairwise(t *testing.T) {
	rec := NewRecorder(0, nil)
	rng := rand.New(rand.NewSource(3))
	attack := randUnit(rng, 1) // fixed shared attack direction, honest-sized norm
	mk := func(c, t int) []float64 {
		if c == 0 || c == 1 {
			v := make([]float64, dim)
			copy(v, attack)
			return v
		}
		return randUnit(rng, 1)
	}
	feedRounds(rec, 6, 20, mk)
	for _, c := range []int{0, 1} {
		if !hasFlag(rec.Flags(c), RuleCollusion) {
			t.Fatalf("colluder %d not flagged: flags %v", c, rec.Flags(c))
		}
	}
	for c := 2; c < 6; c++ {
		if len(rec.Flags(c)) != 0 {
			t.Fatalf("honest client %d flagged: %v", c, rec.Flags(c))
		}
	}
	if got := rec.Flagged(); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("Flagged() = %v, want [0 1]", got)
	}
}

func TestCleanRunNoFlags(t *testing.T) {
	sink := &memSink{}
	rec := NewRecorder(0, sink)
	rng := rand.New(rand.NewSource(4))
	feedRounds(rec, 8, 50, func(c, t int) []float64 {
		return randUnit(rng, 0.7+0.6*rng.Float64())
	})
	if got := rec.Flagged(); len(got) != 0 {
		t.Fatalf("honest run flagged clients %v", got)
	}
	if n := len(sink.events); n != 0 {
		t.Fatalf("honest run emitted %d audit events", n)
	}
}

func TestFlagClearsWhenBehaviorNormalizes(t *testing.T) {
	sink := &memSink{}
	rec := NewRecorder(0, sink)
	rng := rand.New(rand.NewSource(5))
	phase2 := false
	mk := func(c, t int) []float64 {
		if c == 0 && !phase2 {
			return randUnit(rng, 12)
		}
		return randUnit(rng, 1)
	}
	feedRounds(rec, 6, 20, mk)
	if !hasFlag(rec.Flags(0), RuleNormOutlier) {
		t.Fatal("attacker not flagged during attack phase")
	}
	phase2 = true
	feedRounds(rec, 6, 30, mk)
	if flags := rec.Flags(0); len(flags) != 0 {
		t.Fatalf("flag did not clear after behavior normalized: %v", flags)
	}
	var clears int
	for _, e := range sink.events {
		if strings.HasPrefix(e.Note, ClearPrefix) {
			clears++
		}
	}
	if clears == 0 {
		t.Fatal("no clear event emitted")
	}
}

// TestReassertEmitsPeriodically: the norm flag raises once the attacker's
// window is full and is re-emitted every reassertEvery of its updates
// while it stands.
func TestReassertEmitsPeriodically(t *testing.T) {
	sink := &memSink{}
	rec := NewRecorder(0, sink)
	rng := rand.New(rand.NewSource(6))
	const rounds = 56
	feedRounds(rec, 6, rounds, func(c, t int) []float64 {
		if c == 0 {
			return randUnit(rng, 12)
		}
		return randUnit(rng, 1)
	})
	var raises int
	for _, e := range sink.events {
		if e.Peer == 0 && e.Note == RuleNormOutlier {
			raises++
		}
	}
	if want := 1 + (rounds-window)/reassertEvery; raises != want {
		t.Fatalf("sustained anomaly produced %d raise events over %d updates, want %d", raises, rounds, want)
	}
}

// TestObserveDeterminism feeds the identical stream twice and demands
// byte-identical verdict sequences and snapshots.
func TestObserveDeterminism(t *testing.T) {
	run := func() ([]obs.Event, *obs.TelemetryAudit) {
		sink := &memSink{}
		rec := NewRecorder(0, sink)
		rng := rand.New(rand.NewSource(7))
		feedRounds(rec, 6, 25, func(c, t int) []float64 {
			if c == 0 {
				return randUnit(rng, 10)
			}
			return randUnit(rng, 1)
		})
		return sink.events, rec.Snapshot()
	}
	ev1, snap1 := run()
	ev2, snap2 := run()
	if !reflect.DeepEqual(ev1, ev2) {
		t.Fatalf("event streams differ across identical runs:\n%v\n%v", ev1, ev2)
	}
	if !reflect.DeepEqual(snap1, snap2) {
		t.Fatal("snapshots differ across identical runs")
	}
}

func TestSnapshotShape(t *testing.T) {
	rec := NewRecorder(3, nil)
	rng := rand.New(rand.NewSource(8))
	feedRounds(rec, 4, 10, func(c, t int) []float64 {
		return randUnit(rng, 1)
	})
	snap := rec.Snapshot()
	if snap == nil || snap.Updates != 40 || len(snap.Clients) != 4 {
		t.Fatalf("bad snapshot: %+v", snap)
	}
	for i, c := range snap.Clients {
		if c.Client != i {
			t.Fatalf("snapshot rows not sorted by client: %+v", snap.Clients)
		}
		if c.Updates != 10 || c.MedianNorm <= 0 || len(c.LayerNorms) == 0 {
			t.Fatalf("bad client row: %+v", c)
		}
		if c.MeanGap <= 0 {
			t.Fatalf("client %d mean gap not tracked: %+v", i, c)
		}
	}
	var nilRec *Recorder
	if nilRec.Snapshot() != nil {
		t.Fatal("nil recorder must snapshot to nil")
	}
}

func TestNopSinkSuppressesEmissionKeepsStats(t *testing.T) {
	rec := NewRecorder(0, obs.Nop{})
	rng := rand.New(rand.NewSource(9))
	feedRounds(rec, 6, 20, func(c, t int) []float64 {
		if c == 0 {
			return randUnit(rng, 12)
		}
		return randUnit(rng, 1)
	})
	if !hasFlag(rec.Flags(0), RuleNormOutlier) {
		t.Fatal("statistics must keep running under a Nop sink")
	}
	if rec.updates != 120 {
		t.Fatalf("updates = %d, want 120", rec.updates)
	}
}

// BenchmarkAuditObserve is the marginal per-update price a server pays for
// arming the audit plane, at model scale: L2 norm, cosine against the
// reference direction, chunk signature and layer-profile EMAs, windowed
// robust statistics, and the three anomaly rules.
func BenchmarkAuditObserve(b *testing.B) {
	const clients, modelDim = 8, 25000
	rng := rand.New(rand.NewSource(11))
	vec := func() []float64 {
		v := make([]float64, modelDim)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	rec := NewRecorder(0, obs.Nop{})
	deltas := make([][]float64, clients)
	for i := range deltas {
		deltas[i] = vec()
	}
	model := vec()
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		age := float64(k)
		rec.Observe(float64(k)*0.01, k%clients, deltas[k%clients], model, age, age+1)
	}
	if rec.updates != int64(b.N) {
		b.Fatalf("recorder audited %d of %d updates", rec.updates, b.N)
	}
}
