// Package audit implements the per-client contribution audit plane: a
// streaming profiler a ServerCore feeds the delta of every client update
// it merges (internal/spyker arms it at delta-apply time), which
// maintains windowed robust statistics per client and emits typed
// anomaly verdicts as obs.KindAudit events.
//
// The observed delta of an asynchronous merge is dominated by staleness
// drift: delta = (model(base) - model(now)) + trainingStep, and the
// first term — how far the server model moved while the update was in
// flight — is shared by every concurrent update and says nothing about
// the client. The Recorder therefore snapshots the model's chunk
// signature at every observed age and, per update, adds the signed
// model movement since the update's base age back onto the update's
// signature (chunking is linear, so the correction is exact whenever
// the base age is still in the snapshot ring). What remains is the
// signature of the client's own training step — the only part the
// client chose — and every rule judges THAT:
//
//   - norm-outlier: the client's windowed median contribution norm is a
//     robust (median/MAD) z-score outlier against the other clients of
//     the same server AND a clear multiple of the population median
//     (currently-flagged clients are excluded from the baseline).
//     Catches noise-style attacks whose magnitude does not track honest
//     updates.
//   - direction-inversion: while the norm flag is armed, a windowed
//     median cosine against the reference direction (an EMA of
//     honest-looking contributions) that is strongly negative refines
//     the conviction: the outlier is pushing the model backwards
//     (sign-flip poisoning), not merely somewhere random (noise).
//     Direction alone never convicts — under non-IID data an honest
//     minority label group legitimately anti-correlates with the
//     population mixture.
//   - collusion: two or more clients inject the SAME chosen direction.
//     Each client keeps a chunked signature of its normalized
//     contribution (an EMA and the raw latest one), residualized
//     against the population's per-chunk median with the remaining
//     common mode projected out. A client whose residual EMA stays long
//     (a persistent private direction) is a candidate; a candidate
//     whose best pairwise cosine of residual instantaneous signatures
//     sustains a windowed median at near-exact 1 is flagged. The
//     near-exactness threshold is the separator: honest clients sharing
//     a label shard reach 0.999x, but only drift-corrected payloads
//     that are literally the same vector scaled survive at 1.0.
//
// The package obeys the same passivity contract as obs.Sink: the
// Recorder only observes, never feeds back into the protocol, and a core
// with no recorder armed skips the computation entirely (one nil check).
// All state updates are deterministic — fixed-order iteration, no wall
// clock, no global randomness — and the package is registered in
// spyker-lint's DeterministicPkgs. Steady-state observation is
// allocation-free: windows are fixed ring buffers and the sort/signature
// scratch is reused across calls.
package audit

import (
	"math"
	"sort"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/paramvec"
)

// Anomaly rule names: the stable wire strings carried in the Note of
// KindAudit events (prefixed ClearPrefix when an anomaly subsides).
const (
	RuleNormOutlier        = "norm-outlier"
	RuleDirectionInversion = "direction-inversion"
	RuleCollusion          = "collusion"

	// ClearPrefix marks verdict-clear events: Note = ClearPrefix + rule.
	ClearPrefix = "clear:"
)

// rule indices into the fixed rule order (flag bit = 1<<index).
const (
	ruleNorm = iota
	ruleInvert
	ruleCollude
	numRules
)

// ruleNames maps rule index to wire name, in the fixed rule order.
var ruleNames = [numRules]string{RuleNormOutlier, RuleDirectionInversion, RuleCollusion}

// snapRing is how many (age, model signature) snapshots the recorder
// retains for staleness-drift compensation — it must cover the largest
// plausible staleness in merges (typically the client count of one
// server; see Recorder.snapAges).
const snapRing = 128

// The audit plane's thresholds. They are constants because every runtime
// ships one value of each; the byzantine study (internal/experiments)
// measures detection quality at exactly these. The fractional ones are
// typed float64 so that a derived threshold (0.8*normZ, 2*simThreshold-1)
// is rounded the way a float64 product is, not computed exactly.
const (
	// window is the per-client ring of recent norm/cosine samples the
	// robust statistics are computed over.
	window = 16
	// minSamples is how many samples a client needs before any rule may
	// judge it — fresh clients are never flagged on noise.
	minSamples = 6
	// minPeers is how many clients (including the judged one) must have
	// reached minSamples before the cross-client norm rule arms: a robust
	// z-score over two clients is meaningless.
	minPeers = 4
	// normZ is the robust z-score (median/MAD, consistency-scaled) a
	// client's median norm must exceed to be a norm outlier; normRatio the
	// multiple of the population median it must also exceed. Both
	// conditions must hold — the ratio floor keeps tightly clustered honest
	// populations (tiny MAD) from turning ordinary heterogeneity into huge
	// z-scores.
	normZ     float64 = 6
	normRatio float64 = 2.5
	// cosInvert flags a client whose windowed median cosine against the
	// reference direction sits at or below this, but only while the
	// client's norm-outlier flag is armed: inversion refines an
	// already-convicted magnitude outlier by direction (sign-flip pushes
	// backwards, noise pushes nowhere). Direction alone cannot convict
	// under non-IID data — an honest minority label group legitimately
	// anti-correlates with the population's mixture direction, so an
	// ungated cosine rule would flag exactly the clients whose data is
	// rarest.
	cosInvert float64 = -0.25
	// simThreshold is the windowed-median pairwise similarity of residual
	// instantaneous signatures at or above which a candidate client is
	// deemed colluding. The threshold sits at near-exactness deliberately:
	// honest clients sharing a label shard reach 0.999x similarity of
	// their drift-corrected contributions, but only coordinated payloads —
	// the same chosen direction injected every round — sustain a windowed
	// median at 1.0 (to float rounding).
	simThreshold float64 = 0.9999
	// simConsistency is the minimum length of a client's residual EMA
	// signature (its direction EMA minus the population's per-chunk
	// median, common mode projected out) for the client to enter pairing
	// at all — honest residuals are averaged-out rotation noise and stay
	// well below it, so tiny residuals never compare as pure noise.
	simConsistency float64 = 0.5
	// refRate is the EMA rate of the reference direction.
	refRate float64 = 0.05
	// sigChunks is the dimensionality of the chunked direction signature,
	// and the number of equal segments the layer-norm profile is taken
	// over. It is 64 (the field this replaces was documented as 16 and
	// defaulted to 64): the similarity figures simThreshold separates —
	// exact 1.0 for colluders, 0.9996 for honest label twins — and the
	// byzantine study's precision and recall were all measured at 64.
	sigChunks = 64
	// reassertEvery re-emits the raise event of a still-flagged client
	// every that many of its updates, so downstream consumers (the health
	// evaluator's sustained-anomaly rule) can tell persistent anomalies
	// from one-off blips.
	reassertEvery = 16
)

// profile is the streaming state of one audited client.
type profile struct {
	id    int
	count int64

	// norm window (ring buffer of size window) and its cached median.
	norms    []float64
	normHead int
	normN    int
	median   float64

	// raw wire-norm window: the un-corrected L2 of the delta. Chunk sums
	// cancel for incoherent payloads (a random direction's components
	// alternate sign within every chunk), so a noise injection can be
	// huge on the wire yet ordinary in signature space; this window is
	// the magnitude rule's second eye. See judge.
	rawNorms  []float64
	rawHead   int
	rawMedian float64

	// cosine-vs-reference window and its cached median (the reference
	// needs a few merges before it exists, so this ring fills later).
	coss    []float64
	cosHead int
	cosN    int
	medCos  float64

	// cadence: mean gap between this client's updates.
	lastAt    float64
	lastValid bool
	gapSum    float64
	gapN      int64

	// sig is the EMA of the chunked signature of the client's normalized
	// delta direction; its length approaches 1 only for clients that keep
	// pushing the same way.
	sig  []float64
	sigN int64

	// inst is the raw chunked signature of the client's latest delta —
	// the un-smoothed counterpart of sig the collusion rule compares
	// pairwise (EMAs of honest clients converge to the shared gradient
	// direction and look alike; single updates differ by minibatch
	// noise unless the payloads actually coincide).
	inst      []float64
	instValid bool

	// sims is the window of best pairwise instantaneous-residual
	// cosines and its cached median.
	sims    []float64
	simHead int
	simN    int
	medSim  float64

	// layers is the EMA of the per-segment share of the delta norm.
	layers []float64

	lastNorm  float64 // raw wire L2 norm of the last delta
	lastCNorm float64 // drift-corrected contribution magnitude (chunk space)
	lastStale float64
	lastZ     float64
	lastSim   float64

	flags     uint8
	sinceEmit [numRules]int
}

// Recorder is one server's audit plane. It is not safe for concurrent
// use on its own; both runtimes call it while holding the same
// serialization that guards the ServerCore (the DES is single-threaded,
// the live runtime holds the server mutex).
type Recorder struct {
	server int
	sink   obs.Sink

	updates int64
	raises  int64

	// ref is the reference direction in chunk-signature space: an EMA of
	// the normalized drift-corrected contributions of currently-unflagged
	// clients. refNorm caches its length.
	ref      []float64
	refNorm  float64
	refMin   int64 // merges before the reference is trusted
	refSeen  int64
	profiles map[int]*profile
	order    []int // sorted client IDs: every iteration walks this

	// Staleness-drift compensation: a ring of (model age, model chunk
	// signature) snapshots taken at each observation. An update based on
	// age B arrives when the model has moved to age A; the difference of
	// the two snapshots is exactly the drift the client could not have
	// known about, and subtracting it from the update's signature leaves
	// the client's pure training contribution (chunking is linear, so
	// signature-space subtraction equals chunking the param-space
	// difference). Without it every honest update is dominated by the
	// same drift and all direction statistics collapse together.
	snapAges []float64
	snapSigs [][]float64
	snapHead int
	snapN    int

	// reusable scratch (steady-state observation allocates nothing).
	modelSig   []float64 // chunk signature of the current model
	contrib    []float64 // drift-corrected contribution signature
	layScratch []float64
	medScratch []float64
	popScratch []float64
	popSig     []float64 // per-chunk median EMA signature of the population
	popNorm    float64   // cached length of popSig
	popInst    []float64 // per-chunk median of the latest raw signatures
	popInstN   float64   // cached length of popInst
	residA     []float64 // residual EMA signature of the judged client
	residB     []float64 // residual EMA signature of the compared client
	instA      []float64 // residual instantaneous signature (judged)
	instB      []float64 // residual instantaneous signature (compared)
	simScratch []float64 // per-chunk values while computing popSig
}

// NewRecorder builds a recorder for one server. Verdict events are
// emitted into sink (stamped with the clock value the caller passes to
// Observe); obs.Nop suppresses emission but keeps the statistics, which
// live telemetry still surfaces.
func NewRecorder(server int, sink obs.Sink) *Recorder {
	if sink == nil {
		sink = obs.Nop{}
	}
	r := &Recorder{
		server:     server,
		sink:       sink,
		refMin:     3,
		profiles:   make(map[int]*profile),
		ref:        make([]float64, sigChunks),
		modelSig:   make([]float64, sigChunks),
		contrib:    make([]float64, sigChunks),
		layScratch: make([]float64, sigChunks),
		medScratch: make([]float64, 0, window),
		popSig:     make([]float64, sigChunks),
		popInst:    make([]float64, sigChunks),
		residA:     make([]float64, sigChunks),
		residB:     make([]float64, sigChunks),
		instA:      make([]float64, sigChunks),
		instB:      make([]float64, sigChunks),
		snapAges:   make([]float64, snapRing),
		snapSigs:   make([][]float64, snapRing),
	}
	for i := range r.snapSigs {
		r.snapSigs[i] = make([]float64, sigChunks)
	}
	return r
}

func (r *Recorder) profile(id int) *profile {
	if p, ok := r.profiles[id]; ok {
		return p
	}
	p := &profile{
		id:       id,
		norms:    make([]float64, window),
		rawNorms: make([]float64, window),
		coss:     make([]float64, window),
		sims:     make([]float64, window),
		sig:      make([]float64, sigChunks),
		inst:     make([]float64, sigChunks),
	}
	r.profiles[id] = p
	r.order = append(r.order, id)
	sort.Ints(r.order)
	return p
}

// Observe folds one merged client-update delta into the audit state.
// now is the runtime's clock (virtual or wall seconds), client the
// sender, delta the raw pre-clip difference between the client's update
// and the server model, model the server's current (pre-merge)
// parameter vector, baseAge the age of the model the client trained
// from, age the server's current model age. delta and model are borrows
// valid only for the duration of the call (delta is the core's scratch
// buffer); the recorder never retains them.
func (r *Recorder) Observe(now float64, client int, delta, model []float64, baseAge, age float64) {
	p := r.profile(client)
	r.updates++
	p.count++

	staleness := age - baseAge
	norm := paramvec.Vec(delta).L2Norm()
	p.lastNorm = norm
	p.lastStale = staleness

	// Inter-update cadence.
	if p.lastValid && now >= p.lastAt {
		p.gapSum += now - p.lastAt
		p.gapN++
	}
	p.lastAt, p.lastValid = now, true

	// Snapshot the model's chunk signature at its current age — before
	// the correction lookup, so a zero-staleness update (baseAge == age)
	// subtracts an exactly-zero drift.
	chunkInto(r.modelSig, model)
	r.snapshot(age)

	// Drift-corrected contribution. The observed delta is
	// (update - model(now)) = (model(base) - model(now)) + trainingStep:
	// it carries a NEGATIVE copy of how far the model moved since the
	// client's base age. Adding that movement back in signature space
	// (chunking is linear, so signature differences equal chunked
	// param-space differences) leaves the signature of the client's own
	// training step — the only part the client actually chose.
	chunkInto(r.contrib, delta)
	if base, ok := r.lookup(baseAge); ok {
		for i := range r.contrib {
			r.contrib[i] += r.modelSig[i] - base[i]
		}
	}
	cNorm := sigLen(r.contrib)
	p.lastCNorm = cNorm
	if cNorm > 0 {
		inv := 1 / cNorm
		for i := range r.contrib {
			r.contrib[i] *= inv
		}
	}

	// Cosine of the contribution against the reference direction (once
	// the reference exists).
	if r.refSeen >= r.refMin && r.refNorm > 0 && cNorm > 0 {
		cos := sigDot(r.ref, r.contrib) / r.refNorm
		p.coss[p.cosHead] = cos
		p.cosHead = (p.cosHead + 1) % window
		if p.cosN < window {
			p.cosN++
		}
		p.medCos = r.windowMedian(p.coss, p.cosN)
	}

	// Contribution direction signature (instantaneous + EMA) and the
	// per-layer norm profile of the raw delta.
	copy(p.inst, r.contrib)
	p.instValid = cNorm > 0
	sigRate := 0.2
	for i, s := range r.contrib {
		p.sig[i] = (1-sigRate)*p.sig[i] + sigRate*s
	}
	p.sigN++
	r.layerProfile(delta, norm)
	if p.layers == nil {
		p.layers = append(p.layers, r.layScratch...)
	} else {
		for i, s := range r.layScratch {
			p.layers[i] = 0.9*p.layers[i] + 0.1*s
		}
	}

	// Norm window holds the drift-corrected contribution magnitudes:
	// the raw delta norm scales with how stale an update happens to be,
	// which is scheduling luck, not client behaviour.
	p.norms[p.normHead] = cNorm
	p.normHead = (p.normHead + 1) % window
	if p.normN < window {
		p.normN++
	}
	p.median = r.windowMedian(p.norms, p.normN)
	// The raw wire norm rides a parallel window (same fill count).
	p.rawNorms[p.rawHead] = norm
	p.rawHead = (p.rawHead + 1) % window
	p.rawMedian = r.windowMedian(p.rawNorms, p.normN)

	r.judge(now, p)

	// The reference direction averages the contributions of clients that
	// currently look honest — judged first, so a flagged client stops
	// steering the baseline it is compared against.
	if cNorm > 0 && p.flags == 0 {
		for i, s := range r.contrib {
			r.ref[i] = (1-refRate)*r.ref[i] + refRate*s
		}
		r.refNorm = sigLen(r.ref)
		r.refSeen++
	}
}

// snapshot records (age, modelSig) in the ring, overwriting the oldest
// entry once full.
func (r *Recorder) snapshot(age float64) {
	copy(r.snapSigs[r.snapHead], r.modelSig)
	r.snapAges[r.snapHead] = age
	r.snapHead = (r.snapHead + 1) % snapRing
	if r.snapN < snapRing {
		r.snapN++
	}
}

// lookup finds the snapshot whose age is nearest to baseAge. Reply
// stamps come from the same counter the snapshots key on, so the match
// is usually exact; server-to-server merges nudge ages between client
// merges, in which case the nearest snapshot bounds the error by one
// inter-merge window.
func (r *Recorder) lookup(baseAge float64) ([]float64, bool) {
	bestD := math.Inf(1)
	best := -1
	for i := 0; i < r.snapN; i++ {
		d := math.Abs(r.snapAges[i] - baseAge)
		if d < bestD {
			bestD, best = d, i
		}
	}
	if best < 0 {
		return nil, false
	}
	return r.snapSigs[best], true
}

// windowMedian computes the median of the first n live entries of a ring
// buffer using the reusable sort scratch.
func (r *Recorder) windowMedian(ring []float64, n int) float64 {
	if n == 0 {
		return 0
	}
	r.medScratch = append(r.medScratch[:0], ring[:n]...)
	sort.Float64s(r.medScratch)
	return r.medScratch[n/2]
}

// chunkInto fills dst with the raw chunk sums of v — a cheap fixed
// LINEAR projection into signature space (linearity is what makes
// snapshot-difference drift subtraction exact). An empty v yields the
// zero signature.
func chunkInto(dst []float64, v []float64) {
	for i := range dst {
		dst[i] = 0
	}
	if len(v) == 0 {
		return
	}
	per := (len(v) + len(dst) - 1) / len(dst)
	for i, d := range v {
		dst[i/per] += d
	}
}

func sigDot(a, b []float64) float64 {
	var dot float64
	for i := range a {
		dot += a[i] * b[i]
	}
	return dot
}

// layerProfile fills layScratch with the share of the delta norm that
// falls in each of sigChunks equal segments.
func (r *Recorder) layerProfile(delta []float64, norm float64) {
	for i := range r.layScratch {
		r.layScratch[i] = 0
	}
	if norm <= 0 || len(delta) == 0 {
		return
	}
	per := (len(delta) + sigChunks - 1) / sigChunks
	for i, d := range delta {
		r.layScratch[i/per] += d * d
	}
	for i := range r.layScratch {
		r.layScratch[i] = math.Sqrt(r.layScratch[i]) / norm
	}
}

// judge re-evaluates every rule for the client that just sent an update.
func (r *Recorder) judge(now float64, p *profile) {
	if p.normN < minSamples {
		return
	}

	// Norm outlier: robust z of the client's windowed median magnitude
	// against the population of per-client medians, judged in BOTH
	// magnitude spaces — the drift-corrected chunk norm (coherent
	// payloads: sign-flip, amplification) and the raw wire L2 (incoherent
	// payloads: noise injections whose random components cancel inside
	// every chunk sum and vanish from signature space). Either space
	// raising convicts; the flag holds while either holds. The rule waits
	// for the client's FULL window: partial warm-up windows differ across
	// clients in exactly the way this rule would misread as outliers.
	popMed, spread, popOK := r.popStats(p, false)
	rawMed, rawSpread, rawOK := r.popStats(p, true)
	if popOK && p.normN >= window {
		z := (p.median - popMed) / spread
		raise := z >= normZ && p.median >= normRatio*popMed
		hold := z >= 0.8*normZ && p.median >= 0.8*normRatio*popMed
		if rawOK {
			zRaw := (p.rawMedian - rawMed) / rawSpread
			if zRaw > z {
				z = zRaw
			}
			raise = raise || (zRaw >= normZ && p.rawMedian >= normRatio*rawMed)
			hold = hold || (zRaw >= 0.8*normZ && p.rawMedian >= 0.8*normRatio*rawMed)
		}
		p.lastZ = z
		r.setFlag(now, p, ruleNorm, raise, hold, z)
	}

	// Direction inversion: refines an armed norm-outlier flag by
	// direction (see cosInvert for why direction alone cannot
	// convict under non-IID data). Gating on the norm flag makes the
	// rule inherit its false-positive behaviour: it can never flag a
	// client the magnitude rule would not.
	if p.cosN >= minSamples {
		normArmed := p.flags&(1<<ruleNorm) != 0
		raise := normArmed && p.medCos <= cosInvert
		hold := normArmed && p.medCos <= cosInvert+0.15
		r.setFlag(now, p, ruleInvert, raise, hold, p.medCos)
	}

	// Collusion. Two layers separate a colluding clique from honest
	// non-IID heterogeneity:
	//
	// Candidate gate — the client's residual EMA signature (direction
	// EMA minus the population's per-chunk median, with the remaining
	// common-mode component projected out) must be long: the client
	// persistently pushes a private direction. Honest clients' residuals
	// are rotating noise the EMA averages out.
	//
	// Pairing statistic — the windowed MEDIAN of the best pairwise
	// cosine between candidates' residual INSTANTANEOUS signatures.
	// EMAs are useless here: honest clients training one model (or
	// sharing a label subset) have near-identical smoothed directions.
	// Single updates differ by minibatch noise unless the payloads
	// actually coincide — only a clique sending the same direction every
	// round sustains a near-1 instantaneous match for a whole window.
	if r.popSignature() {
		if r.colludeCandidate(p, r.residA) {
			residualize(p.inst, r.instA, r.popInst, r.popInstN)
			best := -1.0
			for _, id := range r.order {
				if id == p.id {
					continue
				}
				q := r.profiles[id]
				if !q.instValid || !r.colludeCandidate(q, r.residB) {
					continue
				}
				residualize(q.inst, r.instB, r.popInst, r.popInstN)
				if s := sigCosine(r.instA, r.instB); s > best {
					best = s
				}
			}
			p.lastSim = best
			if best > -1 {
				p.sims[p.simHead] = best
				p.simHead = (p.simHead + 1) % window
				if p.simN < window {
					p.simN++
				}
				p.medSim = r.windowMedian(p.sims, p.simN)
			}
			sustained := p.simN >= minSamples
			raise := sustained && p.medSim >= simThreshold
			// Hysteresis margin scales with the threshold's distance
			// from exactness (2T-1 = T - (1-T)): a near-1 threshold gets
			// a correspondingly tight hold band.
			hold := sustained && p.medSim >= 2*simThreshold-1
			r.setFlag(now, p, ruleCollude, raise, hold, p.medSim)
		} else if p.flags&(1<<ruleCollude) != 0 {
			r.setFlag(now, p, ruleCollude, false, false, p.medSim)
		}
	}
}

// popStats computes the population baseline for one magnitude space
// (raw wire norms or drift-corrected chunk norms): the median and the
// MAD-derived spread of per-client windowed medians. Currently-flagged
// clients other than the judged one are excluded — mirroring the
// reference direction, an attacker's inflated norms must not become the
// yardstick anyone (including itself) is measured against. ok is false
// until MinPeers clients contribute.
func (r *Recorder) popStats(p *profile, raw bool) (popMed, spread float64, ok bool) {
	r.popScratch = r.popScratch[:0]
	for _, id := range r.order {
		q := r.profiles[id]
		if q.normN >= minSamples && (q.flags == 0 || q == p) {
			if raw {
				r.popScratch = append(r.popScratch, q.rawMedian)
			} else {
				r.popScratch = append(r.popScratch, q.median)
			}
		}
	}
	if len(r.popScratch) < minPeers {
		return 0, 0, false
	}
	sort.Float64s(r.popScratch)
	popMed = r.popScratch[len(r.popScratch)/2]
	for i, m := range r.popScratch {
		r.popScratch[i] = math.Abs(m - popMed)
	}
	sort.Float64s(r.popScratch)
	mad := r.popScratch[len(r.popScratch)/2]
	spread = 1.4826 * mad
	// Floor the spread at a fraction of the median: a tightly clustered
	// honest population must not make every ripple an outlier.
	if floor := 0.1*popMed + 1e-12; spread < floor {
		spread = floor
	}
	return popMed, spread, true
}

// popSignature computes the population's per-chunk median signature
// into popSig. The median (not mean) keeps a colluding minority from
// dragging the baseline toward its own direction, which would both mute
// the colluders' residuals and imprint an anti-attack component on
// every honest residual. Reports false — collusion disarmed — until
// MinPeers clients have mature signatures.
func (r *Recorder) popSignature() bool {
	mature := 0
	for _, id := range r.order {
		if r.profiles[id].sigN >= minSamples {
			mature++
		}
	}
	if mature < minPeers {
		return false
	}
	for c := range r.popSig {
		r.simScratch = r.simScratch[:0]
		for _, id := range r.order {
			q := r.profiles[id]
			if q.sigN >= minSamples {
				r.simScratch = append(r.simScratch, q.sig[c])
			}
		}
		sort.Float64s(r.simScratch)
		r.popSig[c] = r.simScratch[len(r.simScratch)/2]

		// The same median over the LATEST raw signatures: a zero-lag
		// tracker of what every update looks like right now. The staleness
		// drift (server model movement between a client's receive and its
		// send) is a time-local common mode all concurrent updates share;
		// the EMA median above lags it, this one does not.
		r.simScratch = r.simScratch[:0]
		for _, id := range r.order {
			q := r.profiles[id]
			if q.instValid && q.sigN >= minSamples {
				r.simScratch = append(r.simScratch, q.inst[c])
			}
		}
		if len(r.simScratch) > 0 {
			sort.Float64s(r.simScratch)
			r.popInst[c] = r.simScratch[len(r.simScratch)/2]
		} else {
			r.popInst[c] = 0
		}
	}
	r.popNorm = sigLen(r.popSig)
	r.popInstN = sigLen(r.popInst)
	return true
}

// colludeCandidate fills dst with the client's residual EMA signature
// and reports whether the client enters collusion pairing: a mature
// signature whose residual is long enough to encode a persistent
// private direction.
func (r *Recorder) colludeCandidate(p *profile, dst []float64) bool {
	if p.sigN < minSamples {
		return false
	}
	residualize(p.sig, dst, r.popSig, r.popNorm)
	return sigLen(dst) >= simConsistency
}

// residualize writes src minus the base population signature into dst,
// then projects out any remaining component along the base direction:
// clients absorb the common mode in different amounts (they train at
// different phases and staleness), and those scalar differences would
// otherwise correlate every honest pair at ±1.
func residualize(src, dst, base []float64, baseNorm float64) {
	for i := range dst {
		dst[i] = src[i] - base[i]
	}
	if baseNorm > 1e-9 {
		var dot float64
		for i := range dst {
			dot += dst[i] * base[i]
		}
		dot /= baseNorm * baseNorm
		for i := range dst {
			dst[i] -= dot * base[i]
		}
	}
}

func sigLen(s []float64) float64 {
	var n float64
	for _, x := range s {
		n += x * x
	}
	return math.Sqrt(n)
}

func sigCosine(a, b []float64) float64 {
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// setFlag applies one rule's verdict with hysteresis: raise arms the
// flag, hold keeps an armed flag armed, and a still-armed flag re-emits
// its raise event every reassertEvery updates so sustained anomalies
// stay visible downstream.
func (r *Recorder) setFlag(now float64, p *profile, ri int, raise, hold bool, score float64) {
	bit := uint8(1) << ri
	switch {
	case raise && p.flags&bit == 0:
		p.flags |= bit
		p.sinceEmit[ri] = 0
		r.emit(now, p, ri, score, false)
	case (raise || hold) && p.flags&bit != 0:
		p.sinceEmit[ri]++
		if p.sinceEmit[ri] >= reassertEvery {
			p.sinceEmit[ri] = 0
			r.emit(now, p, ri, score, false)
		}
	case !hold && p.flags&bit != 0:
		p.flags &^= bit
		r.emit(now, p, ri, score, true)
	}
}

func (r *Recorder) emit(now float64, p *profile, ri int, score float64, clearEv bool) {
	note := ruleNames[ri]
	if clearEv {
		note = ClearPrefix + note
	} else {
		r.raises++
	}
	if !r.sink.Enabled() {
		return
	}
	r.sink.Emit(obs.Event{
		Time: now, Kind: obs.KindAudit,
		Node: r.server, Peer: p.id,
		Stale: p.lastStale, Score: score, Note: note,
	})
}

// Flags reports the rules currently flagging a client, in the fixed rule
// order (nil for unknown or honest-looking clients).
func (r *Recorder) Flags(client int) []string {
	p, ok := r.profiles[client]
	if !ok || p.flags == 0 {
		return nil
	}
	return flagNames(p.flags)
}

func flagNames(flags uint8) []string {
	var out []string
	for ri := 0; ri < numRules; ri++ {
		if flags&(1<<ri) != 0 {
			out = append(out, ruleNames[ri])
		}
	}
	return out
}

// Flagged returns the IDs of every currently-flagged client, sorted.
func (r *Recorder) Flagged() []int {
	var out []int
	for _, id := range r.order {
		if r.profiles[id].flags != 0 {
			out = append(out, id)
		}
	}
	return out
}

// Snapshot renders the audit state as the telemetry section served on
// /debug/telemetry. Rows are sorted by client ID. Nil-safe: a disarmed
// (nil) recorder yields no section.
func (r *Recorder) Snapshot() *obs.TelemetryAudit {
	if r == nil {
		return nil
	}
	a := &obs.TelemetryAudit{Updates: r.updates}
	for _, id := range r.order {
		p := r.profiles[id]
		row := obs.TelemetryAuditClient{
			Client:     id,
			Updates:    p.count,
			MedianNorm: p.median,
			NormZ:      p.lastZ,
			MedianCos:  p.medCos,
			LastStale:  p.lastStale,
			LayerNorms: append([]float64(nil), p.layers...),
			Flags:      flagNames(p.flags),
		}
		if p.gapN > 0 {
			row.MeanGap = p.gapSum / float64(p.gapN)
		}
		if p.flags != 0 {
			a.Flagged++
		}
		a.Clients = append(a.Clients, row)
	}
	return a
}
