// Package health implements the cluster health model: a deterministic
// evaluator that folds a stream of protocol events (DES or merged
// traces) and/or telemetry snapshots (live polling) into a
// healthy/degraded/stalled classification with typed alerts.
//
// The evaluator is a pure function of its input stream — it never reads
// the wall clock or draws randomness, and it iterates no maps — so the
// same stream always yields the same alerts, and fault-plan tests can
// assert that injected failures are *detected*, not just survived. The
// package is registered in spyker-lint's deterministic set.
package health

import (
	"fmt"
	"sort"
	"strings"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/obs/audit"
)

// State classifies the cluster. Ordering is severity: a higher value is
// strictly worse, and the cluster state is the maximum severity of the
// active alerts.
type State int

const (
	// Healthy: no active alerts.
	Healthy State = iota
	// Degraded: progress continues but some resource or invariant is
	// slipping (epoch divergence, backlog growth, staleness blow-up,
	// sync-cadence flatline).
	Degraded
	// Stalled: the synchronization ring itself has stopped moving.
	Stalled
)

func (s State) String() string {
	switch s {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case Stalled:
		return "stalled"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Rule identifies which detection rule raised an alert.
type Rule string

const (
	// RuleTokenSilence: no token movement anywhere in the cluster for
	// longer than silenceFactor x TokenTimeout. A healthy ring hands the
	// token off at least once per regeneration timeout (silence past
	// TokenTimeout mints a replacement token), so silence past a multiple
	// of it means even recovery is not restoring circulation. Stalled.
	RuleTokenSilence Rule = "token-silence"
	// RuleEpochDivergence: servers report different membership epochs for
	// longer than two token timeouts (epochGrace). Transient divergence is normal while an
	// epoch propagates; a persistent split means part of the ring is
	// partitioned from membership news. Degraded.
	RuleEpochDivergence Rule = "epoch-divergence"
	// RuleOutboxBacklog: a peer link's outbox depth grew monotonically
	// across backlogRise consecutive snapshots and sits at or above
	// backlogMin — the receiver is slower than the sender or gone.
	// Telemetry-only (traces do not carry queue depths). Degraded.
	RuleOutboxBacklog Rule = "outbox-backlog"
	// RuleStalenessBlowup: the mean staleness of aggregated client
	// updates rose across stalenessRise consecutive chunks and exceeds
	// stalenessFactor x the best chunk mean seen — updates are aging
	// faster than the ring refreshes models. Degraded.
	RuleStalenessBlowup Rule = "staleness-blowup"
	// RuleSyncFlatline: client updates keep flowing but no
	// synchronization round has started for flatlineFactor x the
	// observed round cadence. Degraded.
	RuleSyncFlatline Rule = "sync-flatline"
	// RuleClientAnomaly: the contribution audit plane
	// (internal/obs/audit) has flagged a client auditSustain or more
	// times in a row — from KindAudit verdict events (traces, DES) or
	// from consecutive flagged telemetry polls — without an intervening
	// full clear. One anomalous client degrades the server merging it,
	// not the whole cluster. Degraded.
	RuleClientAnomaly Rule = "client-anomaly"
)

// Alert is one raised detection. An alert stays active until its clear
// condition holds; Cleared then records when.
type Alert struct {
	Rule     Rule
	Severity State
	// Raised is when the rule's condition was crossed (stream time).
	Raised float64
	// Node is the offending server, or obs.NoPeer for cluster-wide
	// alerts; Peer narrows link-scoped alerts (obs.NoPeer otherwise).
	Node int
	Peer int
	// Detail is a human-readable explanation naming the rule's inputs.
	Detail string
	// Active is true until the condition clears; Cleared is the clear
	// time once it does.
	Active  bool
	Cleared float64
}

// Config holds what a deployment knows about its ring and the evaluator
// cannot. The zero value is usable: rules whose inputs are absent (e.g.
// TokenTimeout unknown and uncalibrated) stay silent rather than guessing.
type Config struct {
	// TokenTimeout is the cluster's token regeneration timeout in stream
	// seconds. 0 means unknown: the evaluator adopts the largest value
	// self-reported in telemetry, or an offline caller calibrates it from
	// the trace (CalibrateTokenTimeout).
	TokenTimeout float64
}

// The detection rules' thresholds.
const (
	// silenceFactor scales the token timeout into the stall threshold.
	silenceFactor = 2.0
	// flatlineFactor scales the observed sync cadence into the flatline
	// threshold.
	flatlineFactor = 4
	// backlogRise is how many consecutive strictly-rising snapshots of one
	// outbox arm the backlog alert; backlogMin is the minimum depth that
	// may alert.
	backlogRise = 3
	backlogMin  = 8
	// stalenessRise is how many consecutive rising staleness chunks arm
	// the blow-up alert; stalenessFactor the multiple of the best chunk
	// mean that must be exceeded; stalenessChunk the number of aggregated
	// updates per chunk.
	stalenessRise   = 4
	stalenessFactor = 4
	stalenessChunk  = 32
	// auditSustain is how many consecutive audit verdicts (raise or
	// reassert events, or flagged telemetry polls) a client must
	// accumulate before the anomaly alert raises — a single transient
	// verdict is the audit plane's hysteresis to manage, not an operator
	// page.
	auditSustain = 2
)

type serverState struct {
	epochValid bool
	epoch      int
	// telemetry deltas
	telValid     bool
	updates      int64
	syncs        int
	stalenessSum float64
	stalenessN   int64
}

type linkState struct {
	valid  bool
	depth  int
	streak int
}

// auditState tracks one (server, client) pair's standing with the audit
// plane: which rules currently flag it and how many consecutive
// verdicts it has accumulated since the last full clear.
type auditState struct {
	rules  map[string]bool
	streak int
}

type alertKey struct {
	rule Rule
	node int
	peer int
}

// Evaluator folds events and telemetry snapshots into a health state.
// Feed it obs.Events (Observe), telemetry snapshots (ObserveTelemetry),
// and time (AdvanceTo) in non-decreasing stream order; it is not
// goroutine-safe — wrap it in Sink for concurrent emitters.
type Evaluator struct {
	cfg Config
	now float64

	servers  []int // sorted IDs of every server seen in the stream
	perSrv   map[int]*serverState
	links    map[[2]int]*linkState
	audits   map[[2]int]*auditState // (server, client) -> audit standing
	tokenTmo float64                // effective TokenTimeout (cfg or adopted)

	lastMoveValid bool
	lastMove      float64 // last token movement anywhere

	lastSyncValid bool
	lastSync      float64
	syncGaps      []float64 // last few inter-sync gaps, cadence estimate
	updSinceSync  int64

	divergedValid bool
	divergedSince float64
	divergedLag   int
	divergedSpan  [2]int

	chunkSum  float64
	chunkN    int64
	bestMean  float64
	bestValid bool
	prevMean  float64
	prevValid bool
	riseRun   int

	alerts []Alert
	active map[alertKey]int // -> index into alerts
}

// New returns an evaluator for cfg.
func New(cfg Config) *Evaluator {
	return &Evaluator{
		cfg:      cfg,
		perSrv:   map[int]*serverState{},
		links:    map[[2]int]*linkState{},
		audits:   map[[2]int]*auditState{},
		tokenTmo: cfg.TokenTimeout,
		active:   map[alertKey]int{},
	}
}

// Now reports the latest stream time the evaluator has advanced to.
func (e *Evaluator) Now() float64 { return e.now }

// State reports the current classification: the maximum severity of the
// active alerts.
func (e *Evaluator) State() State {
	s := Healthy
	for i := range e.alerts {
		a := &e.alerts[i]
		if a.Active && a.Severity > s {
			s = a.Severity
		}
	}
	return s
}

// Alerts returns a copy of every alert raised so far, in raise order,
// including cleared ones.
func (e *Evaluator) Alerts() []Alert {
	return append([]Alert(nil), e.alerts...)
}

// ActiveAlerts returns the alerts still active, in raise order.
func (e *Evaluator) ActiveAlerts() []Alert {
	var out []Alert
	for i := range e.alerts {
		if e.alerts[i].Active {
			out = append(out, e.alerts[i])
		}
	}
	return out
}

func (e *Evaluator) server(id int) *serverState {
	if s, ok := e.perSrv[id]; ok {
		return s
	}
	s := &serverState{}
	e.perSrv[id] = s
	e.servers = append(e.servers, id)
	sort.Ints(e.servers)
	return s
}

func (e *Evaluator) raise(rule Rule, sev State, at float64, node, peer int, detail string) {
	k := alertKey{rule, node, peer}
	if _, ok := e.active[k]; ok {
		return
	}
	e.alerts = append(e.alerts, Alert{
		Rule: rule, Severity: sev, Raised: at,
		Node: node, Peer: peer, Detail: detail, Active: true,
	})
	e.active[k] = len(e.alerts) - 1
}

func (e *Evaluator) clear(rule Rule, at float64, node, peer int) {
	k := alertKey{rule, node, peer}
	i, ok := e.active[k]
	if !ok {
		return
	}
	delete(e.active, k)
	e.alerts[i].Active = false
	e.alerts[i].Cleared = at
}

// Observe folds one protocol event (from a DES sink, a single live
// trace, or a merged cluster trace) into the model. Time advances to the
// event's stamp and the threshold checks run BEFORE the event is
// ingested, so a recovery event (the first token pass after a stall)
// first exposes the silence window it ends, then clears the alert — the
// raise and the clear both appear in the timeline.
func (e *Evaluator) Observe(ev obs.Event) {
	e.AdvanceTo(ev.Time)
	switch ev.Kind {
	case obs.KindTokenPass:
		e.noteTokenMove(ev.Time)
	case obs.KindSyncStart:
		e.noteSync(ev.Time)
	case obs.KindClientUpdate:
		node := ev.Node
		if node >= obs.ServerNode {
			node = node - obs.ServerNode
		}
		e.server(node)
		e.updSinceSync++
		e.noteStaleness(ev.Stale, 1, ev.Time)
	case obs.KindMembership:
		e.server(ev.Node).epochValid = true
		e.perSrv[ev.Node].epoch = ev.Bid
		e.checkEpochs(ev.Time)
	case obs.KindAudit:
		e.noteAudit(ev)
	}
}

// noteAudit folds one audit verdict event. Raise and reassert events
// grow the (server, client) streak; a clear event retires its rule and,
// once no rule still flags the pair, clears the alert and resets the
// streak.
func (e *Evaluator) noteAudit(ev obs.Event) {
	e.server(ev.Node)
	k := [2]int{ev.Node, ev.Peer}
	a, ok := e.audits[k]
	if !ok {
		a = &auditState{rules: map[string]bool{}}
		e.audits[k] = a
	}
	if rule, cleared := strings.CutPrefix(ev.Note, audit.ClearPrefix); cleared {
		delete(a.rules, rule)
		if len(a.rules) == 0 {
			a.streak = 0
			e.clear(RuleClientAnomaly, ev.Time, ev.Node, ev.Peer)
		}
		return
	}
	a.rules[ev.Note] = true
	a.streak++
	if a.streak >= auditSustain {
		e.raise(RuleClientAnomaly, Degraded, ev.Time, ev.Node, ev.Peer,
			fmt.Sprintf("server %d audit flagged client %d: %s (%d verdicts, score %.3f)",
				ev.Node, ev.Peer, ev.Note, a.streak, ev.Score))
	}
}

// noteAuditFlags folds one telemetry poll's audit standing for a client:
// a flagged poll extends the streak, an unflagged poll clears it.
func (e *Evaluator) noteAuditFlags(server, client int, flags []string, at float64) {
	k := [2]int{server, client}
	a, ok := e.audits[k]
	if !ok {
		if len(flags) == 0 {
			return
		}
		a = &auditState{rules: map[string]bool{}}
		e.audits[k] = a
	}
	if len(flags) == 0 {
		if a.streak != 0 || len(a.rules) != 0 {
			a.rules = map[string]bool{}
			a.streak = 0
			e.clear(RuleClientAnomaly, at, server, client)
		}
		return
	}
	a.rules = map[string]bool{}
	for _, f := range flags {
		a.rules[f] = true
	}
	a.streak++
	if a.streak >= auditSustain {
		e.raise(RuleClientAnomaly, Degraded, at, server, client,
			fmt.Sprintf("server %d audit flagged client %d: %s (%d polls)",
				server, client, strings.Join(flags, ","), a.streak))
	}
}

// AdvanceTo moves stream time forward and runs the purely time-based
// checks (silence and flatline thresholds crossing with no event to
// trigger them). Time never moves backwards.
func (e *Evaluator) AdvanceTo(now float64) {
	if now > e.now {
		e.now = now
	}
	e.checkSilence()
	e.checkFlatline()
	e.checkDivergence()
}

func (e *Evaluator) noteTokenMove(at float64) {
	if !e.lastMoveValid || at > e.lastMove {
		e.lastMove = at
		e.lastMoveValid = true
	}
	if at > e.now {
		e.now = at
	}
	if thr := e.silenceThreshold(); thr <= 0 || e.now-e.lastMove <= thr {
		e.clear(RuleTokenSilence, at, obs.NoPeer, obs.NoPeer)
	}
}

func (e *Evaluator) silenceThreshold() float64 {
	if e.tokenTmo <= 0 {
		return 0
	}
	return silenceFactor * e.tokenTmo
}

func (e *Evaluator) checkSilence() {
	thr := e.silenceThreshold()
	if thr <= 0 || !e.lastMoveValid {
		return
	}
	if e.now-e.lastMove > thr {
		e.raise(RuleTokenSilence, Stalled, e.lastMove+thr, obs.NoPeer, obs.NoPeer,
			fmt.Sprintf("no token movement for %.2fs (> %.1fx token timeout %.2fs)",
				e.now-e.lastMove, silenceFactor, e.tokenTmo))
	}
}

func (e *Evaluator) noteSync(at float64) {
	if e.lastSyncValid && at > e.lastSync {
		e.syncGaps = append(e.syncGaps, at-e.lastSync)
		if len(e.syncGaps) > 9 {
			e.syncGaps = e.syncGaps[1:]
		}
	}
	if !e.lastSyncValid || at > e.lastSync {
		e.lastSync = at
		e.lastSyncValid = true
	}
	e.updSinceSync = 0
	e.clear(RuleSyncFlatline, at, obs.NoPeer, obs.NoPeer)
}

// cadence estimates the normal inter-sync gap: the median of recent
// gaps, floored by TokenTimeout when known (regeneration bounds how
// long a healthy ring can go without starting a round).
func (e *Evaluator) cadence() float64 {
	if len(e.syncGaps) == 0 {
		return e.tokenTmo
	}
	gaps := append([]float64(nil), e.syncGaps...)
	sort.Float64s(gaps)
	med := gaps[len(gaps)/2]
	if e.tokenTmo > med {
		return e.tokenTmo
	}
	return med
}

func (e *Evaluator) checkFlatline() {
	if !e.lastSyncValid || e.updSinceSync == 0 {
		return
	}
	cad := e.cadence()
	if cad <= 0 {
		return
	}
	thr := float64(flatlineFactor * cad)
	if e.now-e.lastSync > thr {
		e.raise(RuleSyncFlatline, Degraded, e.lastSync+thr, obs.NoPeer, obs.NoPeer,
			fmt.Sprintf("%d updates merged but no sync round for %.2fs (cadence ~%.2fs)",
				e.updSinceSync, e.now-e.lastSync, cad))
	}
}

// checkEpochs recomputes the divergence window from the per-server
// epoch views.
func (e *Evaluator) checkEpochs(at float64) {
	lo, hi, n := 0, 0, 0
	loNode := obs.NoPeer
	for _, id := range e.servers {
		s := e.perSrv[id]
		if !s.epochValid {
			continue
		}
		if n == 0 || s.epoch < lo {
			lo = s.epoch
			loNode = id
		}
		if n == 0 || s.epoch > hi {
			hi = s.epoch
		}
		n++
	}
	if n < 2 || lo == hi {
		if e.divergedValid {
			e.divergedValid = false
			e.clear(RuleEpochDivergence, at, e.divergedLag, obs.NoPeer)
		}
		return
	}
	if !e.divergedValid {
		e.divergedValid = true
		e.divergedSince = at
		e.divergedLag = loNode
		e.divergedSpan = [2]int{lo, hi}
	}
}

// epochGrace is how long membership epochs may diverge before the alert:
// two token timeouts, or 5s while the timeout is still unknown. It is read
// off the effective timeout at every check, not fixed at New: an online
// evaluator learns the ring's timeout from telemetry only after it starts,
// and must then judge by it as an offline pass over the same stream does.
func (e *Evaluator) epochGrace() float64 {
	if e.tokenTmo > 0 {
		return 2 * e.tokenTmo
	}
	return 5
}

func (e *Evaluator) checkDivergence() {
	if !e.divergedValid {
		return
	}
	if grace := e.epochGrace(); e.now-e.divergedSince > grace {
		e.raise(RuleEpochDivergence, Degraded, e.divergedSince+grace,
			e.divergedLag, obs.NoPeer,
			fmt.Sprintf("membership epochs split %d..%d for %.2fs (server %d lagging)",
				e.divergedSpan[0], e.divergedSpan[1], e.now-e.divergedSince, e.divergedLag))
	}
}

// noteStaleness accumulates n aggregated updates totalling sum staleness
// and evaluates completed chunks.
func (e *Evaluator) noteStaleness(sum float64, n int64, at float64) {
	if n <= 0 {
		return
	}
	e.chunkSum += sum
	e.chunkN += n
	if e.chunkN < stalenessChunk {
		return
	}
	mean := e.chunkSum / float64(e.chunkN)
	e.chunkSum, e.chunkN = 0, 0

	if e.prevValid && mean > e.prevMean {
		e.riseRun++
	} else if e.prevValid {
		e.riseRun = 0
		e.clear(RuleStalenessBlowup, at, obs.NoPeer, obs.NoPeer)
	}
	e.prevMean, e.prevValid = mean, true
	if !e.bestValid || mean < e.bestMean {
		e.bestMean, e.bestValid = mean, true
	}
	// The multiplicative baseline is floored at one age unit: staleness
	// can be negative or near zero in healthy runs (a client may train
	// on a model newer than the merging server's), and "N x of ~0" would
	// call any drift a blow-up. Below one unit of mean staleness the
	// ring is refreshing models faster than updates age — never a
	// blow-up, whatever the ratio.
	base := e.bestMean
	if base < 1 {
		base = 1
	}
	if e.riseRun >= stalenessRise && mean >= stalenessFactor*base {
		e.raise(RuleStalenessBlowup, Degraded, at, obs.NoPeer, obs.NoPeer,
			fmt.Sprintf("mean staleness rose %d chunks to %.3f (%.1fx the floored best chunk %.3f)",
				e.riseRun, mean, mean/base, base))
	}
}

// noteBacklog folds one snapshot of a peer link's outbox depth.
func (e *Evaluator) noteBacklog(node, peer, depth int, at float64) {
	k := [2]int{node, peer}
	l, ok := e.links[k]
	if !ok {
		l = &linkState{}
		e.links[k] = l
	}
	if l.valid && depth > l.depth {
		l.streak++
	} else if l.valid {
		l.streak = 0
	}
	prev := l.depth
	l.depth, l.valid = depth, true
	if l.streak >= backlogRise && depth >= backlogMin {
		e.raise(RuleOutboxBacklog, Degraded, at, node, peer,
			fmt.Sprintf("outbox s%d->s%d grew %d polls to depth %d", node, peer, l.streak, depth))
	} else if depth <= prev || depth < backlogMin {
		e.clear(RuleOutboxBacklog, at, node, peer)
	}
}
