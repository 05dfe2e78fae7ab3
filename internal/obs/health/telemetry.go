package health

import "github.com/spyker-fl/spyker/internal/obs"

// ObserveTelemetry folds one server's telemetry snapshot into the model.
// at is the collector's own stream time for the snapshot (NOT the
// snapshot's Time field — each server stamps telemetry with its private
// process clock, so only durations inside the snapshot are meaningful
// across servers). Counters are diffed against the previous snapshot of
// the same server; a counter running backwards (the process restarted)
// re-baselines instead of producing garbage deltas.
func (e *Evaluator) ObserveTelemetry(t *obs.Telemetry, at float64) {
	e.AdvanceTo(at)
	s := e.server(t.Server)

	if e.cfg.TokenTimeout <= 0 && t.TokenTimeout > e.tokenTmo {
		e.tokenTmo = t.TokenTimeout
	}

	s.epochValid = true
	s.epoch = t.Epoch
	e.checkEpochs(at)

	// TokenSilence is a duration on the reporting server's clock; the
	// most recent movement any server vouches for wins. A server that
	// stops reporting stops vouching, so cluster silence keeps growing.
	if t.TokenSilence >= 0 {
		e.noteTokenMove(at - t.TokenSilence)
	}

	syncs := t.SyncsTriggered + t.SyncsJoined
	staleN := t.StalenessTotal()
	if s.telValid &&
		t.Updates >= s.updates && syncs >= s.syncs &&
		staleN >= s.stalenessN && t.StalenessSum >= s.stalenessSum {
		if syncs > s.syncs {
			e.noteSync(at)
		}
		e.updSinceSync += t.Updates - s.updates
		e.noteStaleness(t.StalenessSum-s.stalenessSum, staleN-s.stalenessN, at)
	}
	s.telValid = true
	s.updates = t.Updates
	s.syncs = syncs
	s.stalenessN = staleN
	s.stalenessSum = t.StalenessSum

	for _, p := range t.Peers {
		e.noteBacklog(t.Server, p.Peer, p.OutboxDepth, at)
	}

	e.AdvanceTo(at)
}
