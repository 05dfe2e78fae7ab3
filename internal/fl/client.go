package fl

import (
	"math"
	"math/rand"

	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
)

// SimClient is the simulated client actor shared by the asynchronous
// algorithms (Spyker, Sync-Spyker, FedAsync): whenever the server hands it
// a model it trains locally and, after its modeled training delay, sends
// the update back to its server. meta is echoed verbatim so the protocol
// can attach whatever bookkeeping it needs (Spyker attaches the model age
// the update is based on, per Alg. 1 l. 10).
type SimClient struct {
	Env   *Env
	Spec  ClientSpec
	Model Model
	// Deliver hands the trained parameters to the server actor once the
	// update message has arrived there. uid is the causal trace context
	// minted for this update at send time (obs.UpdateUID) — Spyker threads
	// it into the core so provenance events link client, message, and
	// merge; algorithms without lineage tracking ignore it.
	Deliver func(clientID int, update []float64, meta any, uid obs.UID)

	// CopyUpdates hardens the client for failure injection: the trained
	// update is sent as an owned copy instead of a live parameter view,
	// and a model arriving while a previous one is still in its training
	// window is ignored. Both matter once messages can be lost or
	// duplicated — a restarted server re-engages every client it starved,
	// and a duplicated reply would otherwise fork a second training loop
	// whose update aliases the first one's view.
	CopyUpdates bool

	attackRNG *rand.Rand
	sent      int64 // updates sent, the per-client UID sequence
	busyUntil float64
}

// tamper replaces an honest update with the configured attack payload.
func (c *SimClient) tamper(received, trained []float64) []float64 {
	out := make([]float64, len(trained))
	switch c.Spec.Byzantine {
	case ByzantineSignFlip:
		// Reverse and amplify the honest training direction.
		for i := range out {
			out[i] = received[i] - 3*(trained[i]-received[i])
		}
	case ByzantineNoise:
		if c.attackRNG == nil {
			c.attackRNG = rand.New(rand.NewSource(int64(7919 * (c.Spec.ID + 1))))
		}
		for i := range out {
			out[i] = received[i] + c.attackRNG.NormFloat64()
		}
	case ByzantineScaledNoise:
		if c.attackRNG == nil {
			c.attackRNG = rand.New(rand.NewSource(int64(7919 * (c.Spec.ID + 1))))
		}
		// Noise whose norm is five honest-deltas: each component is drawn
		// independently, then the whole vector is rescaled.
		scale := 5 * deltaNorm(received, trained)
		var norm float64
		for i := range out {
			out[i] = c.attackRNG.NormFloat64()
			norm += out[i] * out[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			norm = 1
		}
		for i := range out {
			out[i] = received[i] + scale*out[i]/norm
		}
	case ByzantineCollude:
		// All colluders derive the same direction from the same fixed seed
		// — deliberately NOT per-client — so their pushes add up instead of
		// cancelling.
		dir := rand.New(rand.NewSource(424242))
		scale := 3 * deltaNorm(received, trained)
		var norm float64
		for i := range out {
			out[i] = dir.NormFloat64()
			norm += out[i] * out[i]
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			norm = 1
		}
		for i := range out {
			out[i] = received[i] + scale*out[i]/norm
		}
	default:
		copy(out, trained)
	}
	return out
}

// deltaNorm is the L2 norm of the honest training delta, the natural
// magnitude unit the scaled attacks calibrate against. Falls back to 1
// when training changed nothing, so the attacks never degenerate to a
// no-op.
func deltaNorm(received, trained []float64) float64 {
	var s float64
	for i := range trained {
		d := trained[i] - received[i]
		s += d * d
	}
	if s == 0 {
		return 1
	}
	return math.Sqrt(s)
}

// HandleModel is invoked when a server model reaches the client. It
// performs the real local training immediately (the simulator's wall-clock
// time is free) and schedules the reply after the client's modeled
// training delay. If the client is inside an absence window, training is
// postponed to the window's end, so the eventual update is based on a
// correspondingly stale model.
func (c *SimClient) HandleModel(params []float64, meta any, lr float64) {
	if c.CopyUpdates && c.Env.Sim.Now() < c.busyUntil {
		// A duplicated reply (or a redundant restart re-engagement)
		// arrived mid-cycle; starting a second overlapping cycle would
		// permanently double this client's update rate.
		return
	}
	c.Model.SetParams(params)
	c.Model.Train(c.Spec.Shard, c.Spec.Epochs, lr)
	// The honest update is the model's live parameter view, not a copy.
	// This is safe because every protocol in this repository only hands
	// this client a new model (the next SetParams/Train) after the server
	// has consumed the previous update: Spyker/FedAsync/FedBuff/
	// Sync-Spyker reply per processed update, and the round-based
	// protocols (FedAvg, HierFAVG) only start a round after aggregating
	// all pending updates. Spyker goes one step further and answers in
	// the view itself: its server writes the new model over the update it
	// consumed, so params below may BE this model's view, already holding
	// what SetParams would copy into it — parked between its update and
	// the reply, the client has no other use for the vector. The Byzantine,
	// codec and CopyUpdates paths below must therefore keep producing
	// vectors of their own: tamper reads params beside the trained view,
	// and a hardened client may retrain before its update is consumed.
	update := c.Model.ParamsView()
	if c.Spec.Byzantine != ByzantineNone {
		update = c.tamper(params, update)
	} else if c.CopyUpdates {
		// Owned copy: under failure injection this client may retrain
		// before the server consumed the previous update (the reply was
		// lost), which would mutate the in-flight view.
		update = append([]float64(nil), update...)
	}
	if c.Env.Codec != nil {
		// Lossy update compression: the server receives the decoded
		// reconstruction, not the exact parameters.
		update = c.Env.Codec.Roundtrip(update)
	}

	now := c.Env.Sim.Now()
	start := c.Spec.pauseUntil(now)
	sendAt := c.Spec.pauseUntil(start + c.Spec.TrainDelay)
	c.busyUntil = sendAt

	// Mint the update's causal ID at its origin. The counter advances
	// unconditionally — trace context is plain state, so enabling tracing
	// never changes the schedule.
	c.sent++
	uid := obs.UpdateUID(c.Spec.ID, c.sent)

	src := c.Env.ClientEndpoint(c.Spec.ID)
	dst := c.Env.ServerEndpoint(c.Spec.Server)
	c.Env.Sim.Schedule(sendAt-now, func() {
		c.Env.Net.SendTraced(src, dst, c.Env.ClientUpdateBytes(), geo.ClientServer, uid, func() {
			c.Deliver(c.Spec.ID, update, meta, uid)
		})
	})
}
