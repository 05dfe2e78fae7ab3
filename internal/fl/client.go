package fl

import (
	"math"
	"math/rand"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/simulation"
)

// SimClient is the simulated client actor shared by the asynchronous
// algorithms (Spyker, Sync-Spyker, FedAsync): whenever the server hands it
// a model it trains locally and, after its modeled training delay, sends
// the update back to its server. meta is echoed verbatim so the protocol
// can attach the number it needs (Spyker attaches the model age the update
// is based on, per Alg. 1 l. 10, FedAsync the model version).
type SimClient struct {
	Env   *Env
	Spec  ClientSpec
	Model Model
	// Deliver hands the trained parameters to the server actor once the
	// update message has arrived there. uid is the causal trace context
	// minted for this update at send time (obs.UpdateUID) — Spyker threads
	// it into the core so provenance events link client, message, and
	// merge; algorithms without lineage tracking ignore it.
	Deliver func(clientID int, update []float64, meta float64, uid obs.UID)

	// CopyUpdates hardens the client for failure injection: the trained
	// update is sent as an owned copy instead of a live parameter view,
	// and a model arriving while a previous one is still in its training
	// window is ignored. Both matter once servers crash: a restarted server
	// re-engages every client it has not heard from, one of them perhaps a
	// client whose next update is sent but not yet consumed. Sent as the
	// view, that update would be overwritten in flight by the SetParams of
	// the re-engaging model. And a duplicated reply would otherwise fork a
	// second training loop whose update aliases the first one's view.
	CopyUpdates bool

	attackRNG *rand.Rand
	sent      int64 // updates sent, the per-client UID sequence
	busyUntil float64

	// training is the local training in flight, if the model trains off
	// the event loop (see train); trainLR is its learning rate. The task
	// lives here and is reused so that an update allocates nothing for it.
	training simulation.Task
	trainLR  float64
}

// ClientModelSeed is the seed of client ci's own model in a deployment
// seeded seed. Every runtime derives it here — the six DES algorithms
// through NewSimClient, the live cluster and the separate OS processes of
// a multi-process run directly — so the same client starts from the same
// weights wherever it runs.
func ClientModelSeed(seed int64, ci int) int64 { return seed + int64(1000+ci) }

// NewSimClient makes the simulated client ci of the environment, homed at
// server (its spec's own for the multi-server algorithms, 0 for the
// single-server ones that collapse the deployment), with a model of its
// own and deliver as its Deliver.
func (e *Env) NewSimClient(ci, server int, deliver func(clientID int, update []float64, meta float64, uid obs.UID)) *SimClient {
	spec := e.Clients[ci]
	spec.Server = server
	return &SimClient{Env: e, Spec: spec, Model: e.NewModel(ClientModelSeed(e.Seed, ci)), Deliver: deliver}
}

// tamper replaces an honest update with the configured attack payload.
func (c *SimClient) tamper(received, trained []float64) []float64 {
	out := make([]float64, len(trained))
	switch c.Spec.Byzantine {
	case ByzantineSignFlip:
		// Reverse and amplify the honest training direction.
		for i := range out {
			out[i] = received[i] - float64(3*(trained[i]-received[i]))
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
		// Noise whose norm is five honest-deltas.
		pushAlong(out, received, c.attackRNG, 5*deltaNorm(received, trained))
	case ByzantineCollude:
		// All colluders derive the same direction from the same fixed seed
		// — deliberately NOT per-client — so their pushes add up instead of
		// cancelling.
		pushAlong(out, received, rand.New(rand.NewSource(424242)), 3*deltaNorm(received, trained))
	default:
		copy(out, trained)
	}
	return out
}

// pushAlong writes received plus a step of length scale along a direction
// drawn from rng into out: each component is drawn independently, then the
// whole vector is rescaled.
func pushAlong(out, received []float64, rng *rand.Rand, scale float64) {
	var norm float64
	for i := range out {
		out[i] = rng.NormFloat64()
		norm += float64(out[i] * out[i])
	}
	norm = math.Sqrt(norm)
	if norm == 0 {
		norm = 1
	}
	for i := range out {
		out[i] = received[i] + scale*out[i]/norm
	}
}

// deltaNorm is the L2 norm of the honest training delta, the natural
// magnitude unit the scaled attacks calibrate against. Falls back to 1
// when training changed nothing, so the attacks never degenerate to a
// no-op.
func deltaNorm(received, trained []float64) float64 {
	var s float64
	for i := range trained {
		d := trained[i] - received[i]
		s += float64(d * d)
	}
	if s == 0 {
		return 1
	}
	return math.Sqrt(s)
}

// HandleModel is invoked when a server model reaches the client. It
// starts the real local training at once (the simulator's wall-clock time
// is free) and schedules the reply after the client's modeled training
// delay. If the client is inside an absence window, training is postponed
// to the window's end, so the eventual update is based on a
// correspondingly stale model.
//
// Nothing reads the trained model before its update is delivered, one
// TrainDelay and one link latency of virtual time — many other clients'
// events — later, so the training of a model that can train in isolation
// (see Model) is detached from the event loop and joined where its result
// is first looked at. When it executes decides nothing: the send time
// comes from TrainDelay, the bits from the model's own state.
func (c *SimClient) HandleModel(params []float64, meta, lr float64) {
	if c.CopyUpdates && c.Env.Sim.Now() < c.busyUntil {
		// A duplicated reply (or a redundant restart re-engagement)
		// arrived mid-cycle; starting a second overlapping cycle would
		// permanently double this client's update rate. This return comes
		// before any join: a duplicate must stay a no-op, not a stall.
		return
	}
	// Join point 1: the model is about to be overwritten. Every protocol
	// here hands a client its next model only after consuming the previous
	// update, so this finds the task idle; it is what keeps a protocol
	// that does not from racing.
	c.training.Join()
	// SetParams stays on the loop: params is a borrow and may be the
	// server's live vector, valid only during this call.
	c.Model.SetParams(params)
	c.train(lr)
	// The honest update is the model's live parameter view, not a copy:
	// the header taken here is stable while Train runs, the contents are
	// read only after the join. Sending the view is safe because, as above,
	// the next SetParams/Train comes only after the server has consumed
	// this update: Spyker/FedAsync/FedBuff/Sync-Spyker reply per processed
	// update, and the round-based protocols (FedAvg, HierFAVG) only start
	// a round after aggregating all pending updates. Spyker goes one step
	// further and answers in the view itself: its server writes the new
	// model over the update it consumed, so params above may BE this
	// model's view, already holding what SetParams would copy into it —
	// parked between its update and the reply, the client has no other use
	// for the vector.
	update := c.Model.ParamsView()
	if c.Spec.Byzantine != ByzantineNone || c.CopyUpdates {
		// Join point 2: these paths read the trained vector now. Each must
		// keep producing a vector of its own: tamper reads params beside
		// the trained view, a hardened client may retrain before its
		// update is consumed.
		c.training.Join()
	}
	if c.Spec.Byzantine != ByzantineNone {
		update = c.tamper(params, update)
	} else if c.CopyUpdates {
		// Owned copy: under failure injection this client may retrain
		// before the server consumed the previous update (the reply was
		// lost), which would mutate the in-flight view.
		update = append([]float64(nil), update...)
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

	// The update leaves at sendAt for the server that is home now (Env's
	// sendUpdate); join point 3 is at its delivery (deliverUpdate).
	x := c.Env.wire()
	i, u := x.uploads.New()
	*u = upload{c: c, server: c.Spec.Server, params: update, meta: meta, uid: uid}
	c.Env.Sim.Post(sendAt-now, simulation.Job{Kind: x.send, Arg: i})
}

// train runs one local training on the model HandleModel just loaded:
// detached when the model says its Train keeps to itself, inline — exactly
// as before there was anything to detach to — for every other Model.
func (c *SimClient) train(lr float64) {
	if m, ok := c.Model.(isolatedTrainer); !ok || m.trainsIsolated() != c.Model {
		c.Model.Train(c.Spec.Shard, c.Spec.Epochs, lr)
		return
	}
	if c.training.Fn == nil {
		c.training.Fn = c.runTraining
	}
	c.trainLR = lr
	c.Env.Sim.Detach(&c.training)
}

// runTraining is the detached task's body; see Model for what it may touch.
func (c *SimClient) runTraining() {
	c.Model.Train(c.Spec.Shard, c.Spec.Epochs, c.trainLR)
}
