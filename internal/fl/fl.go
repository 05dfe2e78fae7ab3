// Package fl defines the common vocabulary shared by every federated
// learning algorithm in this repository: the trainable-model abstraction,
// client and server specifications, hyper-parameters (paper Tab. 2 and
// Tab. 3), the simulation environment handed to algorithms, and the
// processing-queue primitive that models server occupancy and produces the
// queueing behaviour studied in paper Fig. 9.
package fl

import (
	"fmt"

	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/simulation"
)

// Model is a trainable model bound to its datasets. Federated algorithms
// only ever see flat parameter vectors; Train and Evaluate hide the
// task-specific details (CNN classification or LSTM language modeling).
//
// A model belongs to one goroutine at a time. The simulated client goes
// further for the two models of this package (see isolatedTrainer): their
// Train touches nothing but the model's own state — parameters, gradient
// and scratch planes, its RNG — and data nobody writes, so it may run on
// another goroutine while the event loop carries on, as long as nothing
// else uses the model until the training has been joined. Any other
// implementation is trained on the event loop and need promise nothing.
type Model interface {
	// NumParams reports the flat parameter count.
	NumParams() int
	// Params returns a copy of the parameters as one flat vector.
	Params() []float64
	// ParamsView returns the live flat parameter vector as a read-only
	// borrow: callers must not modify it, and its contents are only valid
	// until the model's next SetParams or Train. It exists so the hot
	// exchange paths can serialize or merge a model without first copying
	// it; anything retained longer must be copied (use Params). For a
	// model trained off the event loop the slice header is stable while
	// Train runs — it may be taken then — but the contents are read only
	// after the training has been joined.
	ParamsView() []float64
	// SetParams loads a flat parameter vector.
	SetParams(p []float64)
	// Train runs the given number of local epochs of SGD at rate lr over
	// the examples indexed by shard.
	Train(shard []int, epochs int, lr float64)
	// Evaluate returns the held-out average loss and accuracy. For
	// language models the accuracy is next-character accuracy and
	// exp(loss) is the perplexity.
	Evaluate() (loss, acc float64)
}

// ModelFactory builds an independent model instance. Each client and each
// server owns one; seed controls weight initialization.
type ModelFactory func(seed int64) Model

// Byzantine selects a client's attack behaviour; honest clients use
// ByzantineNone.
type Byzantine int

// Attack kinds of the Byzantine extension.
const (
	// ByzantineNone is an honest client.
	ByzantineNone Byzantine = iota
	// ByzantineSignFlip sends the received model minus three times the
	// honest update direction — model poisoning that actively reverses
	// training progress.
	ByzantineSignFlip
	// ByzantineNoise sends the received model plus large random noise.
	ByzantineNoise
	// ByzantineScaledNoise sends the received model plus Gaussian noise
	// scaled to five times the honest update's norm, so the attack tracks
	// the natural update magnitude instead of a fixed scale — large enough
	// to poison, small enough that magnitude-based outlier rejection alone
	// does not flag it the way ByzantineNoise's fixed unit noise is.
	ByzantineScaledNoise
	// ByzantineCollude makes every colluding client push the model along
	// the SAME fixed pseudo-random direction, three honest-norms per
	// update. Unlike independent noise, correlated attacks do not average
	// out across attackers, which is what makes collusion the harder case
	// for aggregation defenses.
	ByzantineCollude
)

// Absence is a window of virtual time during which a client is offline
// (device asleep, network partition, user churn). A client that receives
// a model right before or during an absence resumes training when the
// window ends and then sends a correspondingly stale update — the
// situation Spyker's staleness weighting is built for.
type Absence struct {
	From  float64 // inclusive, seconds
	Until float64 // exclusive, seconds
}

// ClientSpec describes one simulated client.
type ClientSpec struct {
	ID         int
	Region     geo.Region
	Server     int     // index into Env.Servers of the assigned server
	Shard      []int   // example indices of the client's local dataset
	TrainDelay float64 // seconds one local training takes on this client
	Epochs     int     // local epochs per update
	// Absences lists offline windows in increasing order.
	Absences []Absence
	// Byzantine selects the client's attack behaviour (default honest).
	Byzantine Byzantine
}

// pauseUntil returns the time at which a client that is ready to work at
// time t can actually proceed, skipping any absence windows containing t.
func (c *ClientSpec) pauseUntil(t float64) float64 {
	for _, a := range c.Absences {
		if t >= a.From && t < a.Until {
			t = a.Until
		}
	}
	return t
}

// ServerSpec describes one simulated server.
type ServerSpec struct {
	ID      int
	Region  geo.Region
	Clients []int // indices into Env.Clients
}

// Hyper collects every tunable of the paper (Tab. 2), the benchmarked
// processing delays (Tab. 3), and a few baseline-specific knobs.
type Hyper struct {
	// Client-side training.
	ClientLR    float64 // initial local learning rate eta_k (paper: 0.05)
	LocalEpochs int     // T_k

	// Spyker client-update aggregation (Alg. 1).
	EtaServer float64 // eta_i, server aggregation rate for client updates (0.6)

	// Spyker server-model aggregation (Alg. 2).
	Phi  float64 // sigmoid activation rate (1.5)
	EtaA float64 // server-server aggregation rate eta_a (0.6)

	// Spyker synchronization triggers.
	HInter float64 // age-drift threshold between servers (n_C/(5n))
	HIntra float64 // age-drift threshold since last synchronization (350)

	// Learning-rate decay (Sec. 4.1). Beta is the exponent of the
	// hyperbolic contribution-equalizing rule lr = base*(uBar/u_k)^Beta
	// (see spyker.DecayRate for why the paper's linear rule is replaced);
	// EtaMin floors the rate.
	DecayEnabled bool
	Beta         float64 // 1 = exact contribution equalization
	EtaMin       float64 // 1e-6

	// FedAsync staleness weighting: alpha * (1+staleness)^(-StalenessExp).
	Alpha        float64 // 0.5
	StalenessExp float64 // 0.5

	// HierFAVG: edge rounds between two cloud aggregations.
	HierEdgeRounds int

	// Sync-Spyker: virtual seconds between synchronous server exchanges.
	SyncPeriod float64

	// RobustClipFactor > 0 enables Byzantine-robust norm clipping of
	// client-update deltas in Spyker (see spyker.Config.RobustClipFactor).
	RobustClipFactor float64

	// Token-loss recovery (see spyker.Config.TokenTimeout and
	// spyker.Config.SyncRetry). Both default to 0 = disabled, which keeps
	// fault-free schedules byte-identical to pre-recovery runs.
	TokenTimeout float64 // ring-silence seconds before token regeneration
	SyncRetry    float64 // stuck-round seconds before the holder rebroadcasts

	// Processing delays in seconds (paper Tab. 3).
	ProcSpyker     float64 // 2 ms
	ProcSyncSpyker float64 // 2 ms
	ProcFedAvg     float64 // 15 ms
	ProcHier       float64 // 15 ms
	ProcFedAsync   float64 // 2 ms
}

// DefaultHyper returns the paper's parameter values (Tab. 2 and Tab. 3)
// for a deployment with numClients clients and numServers servers.
func DefaultHyper(numClients, numServers int) Hyper {
	return Hyper{
		ClientLR:    0.05,
		LocalEpochs: 1,
		EtaServer:   0.6,
		Phi:         1.5,
		EtaA:        0.6,
		HInter:      float64(numClients) / (5 * float64(numServers)),
		HIntra:      350,

		DecayEnabled: true,
		Beta:         1,
		EtaMin:       1e-6,

		Alpha:        0.5,
		StalenessExp: 0.5,

		HierEdgeRounds: 2,
		SyncPeriod:     5,

		ProcSpyker:     0.002,
		ProcSyncSpyker: 0.002,
		ProcFedAvg:     0.015,
		ProcHier:       0.015,
		ProcFedAsync:   0.002,
	}
}

// Observer receives progress callbacks from the running algorithm. The
// experiment harness implements it to record traces and stop runs.
type Observer interface {
	// ClientUpdateProcessed fires after a server has merged one client
	// update. models must return the current parameter vectors of all
	// server models (live slices, in a slice that may be reused by the
	// next call; the observer copies what it keeps).
	ClientUpdateProcessed(now float64, server, client int, models func() [][]float64)
	// QueueLength fires whenever a server's jobs-in-system count changes:
	// twice per processed job, so a trace of it grows with the run.
	QueueLength(now float64, server, length int)
}

// NopObserver is an Observer that ignores everything; useful in tests.
type NopObserver struct{}

// ClientUpdateProcessed implements Observer.
func (NopObserver) ClientUpdateProcessed(float64, int, int, func() [][]float64) {}

// QueueLength implements Observer.
func (NopObserver) QueueLength(float64, int, int) {}

// Env is everything an algorithm needs to build its actors on the
// simulator.
type Env struct {
	Sim        *simulation.Sim
	Net        *geo.Network
	Servers    []ServerSpec
	Clients    []ClientSpec
	NewModel   ModelFactory
	ModelBytes int // wire size of one model or update message
	// ServerProcMult scales per-server processing delays (see ProcFor).
	ServerProcMult []float64
	Hyper          Hyper
	Observer       Observer
	Seed           int64

	// Trace receives protocol events from the algorithm's actors
	// (internal/obs); Validate installs the no-op sink when nil, so
	// instrumentation sites can emit unconditionally behind an Enabled
	// check. Sinks only record — they never perturb the schedule.
	Trace obs.Sink
	// Pool recycles model-sized buffers across the simulation's actors —
	// the shared parameter-vector memory plane. Validate installs one when
	// nil. Buffers handed out by it must be fully overwritten before use
	// and returned exactly once.
	Pool *paramvec.Pool

	// Faults, when non-nil, declares the failure-injection plan for this
	// run (internal/fault). The message glue has one path either way —
	// loss and duplication are ordinary input to it — so the only switch
	// it flips is SimClient.CopyUpdates, which Spyker sets when it sees a
	// plan. Nil (the default) leaves the event schedule untouched.
	Faults *fault.Plan

	// x is the typed-event plumbing of the clients' messages (wire).
	x *exchange
}

// ProcFor returns server's processing delay for a job whose Tab. 3
// baseline is base: base scaled by ServerProcMult[server] when the
// environment sets one (index = server ID; nil, missing or <= 0 = the
// baseline). It models heterogeneous server hardware — the
// straggler-server study puts a slow machine under one server.
func (e *Env) ProcFor(server int, base float64) float64 {
	if server < len(e.ServerProcMult) && e.ServerProcMult != nil {
		if m := e.ServerProcMult[server]; m > 0 {
			return base * m
		}
	}
	return base
}

// Validate checks structural consistency of the environment.
func (e *Env) Validate() error {
	if e.Sim == nil || e.Net == nil || e.NewModel == nil {
		return fmt.Errorf("fl: env missing sim, net, or model factory")
	}
	if len(e.Servers) == 0 || len(e.Clients) == 0 {
		return fmt.Errorf("fl: env needs at least one server and one client")
	}
	for _, s := range e.Servers {
		for _, c := range s.Clients {
			if c < 0 || c >= len(e.Clients) {
				return fmt.Errorf("fl: server %d references unknown client %d", s.ID, c)
			}
			if e.Clients[c].Server != s.ID {
				return fmt.Errorf("fl: client %d not assigned back to server %d", c, s.ID)
			}
		}
	}
	if e.Observer == nil {
		e.Observer = NopObserver{}
	}
	if e.Trace == nil {
		e.Trace = obs.Nop{}
	}
	if e.Pool == nil {
		e.Pool = &paramvec.Pool{}
	}
	return nil
}

// Algorithm is a federated-learning protocol that can be instantiated on
// an Env. Build wires up all actors and schedules the initial events; the
// caller then drives Env.Sim.
type Algorithm interface {
	Name() string
	Build(env *Env) error
}

// ModelWireBytes estimates the wire size of a model message carrying n
// float64 parameters plus framing/metadata overhead.
func ModelWireBytes(n int) int { return 8*n + 64 }

// AgeWireBytes is the wire size of an age-announcement message.
const AgeWireBytes = 24

// TokenWireBytes estimates the wire size of the Spyker token for n servers.
func TokenWireBytes(n int) int { return 16 + 8*n }

// Endpoint builds the geo endpoint of server s. Server IDs are kept in a
// distinct ID space from clients by the obs.ServerNode offset, so message
// traces name nodes unambiguously.
func (e *Env) ServerEndpoint(s int) geo.Endpoint {
	return geo.Endpoint{ID: obs.ServerNode + s, Region: e.Servers[s].Region}
}

// ClientEndpoint builds the geo endpoint of client c.
func (e *Env) ClientEndpoint(c int) geo.Endpoint {
	return geo.Endpoint{ID: c, Region: e.Clients[c].Region}
}
