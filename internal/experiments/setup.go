// Package experiments assembles the paper's evaluation: it builds
// simulated geo-distributed deployments (datasets, models, topology,
// delays), runs any fl.Algorithm on them, and contains one entry point per
// table and figure of the paper (see DESIGN.md's per-experiment index).
package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"

	"github.com/spyker-fl/spyker/internal/data"
	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/metrics"
	"github.com/spyker-fl/spyker/internal/nn"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/simulation"
)

// Task selects the learning workload.
type Task int

// The three workloads of the paper's evaluation.
const (
	TaskMNIST Task = iota + 1 // MNIST-like image classification (CNN)
	TaskCIFAR                 // CIFAR-like image classification (deeper CNN)
	TaskWiki                  // WikiText-like char language modeling (LSTM)
)

// String implements fmt.Stringer.
func (t Task) String() string { return enumName("Task", int(t), "", "mnist", "cifar", "wikitext") }

// enumName is names[v], or kind(v) for a value outside the enumeration.
func enumName(kind string, v int, names ...string) string {
	if v >= 0 && v < len(names) && names[v] != "" {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", kind, v)
}

// trainDelayMean is the mean of every client's local-training delay in
// virtual seconds: the paper's 150 ms.
const trainDelayMean = 0.150

// Setup describes one experimental deployment.
type Setup struct {
	Task       Task
	NumServers int
	NumClients int
	// ClientsPerServer optionally overrides the even client split
	// (Tab. 7's imbalanced scenarios). Its entries must sum to NumClients.
	ClientsPerServer []int

	// NonIIDLabels > 0 gives each client that many labels (paper: l=2);
	// 0 means IID. Ignored for the text task, whose shards are contiguous
	// stretches of the stream (naturally non-IID).
	NonIIDLabels int

	// TrainDelayStd is the deviation of the per-client Gaussian training
	// delay around trainDelayMean (paper: N(150ms, 7.5ms); N(150ms, 60ms)
	// for Figs. 9-10). 0 means 7.5 ms.
	TrainDelayStd float64

	// CorrelatedSpeed makes client speed depend on the data a client
	// holds: clients whose labels fall in the lower half of the label
	// space train ~10x faster than the rest. This reproduces the failure
	// mode the learning-rate decay targets (fast clients biasing server
	// models toward their data distribution, Sec. 5.5) and is used by the
	// Fig. 11 ablation. Ignored for the text task.
	CorrelatedSpeed bool

	// SpreadClientRegions homes clients over all four AWS regions in
	// equal blocks regardless of the server count, and assigns each client
	// to the lowest-latency server with balancing. Without it, client
	// regions follow the servers (the paper's layout, where every
	// deployment has one server per region). Used by the server-count
	// scaling study so a 1-server deployment still faces geo-distributed
	// clients.
	SpreadClientRegions bool

	// Churn: ChurnFraction of the clients (spread evenly over servers)
	// go offline during [ChurnFrom, ChurnUntil) and resume afterwards,
	// sending updates based on models from before the outage.
	ChurnFraction float64
	ChurnFrom     float64
	ChurnUntil    float64

	// Latency overrides the network latency function (nil = AWS Tab. 4).
	Latency geo.LatencyFunc

	// DatasetScale scales the default dataset sizes; 0 means 1.0.
	DatasetScale float64

	Seed       int64
	EvalEvery  int     // updates between evaluations (default 25)
	TargetAcc  float64 // stop once reached (0 = run to horizon)
	MaxUpdates int     // stop after this many updates (0 = unlimited)
	Horizon    float64 // virtual-seconds budget (default 600)

	// Hyper overrides the default paper hyper-parameters when non-nil.
	Hyper *fl.Hyper

	// Faults declares a failure-injection plan (internal/fault): crashes,
	// token drops, partitions, lossy links. Run arms an injector for it
	// when the algorithm supports injection (Spyker does). Nil — the
	// default — leaves the schedule byte-identical to a pre-fault run;
	// see TestFaultPlumbingDoesNotPerturbSimulation.
	Faults *fault.Plan

	// Trace receives protocol and network events from the run
	// (internal/obs); nil disables tracing. Sinks are passive, so the
	// simulated schedule is identical with and without one (see
	// TestTracingDoesNotPerturbSimulation).
	Trace obs.Sink
	// Audit arms the per-client contribution audit plane
	// (internal/obs/audit) on every server; verdicts are emitted as
	// KindAudit events into Trace. False disables auditing entirely —
	// like Trace, the audit plane is passive and leaves the schedule
	// byte-identical (see TestAuditDoesNotPerturbSimulation).
	Audit bool
	// Metrics collects runtime counters/histograms; nil creates a
	// private registry. When tracing is enabled the event stream is also
	// bridged into the registry (staleness distribution, sync durations,
	// byte totals) via obs.NewMetricsSink.
	Metrics *obs.Registry
}

// withDefaults fills unset fields.
func (s Setup) withDefaults() Setup {
	if s.NumServers == 0 {
		s.NumServers = 4
	}
	if s.NumClients == 0 {
		s.NumClients = 100
	}
	if s.TrainDelayStd == 0 {
		s.TrainDelayStd = 0.0075
	}
	if s.DatasetScale == 0 {
		s.DatasetScale = 1
	}
	if s.EvalEvery == 0 {
		s.EvalEvery = 25
	}
	if s.Horizon == 0 {
		s.Horizon = 600
	}
	return s
}

// workload bundles the dataset-specific pieces of an environment.
type workload struct {
	factory fl.ModelFactory
	shards  [][]int
	// labelOf reports a representative label for a client's shard (nil
	// for the text task); used by the CorrelatedSpeed option.
	labelOf func(client int) int
}

// buildWorkload materializes the task's dataset and model factory and
// splits the data over clients.
func buildWorkload(s Setup) workload {
	switch s.Task {
	case TaskMNIST:
		return buildMNIST(s)
	case TaskCIFAR:
		return buildCIFAR(s)
	case TaskWiki:
		return buildWiki(s)
	default:
		panic(fmt.Sprintf("experiments: unknown task %v", s.Task))
	}
}

func scale(base int, f float64) int {
	n := int(float64(base) * f)
	if n < 1 {
		n = 1
	}
	return n
}

func buildMNIST(s Setup) workload {
	train := scale(10*s.NumClients, s.DatasetScale)
	ds := data.GenerateImages(data.MNISTLike(train, 300, s.Seed))
	factory := func(seed int64) fl.Model { return fl.NewMNISTClassifier(ds, 6, 32, seed) }
	return imageWorkload(ds, s, factory)
}

func buildCIFAR(s Setup) workload {
	train := scale(10*s.NumClients, s.DatasetScale)
	ds := data.GenerateImages(data.CIFARLike(train, 300, s.Seed))
	factory := func(seed int64) fl.Model {
		rng := rand.New(rand.NewSource(seed))
		ch, h, w := ds.Shape()
		conv1 := nn.NewConv2D(ch, h, w, 6, 3, rng)  // 6 x 10 x 10
		conv2 := nn.NewConv2D(6, 10, 10, 8, 3, rng) // 8 x 8 x 8
		pool := nn.NewMaxPool2D(8, 8, 8)            // 8 x 4 x 4
		net := nn.NewNetwork(
			conv1,
			nn.NewReLU(conv1.OutSize()),
			conv2,
			nn.NewReLU(conv2.OutSize()),
			pool,
			nn.NewDense(pool.OutSize(), 32, rng),
			nn.NewReLU(32),
			nn.NewDense(32, ds.NumClasses(), rng),
		)
		return fl.NewClassifier(net, ds, ds.TestSet(), 10, seed)
	}
	return imageWorkload(ds, s, factory)
}

// imageWorkload splits an image dataset over the setup's clients.
func imageWorkload(ds *data.Images, s Setup, factory fl.ModelFactory) workload {
	shards := imageShards(ds, s)
	return workload{factory: factory, shards: shards, labelOf: shardLabeler(ds, shards)}
}

func imageShards(ds data.Classification, s Setup) [][]int {
	if s.NonIIDLabels > 0 {
		return data.PartitionByLabel(ds, s.NumClients, s.NonIIDLabels, s.Seed+7)
	}
	return data.PartitionIID(ds.Len(), s.NumClients, s.Seed+7)
}

// shardLabeler returns a function mapping a client to the first label of
// its shard.
func shardLabeler(ds data.Classification, shards [][]int) func(int) int {
	return func(client int) int {
		if client >= len(shards) || len(shards[client]) == 0 {
			return 0
		}
		return ds.Label(shards[client][0])
	}
}

func buildWiki(s Setup) workload {
	// Eight training windows per client keeps one local epoch around the
	// same compute budget as the vision tasks.
	windowsWanted := 8 * s.NumClients
	cfg := data.WikiTextLike(0, 1024, s.Seed)
	cfg.Length = windowsWanted*(cfg.Window/2) + cfg.Window + 1
	cfg.Length = scale(cfg.Length, s.DatasetScale)
	txt := data.GenerateText(cfg)

	factory := func(seed int64) fl.Model {
		rng := rand.New(rand.NewSource(seed))
		lm := nn.NewCharLM(txt.Vocab(), 8, 16, rng)
		return fl.NewLanguageModel(lm, txt, seed)
	}

	// Contiguous shards: each client models a different stretch of the
	// stream, the natural non-IIDness of federated text.
	n := txt.Len()
	shards := make([][]int, s.NumClients)
	per := n / s.NumClients
	if per < 1 {
		per = 1
	}
	for c := 0; c < s.NumClients; c++ {
		lo := c * per
		hi := lo + per
		if c == s.NumClients-1 {
			hi = n
		}
		if lo >= n {
			lo, hi = n-1, n
		}
		for i := lo; i < hi; i++ {
			shards[c] = append(shards[c], i)
		}
	}
	return workload{factory: factory, shards: shards}
}

// collectedAt is simulation.RunsReturned at collectAfterRuns' last GC.
var collectedAt atomic.Uint64

// collectAfterRuns collects garbage before an environment is built if a
// simulation has run since it last did. A process that builds and runs
// environments one after another (spyker-bench's studies, repeated runs)
// otherwise holds two whenever a GC cycle lands while the previous run is
// still live: that cycle sets the heap goal to twice a whole environment,
// and the dead one stays resident until the next grows into it. Set-ups
// with no run in between add no collection.
func collectAfterRuns() {
	if n := simulation.RunsReturned(); collectedAt.Swap(n) != n {
		runtime.GC()
	}
}

// BuildEnv constructs the full simulation environment for a setup. It is
// exported so examples and tests can assemble custom runs.
func BuildEnv(s Setup) (*fl.Env, *metrics.Recorder, error) {
	s = s.withDefaults()
	if s.NumServers < 1 || s.NumClients < s.NumServers {
		return nil, nil, fmt.Errorf("experiments: bad topology %d servers / %d clients",
			s.NumServers, s.NumClients)
	}
	perServer := s.ClientsPerServer
	if perServer == nil {
		perServer = evenSplit(s.NumClients, s.NumServers)
	}
	if len(perServer) != s.NumServers {
		return nil, nil, fmt.Errorf("experiments: ClientsPerServer has %d entries for %d servers",
			len(perServer), s.NumServers)
	}
	total := 0
	for _, c := range perServer {
		total += c
	}
	if total != s.NumClients {
		return nil, nil, fmt.Errorf("experiments: ClientsPerServer sums to %d, want %d",
			total, s.NumClients)
	}

	collectAfterRuns()
	sim := simulation.New()
	net := geo.NewNetwork(sim, geo.Config{Latency: s.Latency})
	wl := buildWorkload(s)

	hyper := fl.DefaultHyper(s.NumClients, s.NumServers)
	if s.Hyper != nil {
		hyper = *s.Hyper
	}

	// Home region per client: contiguous geo blocks of perServer sizes
	// (client k lives next to geo server k's region, the paper's layout),
	// or equal blocks over all four regions when SpreadClientRegions is
	// set.
	regionOf := make([]geo.Region, 0, s.NumClients)
	if s.SpreadClientRegions {
		blocks := evenSplit(s.NumClients, len(geo.Regions))
		for ri, n := range blocks {
			for k := 0; k < n; k++ {
				regionOf = append(regionOf, geo.Regions[ri])
			}
		}
	} else {
		for si := 0; si < s.NumServers; si++ {
			region := geo.Regions[si%len(geo.Regions)]
			for k := 0; k < perServer[si]; k++ {
				regionOf = append(regionOf, region)
			}
		}
	}

	serverOf := assignServers(s, perServer, regionOf)

	rng := rand.New(rand.NewSource(s.Seed + 99))
	servers := make([]fl.ServerSpec, s.NumServers)
	for si := range servers {
		servers[si] = fl.ServerSpec{ID: si, Region: geo.Regions[si%len(geo.Regions)]}
	}
	clients := make([]fl.ClientSpec, 0, s.NumClients)
	for ci := 0; ci < s.NumClients; ci++ {
		delay := trainDelayMean + float64(rng.NormFloat64()*s.TrainDelayStd)
		if s.CorrelatedSpeed && wl.labelOf != nil {
			// Clients holding low labels are fast, the rest slow (both
			// image tasks have 10 classes); see the Setup field docs.
			if wl.labelOf(ci) < 5 {
				delay *= 0.25
			} else {
				delay *= 2.50
			}
		}
		if delay < 0.010 {
			delay = 0.010
		}
		spec := fl.ClientSpec{
			ID:         ci,
			Region:     regionOf[ci],
			Server:     serverOf[ci],
			Shard:      wl.shards[ci],
			TrainDelay: delay,
			Epochs:     hyper.LocalEpochs,
		}
		if s.ChurnFraction > 0 && s.ChurnUntil > s.ChurnFrom {
			// Every stride-th client churns; the contiguous geo layout
			// spreads them over all servers.
			stride := int(1 / s.ChurnFraction)
			if stride < 1 {
				stride = 1
			}
			if ci%stride == 0 {
				spec.Absences = []fl.Absence{{From: s.ChurnFrom, Until: s.ChurnUntil}}
			}
		}
		clients = append(clients, spec)
		servers[serverOf[ci]].Clients = append(servers[serverOf[ci]].Clients, ci)
	}

	evalModel := wl.factory(s.Seed)
	rec := metrics.NewRecorder(sim, evalModel, s.EvalEvery)
	rec.TargetAcc = s.TargetAcc
	rec.MaxUpdate = s.MaxUpdates

	reg := s.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// The metrics bridge rides along whenever tracing is on, so a traced
	// run also fills the registry's protocol metrics.
	sink := obs.Sink(obs.Nop{})
	if s.Trace != nil && s.Trace.Enabled() {
		sink = obs.Multi(s.Trace, obs.NewMetricsSink(reg))
	}
	net.Instrument(sink)

	env := &fl.Env{
		Sim:        sim,
		Net:        net,
		Servers:    servers,
		Clients:    clients,
		NewModel:   wl.factory,
		ModelBytes: fl.ModelWireBytes(evalModel.NumParams()),
		Hyper:      hyper,
		Observer:   rec,
		Seed:       s.Seed,
		Trace:      sink,
		Metrics:    reg,
		Faults:     s.Faults,
		Audit:      s.Audit,
	}
	return env, rec, nil
}

// assignServers maps each client to a server: its nearest one, the
// paper's rule.
func assignServers(s Setup, perServer []int, regionOf []geo.Region) []int {
	if s.SpreadClientRegions {
		// Nearest server by latency, balanced: among the servers with the
		// lowest latency from the client's region, pick the least loaded
		// one (geo.NearestBalanced, shared with elastic client re-homing).
		servers := make([]int, s.NumServers)
		for si := range servers {
			servers[si] = si
		}
		return geo.NearestBalanced(regionOf[:s.NumClients], servers,
			func(si int) geo.Region { return geo.Regions[si%len(geo.Regions)] },
			geo.AWSLatency, nil)
	}
	serverOf := make([]int, 0, s.NumClients)
	for si := range perServer {
		for k := 0; k < perServer[si]; k++ {
			serverOf = append(serverOf, si)
		}
	}
	return serverOf
}

func evenSplit(total, parts int) []int {
	out := make([]int, parts)
	base := total / parts
	rem := total % parts
	for i := range out {
		out[i] = base
		if i < rem {
			out[i]++
		}
	}
	return out
}
