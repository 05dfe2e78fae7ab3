package experiments

import (
	"fmt"

	"github.com/spyker-fl/spyker/internal/baselines"
	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/metrics"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// Result is the outcome of one algorithm run on one setup.
type Result struct {
	Algorithm string
	Trace     metrics.Trace
	Queues    map[int]metrics.QueueTrace
	// ClientUpdateCounts[i] is how many updates client i contributed.
	ClientUpdateCounts []float64
	BytesClientServer  int
	BytesServerServer  int
	// BandwidthSeries samples cumulative total bytes at ten evenly spaced
	// virtual times across the run (paper Fig. 12 plots traffic over time).
	BandwidthSeries []int
	FinalTime       float64
	Updates         int
	ReachedTarget   bool
	TimeToTarget    float64

	cores       []*spyker.ServerCore // Spyker's post-run protocol state, for the fault studies
	faultEvents int                  // fault-plan events actually applied
}

// NewAlgorithm instantiates an algorithm by its paper name. Valid names:
// "spyker", "spyker-nodecay", "sync-spyker", "fedavg", "fedasync",
// "hierfavg", and the extension baseline "fedbuff".
func NewAlgorithm(name string) (fl.Algorithm, error) {
	switch name {
	case "spyker":
		return &spyker.Algorithm{}, nil
	case "spyker-nodecay":
		return &spyker.Algorithm{DisableDecay: true}, nil
	case "sync-spyker":
		return &baselines.SyncSpyker{}, nil
	case "fedavg":
		return &baselines.FedAvg{}, nil
	case "fedasync":
		return &baselines.FedAsync{}, nil
	case "hierfavg":
		return &baselines.HierFAVG{}, nil
	case "fedbuff":
		return &baselines.FedBuff{}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown algorithm %q", name)
	}
}

// ComparisonAlgorithms is the paper's five-way comparison set in the order
// figures list them.
var ComparisonAlgorithms = []string{"fedavg", "fedasync", "hierfavg", "spyker", "sync-spyker"}

// Run executes one algorithm on one setup and collects every measurement.
func Run(algName string, s Setup) (*Result, error) { return runPrepared(algName, s, nil) }

// runPrepared is the harness every DES study shares: build the
// environment, let prepare (nil for none) adjust it, build the algorithm on
// it, arm the setup's fault plan if it has one, run the event loop to the
// horizon, and collect every measurement.
func runPrepared(algName string, s Setup, prepare func(*fl.Env)) (*Result, error) {
	alg, err := NewAlgorithm(algName)
	if err != nil {
		return nil, err
	}
	env, rec, err := BuildEnv(s)
	if err != nil {
		return nil, err
	}
	if prepare != nil {
		prepare(env)
	}
	if err := alg.Build(env); err != nil {
		return nil, fmt.Errorf("build %s: %w", alg.Name(), err)
	}
	var inj *fault.SimInjector
	if env.Faults != nil {
		cl, ok := alg.(fault.Cluster)
		if !ok {
			return nil, fmt.Errorf("experiments: %s does not support failure injection", alg.Name())
		}
		inj, err = fault.NewSimInjector(*env.Faults, env.Sim, env.Net, cl)
		if err != nil {
			return nil, err
		}
		inj.Instrument(env.Trace)
		inj.Arm()
	}
	final := env.Sim.Run(s.withDefaults().Horizon)

	series := make([]int, 10)
	for i := range series {
		t := final * float64(i+1) / float64(len(series))
		series[i] = env.Net.BytesUntil(t)
	}

	reached, at := rec.Reached()
	res := &Result{
		Algorithm:          alg.Name(),
		Trace:              rec.TraceData,
		Queues:             rec.QueueData,
		ClientUpdateCounts: rec.UpdateCountSamples(len(env.Clients)),
		BytesClientServer:  env.Net.TotalBytes(geo.ClientServer),
		BytesServerServer:  env.Net.TotalBytes(geo.ServerServer),
		BandwidthSeries:    series,
		FinalTime:          final,
		Updates:            rec.Updates(),
		ReachedTarget:      reached,
		TimeToTarget:       at,
	}
	if sp, ok := alg.(*spyker.Algorithm); ok {
		res.cores = sp.Servers()
	}
	if inj != nil {
		res.faultEvents = inj.Injected()
	}
	return res, nil
}
