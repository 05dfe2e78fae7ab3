package live

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
)

// ClusterConfig describes a local live deployment: n servers on ephemeral
// localhost ports, each serving an equal share of the clients.
type ClusterConfig struct {
	NumServers int
	NumClients int
	Hyper      fl.Hyper
	NewModel   fl.ModelFactory
	Shards     [][]int // one shard per client
	Seed       int64

	// PeerLatency/ClientLatency inject one-way link delays so a localhost
	// deployment behaves like a geo-distributed one.
	PeerLatency   time.Duration
	ClientLatency time.Duration

	// Trace receives every server's protocol and message events
	// (internal/obs); nil disables tracing. Metrics, when non-nil, collects
	// runtime counters/gauges/histograms from all servers into one
	// registry.
	Trace   obs.Sink
	Metrics *obs.Registry
	// Audit arms the per-client contribution audit plane
	// (internal/obs/audit) on every server; verdicts land in Trace as
	// KindAudit events.
	Audit bool

	// StatsEvery > 0 logs a one-line per-server stats snapshot to StatsOut
	// at that period while the cluster runs (StatsOut nil = discard).
	StatsEvery time.Duration
	StatsOut   io.Writer
}

// ClusterStats summarizes a finished live run.
type ClusterStats struct {
	UpdatesPerServer []int
	ClientUpdates    []int
	SyncsTriggered   int
	FinalAges        []float64
	FinalParams      [][]float64 // final model of every server
	// ModelSpread is the maximum pairwise L2 distance between final
	// server models, a measure of how well the asynchronous exchange kept
	// them together.
	ModelSpread float64
}

// EvaluateAverage loads the average of the final server models into model
// and returns its held-out loss and accuracy: the run's global model.
func (s ClusterStats) EvaluateAverage(model fl.Model) (loss, acc float64) {
	avg := make([]float64, len(s.FinalParams[0]))
	for _, p := range s.FinalParams {
		for i, v := range p {
			avg[i] += v / float64(len(s.FinalParams))
		}
	}
	model.SetParams(avg)
	return model.Evaluate()
}

// HomeOf is the live runtime's client-placement rule: the deployment's
// clients home at its n servers in contiguous blocks of clients/n, and the
// last server also takes the remainder. Separate OS processes
// (spyker-live -role server / -role clients) must agree on it, so it is
// written here once; clients >= n >= 1.
func HomeOf(ci, clients, n int) int {
	return min(ci/(clients/n), n-1)
}

// ClientsAt reports how many of the deployment's clients home at server
// under HomeOf's rule.
func ClientsAt(server, clients, n int) int {
	if server == n-1 {
		return clients - (clients/n)*(n-1)
	}
	return clients / n
}

// TotalUpdates sums the per-server update counts.
func (s ClusterStats) TotalUpdates() int {
	total := 0
	for _, u := range s.UpdatesPerServer {
		total += u
	}
	return total
}

// RunCluster spins up the deployment, lets it train for the given real
// duration, shuts everything down, and reports statistics. It is used by
// the livetcp example and the live integration tests.
func RunCluster(cfg ClusterConfig, duration time.Duration) (*ClusterStats, error) {
	if cfg.NumServers < 1 || cfg.NumClients < cfg.NumServers {
		return nil, fmt.Errorf("live: bad cluster shape %d/%d", cfg.NumServers, cfg.NumClients)
	}
	if len(cfg.Shards) != cfg.NumClients {
		return nil, fmt.Errorf("live: %d shards for %d clients", len(cfg.Shards), cfg.NumClients)
	}

	initial := cfg.NewModel(cfg.Seed).Params()

	// Compose the observability sink shared by all servers: the caller's
	// trace plus (when a registry is given) a metrics deriver, so counters
	// like staleness and byte totals fill automatically from the events.
	sink := obs.Sink(nil)
	if cfg.Trace != nil || cfg.Metrics != nil {
		if cfg.Metrics != nil {
			sink = obs.Multi(cfg.Trace, obs.NewMetricsSink(cfg.Metrics))
		} else {
			sink = cfg.Trace
		}
	}

	servers := make([]*Server, cfg.NumServers)
	addrs := make([]string, cfg.NumServers)
	for i := range servers {
		score := ServerConfig(i, cfg.NumServers, ClientsAt(i, cfg.NumClients, cfg.NumServers), cfg.Hyper)
		srv, err := NewServer(i, "127.0.0.1:0", score, initial, i == 0)
		if err != nil {
			closeAll(servers[:i])
			return nil, err
		}
		srv.InjectLatency(cfg.PeerLatency, cfg.ClientLatency)
		if sink != nil || cfg.Metrics != nil {
			srv.Instrument(sink, cfg.Metrics)
		}
		if cfg.Audit {
			srv.ArmAudit()
		}
		if tick := score.TickPeriod(); tick > 0 {
			srv.StartTokenTicker(time.Duration(tick * float64(time.Second)))
		}
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	for _, srv := range servers {
		if err := srv.ConnectPeers(addrs); err != nil {
			closeAll(servers)
			return nil, err
		}
	}

	clients := make([]*Client, cfg.NumClients)
	var wg sync.WaitGroup
	for ci := 0; ci < cfg.NumClients; ci++ {
		c := &Client{
			ID:     ci,
			Model:  cfg.NewModel(fl.ClientModelSeed(cfg.Seed, ci)),
			Shard:  cfg.Shards[ci],
			Epochs: cfg.Hyper.LocalEpochs,
		}
		clients[ci] = c
		addr := addrs[HomeOf(ci, cfg.NumClients, cfg.NumServers)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = c.Run(addr)
		}()
	}

	// Periodic one-line stats log, the live runtime's progress heartbeat.
	stopStats := make(chan struct{})
	var statsWG sync.WaitGroup
	if cfg.StatsEvery > 0 && cfg.StatsOut != nil {
		statsWG.Add(1)
		go func() {
			defer statsWG.Done()
			tick := time.NewTicker(cfg.StatsEvery)
			defer tick.Stop()
			for {
				select {
				case <-stopStats:
					return
				case <-tick.C:
					for _, srv := range servers {
						fmt.Fprintln(cfg.StatsOut, srv.StatsLine())
					}
				}
			}
		}()
	}

	time.Sleep(duration)
	close(stopStats)
	statsWG.Wait()
	closeAll(servers)
	wg.Wait()

	stats := &ClusterStats{
		UpdatesPerServer: make([]int, cfg.NumServers),
		ClientUpdates:    make([]int, cfg.NumClients),
		FinalAges:        make([]float64, cfg.NumServers),
	}
	finals := make([][]float64, cfg.NumServers)
	for i, srv := range servers {
		stats.UpdatesPerServer[i] = srv.Updates()
		stats.SyncsTriggered += srv.SyncsTriggered()
		stats.FinalAges[i] = srv.Age()
		finals[i] = srv.Params()
	}
	for i, c := range clients {
		stats.ClientUpdates[i] = c.Updates()
	}
	for i := range finals {
		for j := i + 1; j < len(finals); j++ {
			if d := l2(finals[i], finals[j]); d > stats.ModelSpread {
				stats.ModelSpread = d
			}
		}
	}
	stats.FinalParams = finals
	return stats, nil
}

func closeAll(servers []*Server) {
	var wg sync.WaitGroup
	for _, s := range servers {
		if s == nil {
			continue
		}
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Close()
		}()
	}
	wg.Wait()
}

func l2(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
