// Command spyker-live runs Spyker over real TCP on this machine.
//
// The default role ("cluster") hosts n servers on ephemeral localhost
// ports and m clients training a real CNN in one process, exchanging
// models with the exact protocol messages of the paper (client updates,
// model replies, server broadcasts, age announcements, token).
//
// The "server" and "clients" roles split the same deployment across real
// OS processes, which is what makes process-level failure injection
// possible: kill -9 a server, then relaunch it with -resume to restore
// from its checkpoint file (one JSON-encoded spyker.State) while
// token-loss recovery (-token-timeout, -sync-retry) keeps the surviving
// ring synchronizing.
//
// Example:
//
//	spyker-live -servers 4 -clients 16 -duration 5s
//	spyker-live -servers 2 -clients 8 -stats-every 1s -trace run.jsonl
//	spyker-live -debug-addr 127.0.0.1:6060   # expvar + Prometheus text + pprof
//
//	# one real process per server, plus one process for all clients:
//	spyker-live -role server -id 0 -addr 127.0.0.1:7070 \
//	    -peers 127.0.0.1:7070,127.0.0.1:7071 -token \
//	    -clients 8 -checkpoint s0.json -checkpoint-every 300ms \
//	    -token-timeout 2 -sync-retry 1
//	spyker-live -role clients -peers 127.0.0.1:7070,127.0.0.1:7071 -clients 8
//	# after killing server 0:
//	spyker-live -role server -id 0 -addr 127.0.0.1:7070 \
//	    -peers 127.0.0.1:7070,127.0.0.1:7071 -clients 8 \
//	    -checkpoint s0.json -resume -token-timeout 2 -sync-retry 1
//	# hot-add a third server to the running ring (the sponsor assigns
//	# its ID and ships model + membership in the join reply):
//	spyker-live -role server -join 127.0.0.1:7070 -token-timeout 2 -sync-retry 1
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"sync"
	"time"

	"github.com/spyker-fl/spyker/internal/data"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/live"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/spyker"
)

func main() {
	role := flag.String("role", "cluster", "cluster | server | clients (see package comment)")
	servers := flag.Int("servers", 2, "number of TCP servers (cluster role)")
	clients := flag.Int("clients", 8, "number of clients in the whole deployment")
	duration := flag.Duration("duration", 3*time.Second, "wall-clock training duration (0 in server/clients role = run until killed)")
	seed := flag.Int64("seed", 1, "seed")
	peerLatency := flag.Duration("peer-latency", 0, "injected one-way latency on server-server links")
	clientLatency := flag.Duration("client-latency", 0, "injected one-way latency on client links")
	statsEvery := flag.Duration("stats-every", 0, "log a one-line per-server stats snapshot at this period (0 = off)")
	tracePath := flag.String("trace", "", "write the protocol event trace to this JSONL file (see spyker-trace)")
	debugAddr := flag.String("debug-addr", "", "serve expvar (/debug/vars), pprof (/debug/pprof), Prometheus text (/debug/metrics) and — in server role — the telemetry snapshot (/debug/telemetry) on this address")

	// Multi-process roles.
	id := flag.Int("id", 0, "this server's ID (server role)")
	addr := flag.String("addr", "", "listen address (server role); must match the -peers entry for -id")
	peerList := flag.String("peers", "", "comma-separated server addresses indexed by server ID (server/clients roles)")
	token := flag.Bool("token", false, "this server holds the initial token (server role)")
	ckptPath := flag.String("checkpoint", "", "checkpoint file path (server role)")
	ckptEvery := flag.Duration("checkpoint-every", 500*time.Millisecond, "periodic checkpoint interval (server role)")
	resume := flag.Bool("resume", false, "restore protocol state from -checkpoint instead of starting fresh (server role); the checkpoint must be this -id's and hold this deployment's model")
	tokenTimeout := flag.Float64("token-timeout", 0, "seconds of ring silence before regenerating the token (0 = recovery off)")
	syncRetry := flag.Float64("sync-retry", 0, "seconds before re-broadcasting a stuck synchronization round (0 = off)")
	reconnectEvery := flag.Duration("reconnect-every", 500*time.Millisecond, "peer redial period (server role)")
	join := flag.String("join", "", "join a running ring through the server at this address (server role); the sponsor assigns the ID")
	flag.Parse()

	o := opts{
		role: *role, servers: *servers, clients: *clients, duration: *duration, seed: *seed,
		peerLatency: *peerLatency, clientLatency: *clientLatency, statsEvery: *statsEvery,
		tracePath: *tracePath, debugAddr: *debugAddr,
		id: *id, addr: *addr, peers: splitPeers(*peerList), token: *token,
		ckptPath: *ckptPath, ckptEvery: *ckptEvery, resume: *resume,
		tokenTimeout: *tokenTimeout, syncRetry: *syncRetry, reconnectEvery: *reconnectEvery, join: *join,
	}
	err := validate(o)
	if err == nil {
		switch o.role {
		case "cluster":
			err = run(o)
		case "server":
			err = runServer(o)
		case "clients":
			err = runClients(o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// opts is the parsed command line.
type opts struct {
	role          string
	servers       int
	clients       int
	duration      time.Duration
	seed          int64
	peerLatency   time.Duration
	clientLatency time.Duration
	statsEvery    time.Duration
	tracePath     string
	debugAddr     string

	id             int
	addr           string
	peers          []string
	token          bool
	ckptPath       string
	ckptEvery      time.Duration
	resume         bool
	tokenTimeout   float64
	syncRetry      float64
	reconnectEvery time.Duration
	join           string
}

// validate refuses a command line no role can run as written, before any
// dataset is generated or listener opened. Every role sizes the deployment
// the same way — at least one client per server — and a negative period or
// timeout is refused rather than read as "off": a typo'd
// -reconnect-every -500ms would otherwise run a server that never redials
// a failed peer.
func validate(o opts) error {
	for _, f := range []struct {
		name string
		neg  bool
	}{
		{"-token-timeout", o.tokenTimeout < 0}, {"-sync-retry", o.syncRetry < 0},
		{"-checkpoint-every", o.ckptEvery < 0}, {"-reconnect-every", o.reconnectEvery < 0},
	} {
		if f.neg {
			return fmt.Errorf("%s must not be negative (0 = off)", f.name)
		}
	}
	n := len(o.peers)
	switch o.role {
	case "cluster":
		if o.servers < 1 || o.clients < o.servers {
			return fmt.Errorf("cluster role needs -servers >= 1 and -clients >= -servers (got %d servers, %d clients)", o.servers, o.clients)
		}
	case "clients":
		if n < 1 || o.clients < n {
			return fmt.Errorf("clients role needs -peers and -clients >= len(peers) (got %d peers, %d clients)", n, o.clients)
		}
	case "server":
		if o.resume && o.ckptPath == "" {
			return fmt.Errorf("-resume needs -checkpoint")
		}
		if o.join != "" {
			if o.resume {
				return fmt.Errorf("-join and -resume exclude each other: a joiner's state comes from its sponsor")
			}
			break
		}
		if n < 1 || o.id < 0 || o.id >= n {
			return fmt.Errorf("server role needs -peers with the -id'th entry (got %d peers, id %d)", n, o.id)
		}
		if o.clients < n {
			return fmt.Errorf("server role needs -clients >= len(peers) (got %d peers, %d clients)", n, o.clients)
		}
	default:
		return fmt.Errorf("unknown -role %q (cluster | server | clients)", o.role)
	}
	return nil
}

func splitPeers(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// deployment derives the shared, deterministic pieces every process of a
// multi-process run must agree on: the dataset, the model factory, the
// client shards, and the hyper parameters. All of it is a pure function
// of (clients, servers, seed), so separate OS processes started with the
// same flags build bit-identical initial models.
func deployment(clients, servers int, seed int64, tokenTimeout, syncRetry float64) (fl.ModelFactory, [][]int, *data.Images, fl.Hyper) {
	ds := data.GenerateImages(data.MNISTLike(10*clients, 300, seed))
	factory := func(s int64) fl.Model { return fl.NewMNISTClassifier(ds, 6, 32, s) }
	hyper := fl.DefaultHyper(clients, servers)
	hyper.HInter = 5
	hyper.HIntra = 100
	hyper.TokenTimeout = tokenTimeout
	hyper.SyncRetry = syncRetry
	return factory, data.PartitionByLabel(ds, clients, 2, seed), ds, hyper
}

// runServer hosts exactly one live server in this process — the unit a
// failure-injection harness kills and restarts.
func runServer(o opts) error {
	n := len(o.peers)
	if o.addr == "" {
		if o.join != "" {
			o.addr = "127.0.0.1:0" // the sponsor learns our address from the handshake
		} else {
			o.addr = o.peers[o.id]
		}
	}

	var srv *live.Server
	if o.join != "" {
		// Hot-add: ask the sponsor for admission; identity, model, and
		// membership all arrive in the join reply.
		var err error
		srv, err = live.JoinCluster(o.join, o.addr)
		if err != nil {
			return err
		}
		fmt.Printf("server %d joined the ring via %s (membership %v)\n",
			srv.ID, o.join, srv.Membership())
	} else if o.resume {
		factory, _, _, _ := deployment(o.clients, n, o.seed, o.tokenTimeout, o.syncRetry)
		st, err := readResume(o.ckptPath, o.id, factory(o.seed).NumParams())
		if err != nil {
			return err
		}
		srv, err = live.NewServerFromCheckpoint(o.addr, st)
		if err != nil {
			return err
		}
		fmt.Printf("server %d resumed from %s (age %.1f, syncs %d)\n",
			srv.ID, o.ckptPath, st.Age, st.SyncsTriggered)
	} else {
		factory, _, _, hyper := deployment(o.clients, n, o.seed, o.tokenTimeout, o.syncRetry)
		cfg := live.ServerConfig(o.id, n, live.ClientsAt(o.id, o.clients, n), hyper)
		var err error
		srv, err = live.NewServer(o.id, o.addr, cfg, factory(o.seed).Params(), o.token)
		if err != nil {
			return err
		}
	}
	defer srv.Close()

	// Observability: the metrics registry and the derived-metrics sink
	// always run in server role (they feed /debug/metrics and /debug/vars,
	// and instrumenting starts the staleness histogram of /debug/telemetry);
	// the ring-buffer tracer rides along when -trace or -debug-addr asks
	// for it. Instrument before peers or clients connect.
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	sink := obs.Sink(obs.NewMetricsSink(reg))
	if o.tracePath != "" || o.debugAddr != "" {
		tracer = obs.NewTracer(1 << 18)
		sink = obs.Multi(tracer, sink)
	}
	srv.Instrument(sink)
	if o.debugAddr != "" {
		srv.SetDebugAddr(o.debugAddr)
		serveDebug(o.debugAddr, srv, reg, tracer)
	}

	if tick := (spyker.Config{TokenTimeout: o.tokenTimeout, SyncRetry: o.syncRetry}).TickPeriod(); tick > 0 {
		srv.StartTokenTicker(time.Duration(tick * float64(time.Second)))
	}
	srv.StartPeerReconnect(o.reconnectEvery, func(peer int) string {
		if peer >= 0 && peer < len(o.peers) {
			return o.peers[peer]
		}
		return "" // joined peers: fall back to the learned address book
	})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	if o.ckptPath != "" && o.ckptEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(o.ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if err := srv.CheckpointToFile(o.ckptPath); err != nil {
						fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
					}
				}
			}
		}()
	}
	fmt.Printf("server %d listening on %s\n", srv.ID, srv.Addr())

	if o.duration > 0 {
		if o.statsEvery > 0 {
			for elapsed := time.Duration(0); elapsed < o.duration; elapsed += o.statsEvery {
				time.Sleep(o.statsEvery)
				fmt.Fprintln(os.Stderr, srv.StatsLine())
			}
		} else {
			time.Sleep(o.duration)
		}
	} else {
		select {} // run until killed — the failure-injection mode
	}
	close(stop)
	wg.Wait()
	fmt.Println(srv.StatsLine())
	srv.Close() // before the trace is taken, so it holds every event emitted
	if o.tracePath != "" && tracer != nil {
		if err := writeTraceFile(o.tracePath, tracer); err != nil {
			return err
		}
	}
	return nil
}

// readResume reads the checkpoint a -resume run restarts from and refuses
// one that is not this server's: written by another -id, the process would
// run as that server; holding a model of another size, no peer or client
// could merge with it.
func readResume(path string, id, numParams int) (spyker.State, error) {
	f, err := os.Open(path)
	if err != nil {
		return spyker.State{}, err
	}
	st, err := live.ReadCheckpoint(f)
	_ = f.Close()
	if err != nil {
		return spyker.State{}, err
	}
	if st.Config.ID != id {
		return spyker.State{}, fmt.Errorf("-checkpoint %s is server %d's, not -id %d's", path, st.Config.ID, id)
	}
	if len(st.W) != numParams {
		return spyker.State{}, fmt.Errorf("-checkpoint %s holds a model of %d parameters, the deployment's has %d", path, len(st.W), numParams)
	}
	return st, nil
}

// serveDebug starts the debug endpoint: expvar (/debug/vars), pprof
// (/debug/pprof) and the Prometheus text exposition of reg
// (/debug/metrics), whose series the MetricsSink derives from events. In
// server role (srv non-nil) it adds the server's own state, the
// health-plane telemetry snapshot (/debug/telemetry, consumed by
// spyker-mon), and — when tracing — the live event buffer as JSONL
// (/debug/trace, mergeable across processes with spyker-trace).
func serveDebug(addr string, srv *live.Server, reg *obs.Registry, tracer *obs.Tracer) {
	expvar.Publish("spyker", expvar.Func(func() any { return reg.Snapshot() }))
	http.HandleFunc("/debug/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	paths := "/debug/vars, /debug/metrics and /debug/pprof"
	if srv != nil {
		paths = "/debug/telemetry, /debug/metrics, /debug/vars, /debug/pprof"
		http.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if err := obs.WriteTelemetry(w, srv.Telemetry()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
			}
		})
		if tracer != nil {
			http.HandleFunc("/debug/trace", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "application/jsonl")
				_ = tracer.WriteJSONL(w)
			})
		}
	}
	//spyker:detached(debug HTTP endpoint serves for the process lifetime; the kernel reclaims the listener on exit)
	go func() {
		// DefaultServeMux already carries /debug/pprof (via the pprof
		// import) and /debug/vars (via expvar).
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(os.Stderr, "debug server: %v\n", err)
		}
	}()
	fmt.Printf("debug endpoint: http://%s%s\n", addr, paths)
}

func writeTraceFile(path string, tracer *obs.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tracer.WriteJSONL(f); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// runClients runs the whole deployment's client population in this
// process, each on a redialing loop so server restarts are survived.
func runClients(o opts) error {
	n := len(o.peers)
	factory, shards, _, hyper := deployment(o.clients, n, o.seed, 0, 0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	cs := make([]*live.Client, o.clients)
	for ci := 0; ci < o.clients; ci++ {
		c := &live.Client{
			ID:     ci,
			Model:  factory(fl.ClientModelSeed(o.seed, ci)),
			Shard:  shards[ci],
			Epochs: hyper.LocalEpochs,
		}
		cs[ci] = c
		addr := o.peers[live.HomeOf(ci, o.clients, n)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.RunLoop(func() string { return addr }, 200*time.Millisecond, stop)
		}()
	}
	if o.duration > 0 {
		time.Sleep(o.duration)
		close(stop)
	}
	wg.Wait()
	total := 0
	for _, c := range cs {
		total += c.Updates()
	}
	fmt.Printf("clients done: %d local trainings across %d clients\n", total, o.clients)
	return nil
}

func run(o opts) error {
	factory, shards, _, hyper := deployment(o.clients, o.servers, o.seed, o.tokenTimeout, o.syncRetry)

	// Observability: a metrics registry always runs (it backs /debug/vars),
	// filled from the servers' events; the event tracer only when a trace
	// file is requested.
	reg := obs.NewRegistry()
	var tracer *obs.Tracer
	sink := obs.Sink(obs.NewMetricsSink(reg))
	if o.tracePath != "" {
		tracer = obs.NewTracer(0)
		sink = obs.Multi(tracer, sink)
	}
	if o.debugAddr != "" {
		serveDebug(o.debugAddr, nil, reg, nil)
	}

	fmt.Printf("spyker-live: %d TCP servers, %d clients, %s\n", o.servers, o.clients, o.duration)
	stats, err := live.RunCluster(live.ClusterConfig{
		NumServers:    o.servers,
		NumClients:    o.clients,
		Hyper:         hyper,
		NewModel:      factory,
		Shards:        shards,
		Seed:          o.seed,
		PeerLatency:   o.peerLatency,
		ClientLatency: o.clientLatency,
		Trace:         sink,
		StatsEvery:    o.statsEvery,
		StatsOut:      os.Stderr,
	}, o.duration)
	if err != nil {
		return err
	}

	fmt.Printf("total client updates aggregated: %d\n", stats.TotalUpdates())
	for i, u := range stats.UpdatesPerServer {
		fmt.Printf("  server %d: %6d updates, final age %.1f\n", i, u, stats.FinalAges[i])
	}
	fmt.Printf("token synchronizations triggered: %d\n", stats.SyncsTriggered)
	fmt.Printf("final server-model spread (max pairwise L2): %.4f\n", stats.ModelSpread)

	loss, acc := stats.EvaluateAverage(factory(o.seed))
	fmt.Printf("global model after %s of real training: loss %.4f, accuracy %.1f%%\n",
		o.duration, loss, 100*acc)

	fmt.Printf("runtime metrics: %s\n", reg.StatsLine())
	if tracer != nil {
		if err := writeTraceFile(o.tracePath, tracer); err != nil {
			return err
		}
		fmt.Printf("event trace (%d events) written to %s\n", tracer.Len(), o.tracePath)
	}
	return nil
}
