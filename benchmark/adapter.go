package main

// adapter.go is the only file of the benchmark that imports the repo's
// internal packages. Everything the benchmark drives or decorates goes
// through the entry points used here (README.md lists them), so a refactor
// of those signatures has exactly one file to follow.

import (
	"fmt"
	"math"
	"net"

	"github.com/spyker-fl/spyker/internal/experiments"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/live"
	"github.com/spyker-fl/spyker/internal/metrics"
	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/simulation"
	"github.com/spyker-fl/spyker/internal/spyker"
	"github.com/spyker-fl/spyker/internal/tensor"
	"github.com/spyker-fl/spyker/internal/transport"
)

// The interfaces the runtimes already accept, which the traced pass
// decorates, and the wire types the live load generator speaks.
type (
	Model    = fl.Model
	Observer = fl.Observer
	Msg      = transport.Msg
	Conn     = transport.Conn
	Server   = live.Server
)

const kindModelReply = transport.KindModelReply

// comparisonAlgorithms is the paper's five-way comparison set.
func comparisonAlgorithms() []string { return experiments.ComparisonAlgorithms }

// ---- DES workloads ----

// simSpec describes one simulated deployment in the benchmark's terms.
type simSpec struct {
	task          string // "mnist", "wiki" or "stub"
	servers       int
	clients       int
	nonIIDLabels  int
	spreadRegions bool
	maxUpdates    int
	horizon       float64
	targetAcc     float64 // accuracy whose first crossing is time_to_target; 0 = none
	seed          int64
}

func (s simSpec) setup() experiments.Setup {
	st := experiments.Setup{
		Task:                experiments.TaskMNIST,
		NumServers:          s.servers,
		NumClients:          s.clients,
		NonIIDLabels:        s.nonIIDLabels,
		SpreadClientRegions: s.spreadRegions,
		Seed:                s.seed,
		Horizon:             s.horizon,
		MaxUpdates:          s.maxUpdates,
		EvalEvery:           25,
	}
	switch s.task {
	case "wiki":
		st.Task = experiments.TaskWiki
	case "stub":
		// BuildEnv still materializes an image set for the topology it
		// lays out; the stub model never reads it, so keep it minimal.
		st.DatasetScale = 0.1
	}
	return st
}

// simRun is one algorithm instantiated on one freshly built environment:
// the mirror of experiments.Run, split so decorators fit between BuildEnv
// and Build.
type simRun struct {
	spec simSpec
	env  *fl.Env
	rec  *metrics.Recorder
	alg  fl.Algorithm
}

func newSimRun(spec simSpec, alg string) (*simRun, error) {
	a, err := experiments.NewAlgorithm(alg)
	if err != nil {
		return nil, err
	}
	env, rec, err := experiments.BuildEnv(spec.setup())
	if err != nil {
		return nil, err
	}
	r := &simRun{spec: spec, env: env, rec: rec, alg: a}
	if spec.task == "stub" {
		r.useModel(newQuadFactory(spec.seed))
	}
	return r, nil
}

// useModel swaps the task's model for a benchmark-owned one, on the
// clients and servers (env.NewModel) and in the recorder.
func (r *simRun) useModel(factory func(seed int64) Model) {
	r.env.NewModel = factory
	eval := factory(r.env.Seed)
	r.rec.EvalModel = eval
	r.env.ModelBytes = fl.ModelWireBytes(eval.NumParams())
}

// decorate inserts the tracing decorators: every model the algorithm
// builds and the observer it reports to.
func (r *simRun) decorate(tr *tracer) {
	inner := r.env.NewModel
	r.env.NewModel = func(seed int64) Model {
		i := tr.begin(lyNewModel)
		m := inner(seed)
		tr.end(i)
		return &tracedModel{Model: m, tr: tr}
	}
	r.env.Observer = &tracedObserver{Observer: r.env.Observer, tr: tr}
}

// simOutcome is what one run produced. Every field is a function of the
// seed alone, so reps compare them bit for bit.
type simOutcome struct {
	updates      int
	evals        int
	events       int
	transfers    int
	bytesCS      int
	bytesSS      int
	syncs        int
	finalTime    float64
	firstLoss    float64
	finalLoss    float64
	finalAcc     float64
	timeToTarget float64 // virtual seconds; 0 when the spec has no target or it was not reached
}

// execute is the timed part of a run: Build (which also performs every
// client's first local training) and the event loop.
func (r *simRun) execute(tr *tracer) (simOutcome, error) {
	b := tr.begin(lyBuild)
	err := r.alg.Build(r.env)
	tr.end(b)
	if err != nil {
		return simOutcome{}, fmt.Errorf("build %s: %w", r.alg.Name(), err)
	}
	l := tr.begin(lyRun)
	final := r.env.Sim.Run(r.spec.horizon)
	tr.end(l)

	out := simOutcome{
		updates:   r.rec.Updates(),
		evals:     len(r.rec.TraceData),
		events:    int(r.env.Sim.Processed()),
		transfers: len(r.env.Net.Transfers()),
		bytesCS:   r.env.Net.TotalBytes(geo.ClientServer),
		bytesSS:   r.env.Net.TotalBytes(geo.ServerServer),
		finalTime: final,
	}
	if out.evals > 0 {
		last := r.rec.TraceData.Final()
		out.firstLoss, out.finalLoss, out.finalAcc = r.rec.TraceData[0].Loss, last.Loss, last.Acc
	}
	if r.spec.targetAcc > 0 {
		if at, ok := r.rec.TraceData.TimeToAcc(r.spec.targetAcc); ok {
			out.timeToTarget = at
		}
	}
	if sp, ok := r.alg.(interface{ Servers() []*spyker.ServerCore }); ok {
		for _, core := range sp.Servers() {
			out.syncs += core.SyncsTriggered()
		}
	}
	return out, nil
}

// referenceRun is experiments.Run itself, for the self-test that pins the
// mirrored path above to it.
func referenceRun(spec simSpec, alg string) (updates int, finalTime, finalLoss float64, err error) {
	res, err := experiments.Run(alg, spec.setup())
	if err != nil {
		return 0, 0, 0, err
	}
	return res.Updates, res.FinalTime, res.Trace.Final().Loss, nil
}

// ---- live ring ----

// startRing starts n in-process servers on loopback TCP and connects the
// ring. HInter is off and hIntra sets how many updates a server merges
// between the sync rounds it asks for; each server has one client.
func startRing(n int, initial []float64, hIntra float64) ([]*Server, error) {
	h := fl.DefaultHyper(n, n)
	h.HInter = math.Inf(1)
	h.HIntra = hIntra
	servers := make([]*Server, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		srv, err := live.NewServer(i, "127.0.0.1:0", live.ServerConfig(i, n, 1, h), initial, i == 0)
		if err != nil {
			closeServers(servers)
			return nil, err
		}
		servers = append(servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	for _, srv := range servers {
		if err := srv.ConnectPeers(addrs); err != nil {
			closeServers(servers)
			return nil, err
		}
	}
	return servers, nil
}

// closeServers closes all servers concurrently, as live.RunCluster does: a
// server's inbound peer links only end once the remote side has closed.
func closeServers(servers []*Server) {
	closers := make([]func(), len(servers))
	for i, s := range servers {
		closers[i] = s.Close
	}
	inParallel(closers...)
}

// dialClient connects client id to a server and registers it. wrap, when
// non-nil, is put between the socket and the codec (the traced pass counts
// true wire bytes there).
func dialClient(addr string, id int, wrap func(net.Conn) net.Conn) (*Conn, error) {
	var conn *Conn
	if wrap == nil {
		c, err := transport.Dial(addr)
		if err != nil {
			return nil, err
		}
		conn = c
	} else {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		conn = transport.NewConn(wrap(raw))
	}
	if err := conn.Send(&Msg{Kind: transport.KindHello, From: id, Bid: live.RoleClient}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	return conn, nil
}

// newUpdate fills m as client id's update carrying params, answering a
// reply of the given age.
func newUpdate(m *Msg, id int, params []float64, age float64) {
	*m = Msg{Kind: transport.KindClientUpdate, From: id, Params: params, Age: age}
}

func msgWireBytes(m *Msg) int { return transport.MsgWireBytes(m) }

// ---- probes: calibrated direct calls into single layers ----

// probe is one direct-call loop. run performs n operations; ops is how
// many unit operations (elements, samples) one of them covers.
type probe struct {
	name string
	ops  float64
	unit float64 // seconds per reported unit (1e-9 for ns, 1e-6 for us)
	run  func(n int)
}

// layerProbes builds the probes of the layers below the runtimes. They do
// not depend on the workload: every traced run measures all of them, so a
// count from any workload can be priced with a cost from the same run.
func layerProbes(seed int64) ([]probe, error) {
	const d = modelDim
	x, y := paramvec.New(d), paramvec.New(d)
	for i := range x {
		x[i], y[i] = float64(i%7), float64(i%5)
	}
	var pool paramvec.Pool
	pool.Put(pool.Get(d))
	// The first dense layer of the MNIST CNN: 150 inputs, 32 outputs.
	mat := tensor.NewMatrix(32, 150)
	in, out := make([]float64, 150), make([]float64, 32)
	for i := range mat.Data {
		mat.Data[i] = float64(i%11) * 0.01
	}
	probes := []probe{
		{"paramvec.axpy_ns_per_elem", d, 1e-9, func(n int) {
			for i := 0; i < n; i++ {
				y.AxpyInto(1e-9, x)
			}
		}},
		{"paramvec.merge_ns_per_elem", d, 1e-9, func(n int) {
			for i := 0; i < n; i++ {
				y.WeightedMergeInto(1e-9, x)
			}
		}},
		{"paramvec.copy_ns_per_elem", d, 1e-9, func(n int) {
			for i := 0; i < n; i++ {
				y.CopyFrom(x)
			}
		}},
		{"paramvec.pool_get_put_ns", 1, 1e-9, func(n int) {
			for i := 0; i < n; i++ {
				pool.Put(pool.Get(d))
			}
		}},
		{"tensor.matvec_ns", 1, 1e-9, func(n int) {
			for i := 0; i < n; i++ {
				mat.MatVec(out, in)
			}
		}},
		{"simulation.ns_per_event", 1, 1e-9, runEvents},
		{"geo.send_ns", 1, 1e-9, runTransfers},
	}
	for _, task := range []struct {
		spec              simSpec
		trainName, evalOf string
		evalSize          float64
	}{
		// evalSize is the held-out set Evaluate walks: 300 images, 63 windows.
		{fig5Spec(seed), "nn.mnist.train_sample_us", "nn.mnist.eval_sample_us", 300},
		{wikiSpec(seed), "nn.wiki.train_window_us", "nn.wiki.eval_window_us", 63},
	} {
		r, err := newSimRun(task.spec, "spyker")
		if err != nil {
			return nil, err
		}
		model, eval := r.env.NewModel(seed+1000), r.rec.EvalModel
		shard, lr := r.env.Clients[0].Shard, r.env.Hyper.ClientLR
		probes = append(probes,
			probe{task.trainName, float64(len(shard)), 1e-6, func(n int) {
				for i := 0; i < n; i++ {
					model.Train(shard, 1, lr)
				}
			}},
			probe{task.evalOf, task.evalSize, 1e-6, func(n int) {
				for i := 0; i < n; i++ {
					eval.Evaluate()
				}
			}},
		)
	}
	return probes, nil
}

// runEvents processes n events on a simulator holding 400 pending ones,
// the event-queue depth of sim-protocol's 400 clients.
func runEvents(n int) {
	sim := simulation.New()
	left := n
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			sim.Schedule(0.15, tick)
		}
	}
	for i := 0; i < 400 && left > 0; i++ {
		left--
		sim.Schedule(float64(i)*1e-4, tick)
	}
	sim.Run(math.Inf(1))
}

// runTransfers sends n model-sized messages over a geo network, each
// delivery sending the next: one Send plus the event that delivers it.
func runTransfers(n int) {
	sim := simulation.New()
	netw := geo.NewNetwork(sim, geo.Config{})
	a := geo.Endpoint{ID: 1, Region: geo.Regions[0]}
	b := geo.Endpoint{ID: 2, Region: geo.Regions[1]}
	left := n
	var next func()
	next = func() {
		if left > 0 {
			left--
			netw.Send(a, b, 8*modelDim, geo.ClientServer, next)
		}
	}
	next()
	sim.Run(math.Inf(1))
}

// echoPair opens a loopback Listen/Dial pair whose far end echoes every
// frame: the transport alone, no server behind it. stop closes both ends
// and waits for the echo loop.
func echoPair() (conn *Conn, stop func(), err error) {
	l, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	wait := inBackground(func() {
		far, err := l.Accept()
		if err != nil {
			return
		}
		defer func() { _ = far.Close() }()
		var m Msg
		for far.RecvInto(&m) == nil && far.Send(&m) == nil {
		}
	})
	conn, err = transport.Dial(l.Addr())
	if err != nil {
		_ = l.Close()
		wait()
		return nil, nil, err
	}
	return conn, func() {
		_ = conn.Close()
		_ = l.Close()
		wait()
	}, nil
}
