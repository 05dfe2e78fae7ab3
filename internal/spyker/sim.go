package spyker

import (
	"fmt"

	"github.com/spyker-fl/spyker/internal/cluster"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/obs/audit"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/simulation"
)

// Algorithm runs Spyker under the discrete-event simulator. It implements
// fl.Algorithm, and — when the environment carries a fault plan — the
// fault.Cluster control surface, so internal/fault can crash, checkpoint,
// restart, and rob servers of the token.
type Algorithm struct {
	// DisableDecay turns the learning-rate decay off (for the Fig. 11
	// ablation).
	DisableDecay bool

	servers []*simServer

	// homeOf maps every client to its current home server. Build seeds it
	// from the static placement; elastic membership changes (Join/Leave)
	// re-home clients by rewriting it, and the delivery glue routes each
	// update through it at delivery time, so updates already in flight
	// reach the client's new home.
	homeOf []int

	// faultsArmed is set when Env.Faults != nil. It switches the message
	// glue to plain owned copies — a private copy of every delivered
	// client update, because the handler consumes its vector and an
	// injected duplicate delivers one vector twice; an unpooled copy of
	// every broadcast, because drops and duplicates break the pool's
	// exactly-once release protocol — and enables the down/epoch guards.
	// Disarmed runs take exactly the pre-fault code paths.
	faultsArmed bool
	initial     []float64 // pristine t=0 model, the restart fallback
	tickPeriod  float64   // recovery tick period, 0 when recovery is off

	// The typed events of the message glue (see msg): the handlers of a
	// processed client update, a reply's delivery, a server message's
	// arrival and the three server jobs it is queued as, registered in
	// Build, and the records they carry. serverParams is ServerParams,
	// bound once for the observer.
	kind struct {
		update, reply, arrive, model, age, token simulation.Kind
	}
	msgs         simulation.Slab[msg]
	serverParams func() [][]float64
}

// msg is one message or queued job of the glue, carrying the fields its
// kind reads: a client update on the server's queue (client, vec, age,
// uid), a reply to a client (c, vec, age, lr), and a server model (from,
// vec, shared, age, bid, front, mem), age announcement (from, age, mem) or
// token (token) from the network through the server's queue. to is the
// server it is for — for a reply the one sending it. A record is shared by
// every event that reads it and freed by the last (release): the
// deliveries of a duplicated message, and the jobs they queue.
type msg struct {
	to      *simServer
	c       *fl.SimClient
	client  int
	from    int
	vec     []float64
	shared  *fl.SharedVec // released after the model is merged
	age, lr float64
	proc    float64         // the server's processing delay, on arrival
	job     simulation.Kind // the job it queues as, on arrival
	uid     obs.UID
	bid     int
	front   []int64
	mem     ring.Membership
	token   Token
	epoch   int // to's epoch when queued, with faults armed
	refs    int // events still to read the record
}

var _ fl.Algorithm = (*Algorithm)(nil)

// Name implements fl.Algorithm.
func (a *Algorithm) Name() string {
	if a.DisableDecay {
		return "Spyker(no-decay)"
	}
	return "Spyker"
}

// ConfigFromHyper derives the Config of server id in an n-server
// deployment driven by hyper h, with clients of the deployment's clients
// attached to it. It is the one place the two field lists meet: the DES
// glue below and the live runtime (live.ServerConfig, hence every process
// of a multi-process run) both call it, so a knob one runtime honours is
// never silently dropped by the other.
func ConfigFromHyper(id, n, clients int, h fl.Hyper) Config {
	return Config{
		ID:           id,
		NumServers:   n,
		NumClients:   clients,
		EtaServer:    h.EtaServer,
		Phi:          h.Phi,
		EtaA:         h.EtaA,
		HInter:       h.HInter,
		HIntra:       h.HIntra,
		ClientLR:     h.ClientLR,
		DecayEnabled: h.DecayEnabled,
		Beta:         h.Beta,
		EtaMin:       h.EtaMin,

		RobustClipFactor: h.RobustClipFactor,

		TokenTimeout: h.TokenTimeout,
		SyncRetry:    h.SyncRetry,
	}
}

// simServer glues a ServerCore to the simulator: it owns the processing
// queue that models server occupancy and implements Outbound by sending
// messages through the geo network.
type simServer struct {
	env    *fl.Env
	alg    *Algorithm
	id     int
	cfg    Config
	core   *ServerCore
	queue  *fl.ProcQueue
	client map[int]*fl.SimClient

	// audit is this server's contribution audit plane (nil unless
	// Env.Audit armed it). It outlives core swaps: a restarted
	// incarnation keeps auditing with the same per-client history.
	audit *audit.Recorder

	// Failure-injection state, only touched when faultsArmed. down marks
	// a crashed server: arriving messages are discarded. left marks a
	// server that departed the ring for good (elastic Leave) — same
	// discard behaviour, but permanent. epoch counts crash/restart
	// transitions so work already sitting in the processing queue when
	// the crash hit is invalidated rather than applied to the restarted
	// incarnation. ckpt is the restart point (fault.Cluster Checkpoint),
	// and heardSince tracks which clients this incarnation has processed
	// an update from — the re-engagement pass skips them.
	down       bool
	left       bool
	epoch      int
	ckpt       State
	hasCkpt    bool
	heardSince map[int]bool
}

var _ Outbound = (*simServer)(nil)

// newSimServer makes the shell of server id: queue and client table, no
// core yet.
func (a *Algorithm) newSimServer(env *fl.Env, id int) *simServer {
	s := &simServer{
		env:    env,
		alg:    a,
		id:     id,
		queue:  fl.NewProcQueue(env.Sim, id, env.Observer),
		client: make(map[int]*fl.SimClient),
	}
	if a.faultsArmed {
		s.heardSince = make(map[int]bool)
	}
	return s
}

// adopt installs core as the server's protocol state — at build, after a
// restart, on joining — instrumented, merging off the event loop (see
// ServerCore.sim) and, when the environment arms the audit plane, feeding
// the server's one recorder. The core it replaces is joined first: its
// last merge may still be writing a reply in flight, and the delivery
// joins only the current core's.
func (s *simServer) adopt(core *ServerCore) {
	if s.core != nil {
		s.core.merge.Join()
	}
	core.sim = s.env.Sim
	s.core = core
	core.Instrument(s.env.Trace, s.env.Sim.Now)
	if s.env.Audit {
		if s.audit == nil {
			s.audit = audit.NewRecorder(s.id, s.env.Trace)
		}
		core.ArmAudit(s.audit)
	}
}

// submit queues job kind for msg i on s's processing queue. With faults
// armed it adds the crash guards: a message reaching a down server is
// discarded here, and queued work from before a crash is not applied to
// the restarted incarnation (its volatile queue died with it; see
// applies).
func (a *Algorithm) submit(s *simServer, proc float64, kind simulation.Kind, i int) {
	if a.faultsArmed {
		if s.down || s.left {
			a.release(i)
			return
		}
		a.msgs.At(i).epoch = s.epoch
	}
	s.queue.Submit(proc, simulation.Job{Kind: kind, Arg: i})
}

// applies reports whether the queued job of m may still run: always,
// unless faults are armed and its server crashed or left since.
func (a *Algorithm) applies(m *msg) bool {
	s := m.to
	return !a.faultsArmed || !(s.down || s.left || s.epoch != m.epoch)
}

// post sends msg i from src to dst; on arrival it queues as job.
func (a *Algorithm) post(src, dst geo.Endpoint, size int, uid obs.UID, job simulation.Kind, i int) {
	m := a.msgs.At(i)
	m.job = job
	m.refs = m.to.env.Net.Post(src, dst, size, geo.ServerServer, uid,
		simulation.Job{Kind: a.kind.arrive, Arg: i})
	if m.refs == 0 {
		a.msgs.Free(i)
	}
}

// release ends one event's use of msg i.
func (a *Algorithm) release(i int) {
	m := a.msgs.At(i)
	if m.refs--; m.refs == 0 {
		a.msgs.Free(i)
	}
}

// register binds the glue's handlers to env's simulator.
func (a *Algorithm) register(env *fl.Env) {
	a.kind.update = env.Sim.Handle(a.processUpdate)
	a.kind.reply = env.Sim.Handle(a.deliverReply)
	a.kind.arrive = env.Sim.Handle(a.arrive)
	a.kind.model = env.Sim.Handle(a.processModel)
	a.kind.age = env.Sim.Handle(a.processAge)
	a.kind.token = env.Sim.Handle(a.processToken)
	a.serverParams = a.ServerParams
}

// deliverUpdate is every client's Deliver: the update goes to the queue of
// the client's home at delivery time.
func (a *Algorithm) deliverUpdate(clientID int, update []float64, age float64, uid obs.UID) {
	srv := a.servers[a.homeOf[clientID]]
	i, m := a.msgs.New()
	*m = msg{to: srv, client: clientID, vec: update, age: age, uid: uid, refs: 1}
	a.submit(srv, srv.env.ProcFor(srv.id, srv.env.Hyper.ProcSpyker), a.kind.update, i)
}

// processUpdate is a client update's job completing.
func (a *Algorithm) processUpdate(i int) {
	m := a.msgs.At(i)
	if srv := m.to; a.applies(m) {
		// The handler consumes the update and the reply travels back in
		// it. Without faults every update is delivered once, and the
		// client — parked until that reply — has no use for the vector in
		// between, its own model's view included. A duplicated delivery
		// would merge the first one's reply, so a fault-armed run merges a
		// copy.
		consumed := m.vec
		if a.faultsArmed {
			consumed = append([]float64(nil), m.vec...)
		}
		srv.core.HandleClientUpdate(m.client, consumed, m.age, m.uid)
		if srv.heardSince != nil {
			srv.heardSince[m.client] = true
		}
		srv.env.Observer.ClientUpdateProcessed(
			srv.env.Sim.Now(), srv.id, m.client, a.serverParams)
	}
	a.release(i)
}

// arrive is a server message's arrival: it queues as its job.
func (a *Algorithm) arrive(i int) {
	m := a.msgs.At(i)
	a.submit(m.to, m.proc, m.job, i)
}

// processModel is a peer's model broadcast completing.
func (a *Algorithm) processModel(i int) {
	if m := a.msgs.At(i); a.applies(m) {
		m.to.core.HandleServerModel(m.from, m.vec, m.age, m.bid, m.front, m.mem)
		if m.shared != nil {
			m.shared.Release()
		}
	}
	a.release(i)
}

// processAge is a peer's age announcement completing.
func (a *Algorithm) processAge(i int) {
	if m := a.msgs.At(i); a.applies(m) {
		m.to.core.HandleAge(m.from, m.age, m.mem)
	}
	a.release(i)
}

// processToken is the token's hop completing.
func (a *Algorithm) processToken(i int) {
	if m := a.msgs.At(i); a.applies(m) {
		m.to.core.HandleToken(m.token)
	}
	a.release(i)
}

// Build implements fl.Algorithm.
func (a *Algorithm) Build(env *fl.Env) error {
	if err := env.Validate(); err != nil {
		return err
	}
	n := len(env.Servers)
	initial := env.NewModel(env.Seed).Params()
	a.faultsArmed = env.Faults != nil
	a.initial = initial

	a.register(env)
	a.servers = make([]*simServer, n)
	for i := range a.servers {
		s := a.newSimServer(env, i)
		s.cfg = ConfigFromHyper(i, n, len(env.Servers[i].Clients), env.Hyper)
		s.cfg.DecayEnabled = s.cfg.DecayEnabled && !a.DisableDecay
		s.adopt(NewServerCore(s.cfg, initial, i == 0, s))
		a.servers[i] = s
	}
	a.scheduleTicks(env)

	// Create the clients and hand every one the initial model at time 0
	// (clients begin training immediately, as in the paper's emulation).
	// Updates route through homeOf at delivery time, not through the
	// server captured at build time: elastic membership changes re-home
	// clients mid-run, and an update already in flight must land at the
	// client's current home.
	a.homeOf = make([]int, len(env.Clients))
	deliver := a.deliverUpdate
	for ci := range env.Clients {
		home := env.Clients[ci].Server
		a.homeOf[ci] = home
		c := env.NewSimClient(ci, home, deliver)
		c.CopyUpdates = a.faultsArmed
		a.servers[home].client[ci] = c
		c.HandleModel(initial, 0, env.Hyper.ClientLR)
	}
	return nil
}

// scheduleTicks drives ServerCore.Tick for the recovery timers. Nothing
// is scheduled when both timeouts are off, so a recovery-disabled run's
// event schedule is byte-identical to one predating this extension. The
// first tick of each server is staggered by one period/n so simultaneous
// survivors do not all regenerate in the same instant.
func (a *Algorithm) scheduleTicks(env *fl.Env) {
	a.tickPeriod = a.servers[0].core.cfg.TickPeriod() // the timeouts are the deployment's, the same in every core
	if a.tickPeriod == 0 {
		return
	}
	n := len(a.servers)
	for _, s := range a.servers {
		a.scheduleTickFor(env, s, a.tickPeriod*(1+float64(s.id)/float64(n)))
	}
}

// scheduleTickFor starts one server's recurring recovery tick after the
// given initial delay (relative to now). Joined servers get their own
// tick loop with the same stagger rule, computed over the ring size at
// join time; a departed server's loop winds down at its next firing.
func (a *Algorithm) scheduleTickFor(env *fl.Env, s *simServer, first float64) {
	var tick func()
	tick = func() {
		if s.left {
			return
		}
		if !s.down {
			s.core.Tick(env.Sim.Now())
		}
		env.Sim.Schedule(a.tickPeriod, tick)
	}
	env.Sim.Schedule(first, tick)
}

// reengageGrace is how long a restarted server waits before re-sending
// its model to clients it has not heard from. The grace period lets
// updates that were already in flight at restart land first, so their
// clients are not handed a second concurrent training loop. One virtual
// second comfortably exceeds any link latency plus queueing in the
// modeled deployments.
const reengageGrace = 1.0

// NumServers implements fault.Cluster.
func (a *Algorithm) NumServers() int { return len(a.servers) }

// TokenHolder implements fault.Cluster: the live server currently
// holding the token, or -1 when the token is in flight or lost.
func (a *Algorithm) TokenHolder() int {
	for i, s := range a.servers {
		if !s.down && !s.left && s.core.HasToken() {
			return i
		}
	}
	return -1
}

// Checkpoint implements fault.Cluster: snapshot server i's protocol
// state as its restart point. A down server cannot checkpoint.
func (a *Algorithm) Checkpoint(i int) {
	s := a.servers[i]
	if s.down || s.left {
		return
	}
	s.core.SnapshotInto(&s.ckpt)
	s.hasCkpt = true
}

// Crash implements fault.Cluster: server i loses its volatile state —
// queued work, and the token if it held one — and discards every message
// addressed to it until Restart.
func (a *Algorithm) Crash(i int) {
	s := a.servers[i]
	if s.down || s.left {
		return
	}
	s.down = true
	s.epoch++
}

// Restart implements fault.Cluster: server i comes back from its latest
// checkpoint (or from the pristine initial model if it never took one)
// and, after a short grace period, re-engages every client it has not
// heard from — their updates died with the crash, so without a fresh
// model their training loops would stay parked forever.
func (a *Algorithm) Restart(i int) {
	s := a.servers[i]
	if !s.down || s.left {
		return
	}
	if s.hasCkpt {
		core, err := RestoreServerCore(s.ckpt, s)
		if err != nil {
			panic(fmt.Sprintf("spyker: restart server %d: %v", i, err))
		}
		s.adopt(core)
	} else {
		s.adopt(NewServerCore(s.cfg, a.initial, false, s))
	}
	s.down = false
	s.epoch++
	clear(s.heardSince)
	epoch := s.epoch
	s.env.Sim.Schedule(reengageGrace, func() {
		if s.down || s.epoch != epoch {
			return
		}
		ids := fl.SortedKeys(s.client)
		for _, ci := range ids {
			if !s.heardSince[ci] {
				s.core.ReengageClient(ci)
			}
		}
	})
}

// DropToken implements fault.Cluster: discard the token if server i
// holds it, reporting whether it did.
func (a *Algorithm) DropToken(i int) bool {
	s := a.servers[i]
	if s.down || s.left {
		return false
	}
	return s.core.DropToken()
}

// Join implements fault.Elastic: a new server joins the ring, sponsored
// by an existing member (the sponsor hands over its model and age
// knowledge and announces the epoch bump). Returns the new server's
// stable ID, or -1 if no live sponsor exists. Half of the sponsor's
// clients are re-homed to the newcomer — the scale-out scenario the
// elastic study measures: a hot region splits its load.
func (a *Algorithm) Join(sponsor int) int {
	if sponsor < 0 || sponsor >= len(a.servers) ||
		a.servers[sponsor].down || a.servers[sponsor].left {
		// Fall back to the lowest live member; a plan event may name a
		// sponsor that has crashed or departed since the plan was written.
		sponsor = -1
		for i, s := range a.servers {
			if !s.down && !s.left {
				sponsor = i
				break
			}
		}
		if sponsor < 0 {
			return -1
		}
	}
	sp := a.servers[sponsor]
	env := sp.env
	newID := len(a.servers)

	// The newcomer shares the sponsor's region: the scale-out scenario
	// adds capacity where the load is, and keeping the region fixed makes
	// the DES comparison against a fixed larger ring apples-to-apples.
	env.Servers = append(env.Servers, fl.ServerSpec{ID: newID, Region: env.Servers[sponsor].Region})
	ns := a.newSimServer(env, newID)
	// The shell must be registered before AdmitMember: the sponsor's
	// membership announcement fans out to a.servers, and the newcomer's
	// queue has to exist to receive it (the announcement lands after the
	// core below is installed — network latency is strictly positive).
	a.servers = append(a.servers, ns)

	st, err := sp.core.AdmitMember(newID)
	if err != nil {
		panic(fmt.Sprintf("spyker: join via sponsor %d: %v", sponsor, err))
	}
	ns.cfg = st.Config
	core, err := RestoreServerCore(st, ns)
	if err != nil {
		panic(fmt.Sprintf("spyker: bootstrap joined server %d: %v", newID, err))
	}
	ns.adopt(core)
	if a.tickPeriod > 0 {
		a.scheduleTickFor(env, ns, a.tickPeriod*(1+float64(newID)/float64(len(a.servers))))
	}

	// Split the sponsor's client population: every second client (in
	// stable ID order) moves to the newcomer. Both are in the same
	// region, so nearest-server placement degenerates to alternation —
	// the balanced split.
	ids := fl.SortedKeys(sp.client)
	for idx, ci := range ids {
		if idx%2 == 1 {
			a.rehome(ci, newID)
		}
	}
	sp.core.SetNumClients(len(sp.client))
	core.SetNumClients(len(ns.client))
	return newID
}

// Leave implements fault.Elastic: target departs the ring for good. The
// token is handed to the ring successor if target holds it idle (dropped
// if mid-round — TokenTimeout recovery then heals), a surviving member
// announces the epoch bump excluding target, and target's clients are
// re-homed to their nearest surviving servers (balanced, by modeled AWS
// latency). Returns false when target is already gone or it is the last
// live server.
func (a *Algorithm) Leave(target int) bool {
	if target < 0 || target >= len(a.servers) {
		return false
	}
	t := a.servers[target]
	if t.down || t.left {
		return false
	}
	coord := -1
	for i, s := range a.servers {
		if i != target && !s.down && !s.left {
			coord = i
			break
		}
	}
	if coord < 0 {
		return false
	}
	// Graceful hand-off while target is still live: an idle token rides
	// to the successor, a mid-round one is dropped and regenerated by the
	// survivors' timeout.
	if t.core.HasToken() && !t.core.YieldToken() {
		t.core.DropToken()
	}
	t.left = true
	t.epoch++
	a.servers[coord].core.ExcludeMember(target)

	// Re-home target's clients to the nearest surviving servers,
	// balanced by current load (the same placement heuristic the static
	// geo assignment uses).
	ids := fl.SortedKeys(t.client)
	if len(ids) > 0 {
		env := t.env
		survivors := make([]int, 0, len(a.servers))
		load := make(map[int]int, len(a.servers))
		for i, s := range a.servers {
			if !s.down && !s.left {
				survivors = append(survivors, i)
				load[i] = len(s.client)
			}
		}
		regions := make([]geo.Region, len(ids))
		for i, ci := range ids {
			regions[i] = env.Clients[ci].Region
		}
		assign := cluster.NearestBalanced(regions, survivors,
			func(s int) geo.Region { return env.Servers[s].Region },
			geo.AWSLatency, load)
		movedTo := make(map[int][]int, len(survivors))
		for i, ci := range ids {
			a.rehome(ci, assign[i])
			movedTo[assign[i]] = append(movedTo[assign[i]], ci)
		}
		for _, si := range survivors {
			a.servers[si].core.SetNumClients(len(a.servers[si].client))
		}
		// Updates the moved clients had in flight toward target died with
		// its departure (the left guard discards them), so after a grace
		// period each new home re-engages the movers it has not heard
		// from — mirroring the crash-restart re-engagement pass.
		for _, si := range survivors {
			moved := movedTo[si]
			if len(moved) == 0 {
				continue
			}
			s := a.servers[si]
			epoch := s.epoch
			env.Sim.Schedule(reengageGrace, func() {
				if s.down || s.left || s.epoch != epoch {
					return
				}
				for _, ci := range moved {
					if !s.heardSince[ci] && a.homeOf[ci] == si {
						s.core.ReengageClient(ci)
					}
				}
			})
		}
	}
	return true
}

// rehome moves client ci to server to: the client actor keeps running,
// only its home pointer changes, and in-flight updates follow via the
// homeOf indirection in the delivery glue.
func (a *Algorithm) rehome(ci, to int) {
	from := a.homeOf[ci]
	if from == to {
		return
	}
	src := a.servers[from]
	dst := a.servers[to]
	c := src.client[ci]
	if c == nil {
		return
	}
	delete(src.client, ci)
	delete(src.heardSince, ci)
	dst.client[ci] = c
	c.Spec.Server = to
	a.homeOf[ci] = to
}

// ServerParams returns the live parameter vectors of every server model;
// used by observers to evaluate global progress.
func (a *Algorithm) ServerParams() [][]float64 {
	out := make([][]float64, len(a.servers))
	for i, s := range a.servers {
		out[i] = s.core.Params()
	}
	return out
}

// Servers exposes the server cores for white-box tests and diagnostics.
func (a *Algorithm) Servers() []*ServerCore {
	out := make([]*ServerCore, len(a.servers))
	for i, s := range a.servers {
		out[i] = s.core
	}
	return out
}

// ReplyClient implements Outbound. params is the reply's own vector (see
// the Outbound contract) — the one the client's update arrived in — and
// travels back as it is. For an honest client that is the parameter view
// of its own model, which the merge fills with the new server model, so
// loading it on arrival moves nothing; any other client loads it into its
// model as it would a copy. The merge may still be running off the loop
// here; the delivery joins it before the client looks.
func (s *simServer) ReplyClient(k int, params []float64, age, lr float64) {
	c := s.client[k]
	if c == nil {
		// The client was re-homed away between the update's arrival and
		// this reply (elastic membership); its new home will engage it.
		// The vector is let go here, so its merge is finished first: no
		// worker is left writing a vector nobody holds.
		s.core.joinReply(params)
		return
	}
	a := s.alg
	i, m := a.msgs.New()
	*m = msg{to: s, c: c, vec: params, age: age, lr: lr}
	m.refs = s.env.Net.Post(s.env.ServerEndpoint(s.id), s.env.ClientEndpoint(k), s.env.ModelBytes, geo.ClientServer, 0,
		simulation.Job{Kind: a.kind.reply, Arg: i})
	if m.refs == 0 {
		a.msgs.Free(i)
	}
}

// deliverReply is a reply's arrival at its client: the merge that writes
// it is joined first.
func (a *Algorithm) deliverReply(i int) {
	m := a.msgs.At(i)
	s, c, params, age, lr := m.to, m.c, m.vec, m.age, m.lr
	a.release(i)
	s.core.joinReply(params)
	c.HandleModel(params, age, lr)
}

// BroadcastModel implements Outbound. One pooled copy of the borrowed
// params is shared by every peer delivery (fl.SharedVec) and recycled
// after the last peer consumed the model. The frontier is also copied once at broadcast time: delivery
// happens later in virtual time, while the origin's live frontier keeps
// advancing, so aliasing it would corrupt the causal snapshot the
// broadcast carries.
func (s *simServer) BroadcastModel(params []float64, age float64, bid int, front []int64, mem ring.Membership) {
	a := s.alg
	var shared *fl.SharedVec
	var vec []float64
	if a.faultsArmed {
		// One owned copy shared read-only by every peer delivery; the
		// pooled countdown protocol is unsound under injected drops and
		// duplicates (a duplicate would release the buffer twice, a drop
		// never), so faulty runs let the GC own it.
		// mem needs no copy: Membership slices are immutable (ring
		// package contract).
		vec = append([]float64(nil), params...)
	} else {
		shared = s.env.Snapshot(params, len(a.servers)-1)
		vec = shared.Vec
	}
	frontCopy := append([]int64(nil), front...)
	uid := obs.RoundUID(s.id, bid)
	src := s.env.ServerEndpoint(s.id)
	for _, p := range a.servers {
		if p.id == s.id {
			continue
		}
		i, m := a.msgs.New()
		*m = msg{to: p, from: s.id, vec: vec, shared: shared, age: age, bid: bid, front: frontCopy, mem: mem,
			proc: s.env.ProcFor(p.id, s.env.Hyper.ProcSpyker)}
		a.post(src, s.env.ServerEndpoint(p.id), s.env.ModelBytes, uid, a.kind.model, i)
	}
}

// BroadcastAge implements Outbound.
func (s *simServer) BroadcastAge(age float64, mem ring.Membership) {
	a := s.alg
	src := s.env.ServerEndpoint(s.id)
	for _, p := range a.servers {
		if p.id == s.id {
			continue
		}
		i, m := a.msgs.New()
		*m = msg{to: p, from: s.id, age: age, mem: mem}
		a.post(src, s.env.ServerEndpoint(p.id), fl.AgeWireBytes, 0, a.kind.age, i)
	}
}

// SendToken implements Outbound. The token carries the bid of the sync
// round it is brokering, so the hop is traced under that round's UID.
func (s *simServer) SendToken(t Token, next int) {
	a := s.alg
	i, m := a.msgs.New()
	*m = msg{to: a.servers[next], token: t}
	a.post(s.env.ServerEndpoint(s.id), s.env.ServerEndpoint(next), fl.TokenWireBytes(len(t.Ages)),
		obs.RoundUID(s.id, t.Bid), a.kind.token, i)
}
