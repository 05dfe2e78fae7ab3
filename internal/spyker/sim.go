package spyker

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/simulation"
)

// Algorithm runs Spyker under the discrete-event simulator. It implements
// fl.Algorithm and the fault.Cluster control surface, so internal/fault can
// crash, checkpoint, restart, and rob servers of the token. Its message
// glue has one path: a message may be lost or arrive twice in any run, and
// without a fault plan the guards it passes never fire.
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

	initial    []float64 // pristine t=0 model, the restart fallback
	tickPeriod float64   // recovery tick period, 0 when recovery is off

	// The typed events of the message glue (see msg): the handlers of a
	// processed client update, a reply's delivery, a server message's
	// arrival and the three server jobs it is queued as, registered in
	// Build, and the records they carry. serverParams is ServerParams,
	// bound once for the observer; params is the slice it refills.
	kind struct {
		update, reply, arrive, model, age, token simulation.Kind
	}
	msgs         simulation.Slab[msg]
	serverParams func() [][]float64
	params       [][]float64
}

// msg is one message or queued job of the glue, carrying the fields its
// kind reads: a client update on the server's queue (client, vec, age,
// uid), a reply to a client (c, vec, age, lr), and a server model (from,
// vec, shared, age, bid, uid, mem), age announcement (from, age, mem) or
// token (token) from the network through the server's queue. to is the
// server it is for — for a reply the one sending it. A record is shared by
// every event that reads it and freed by the last (release): the
// deliveries of a duplicated message, and the jobs they queue. A model
// record holds one share of its broadcast's pooled vector and gives it back
// when it is freed (free), however many of its copies arrived.
type msg struct {
	to      *simServer
	c       *fl.SimClient
	client  int
	from    int
	vec     []float64
	shared  *fl.SharedVec // released when the record is freed
	age, lr float64
	proc    float64         // the server's processing delay, on arrival
	job     simulation.Kind // the job it queues as, on arrival
	uid     obs.UID
	bid     int
	mem     ring.Membership
	token   Token
	epoch   int // to's epoch when queued
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
// queue that models server occupancy and its cores' merge chain, and
// implements Outbound by sending messages through the geo network.
type simServer struct {
	env    *fl.Env
	alg    *Algorithm
	id     int
	cfg    Config
	core   *ServerCore
	chain  mergeChain
	queue  *fl.ProcQueue
	client map[int]*fl.SimClient

	// Failure-injection state, changed only by fault.Cluster calls. down
	// marks a crashed server: arriving messages are discarded. left marks
	// a server that departed the ring for good (elastic Leave) — same
	// discard behaviour, but permanent. epoch counts crash/restart
	// transitions so work already sitting in the processing queue when
	// the crash hit is invalidated rather than applied to the restarted
	// incarnation. ckpt is the restart point (fault.Cluster Checkpoint),
	// and heardSince[c] says whether this incarnation has processed an
	// update from client c — the re-engagement pass skips those.
	down       bool
	left       bool
	epoch      int
	ckpt       State
	hasCkpt    bool
	heardSince []bool
}

var _ Outbound = (*simServer)(nil)

// mergeChain is the DES's merger: it moves a server's plain client merges
// off the event loop onto one Task, whose body (run) merges the chain in
// arrival order — flat combining: merge appends while the task is at work
// and detaches it only when it is not, the loop joins only a full chain,
// the core joins the whole chain (join) before its model is read or
// written again, and the glue joins it (joinReply) before it delivers or
// drops a reply whose merge is pending. Each merge is the same element-wise
// sweep in the same order whoever runs it, so the bits are those of one
// merge after the other on the loop. The chain is the simServer's, so it
// outlives core swaps (see adopt).
type mergeChain struct {
	sim  *simulation.Sim
	task simulation.Task

	// ring[n%chainLen] is merge n; those from done to tail are pending.
	// open says the task will still take what is appended: run clears it,
	// under mu, when it finds nothing left. done is written by run after
	// each sweep, so a reader that sees it past a merge sees that merge's
	// writes.
	mu   sync.Mutex
	ring [chainLen]pendingMerge //spyker:guardedby(mu)
	tail uint64                 //spyker:guardedby(mu)
	open bool                   //spyker:guardedby(mu)
	done atomic.Uint64
}

// chainLen is how many client merges one server's chain may hold; the
// next one makes the loop join the chain. On sim-protocol a chain reaches
// it almost never: a worker claims a task within tens of microseconds, a
// few merges' worth of the loop's time.
const chainLen = 8

// pendingMerge is one client merge: w += weight*(reply-w), then reply = w.
type pendingMerge struct {
	w, reply []float64
	weight   float64
}

// merge implements merger: it appends the merge to the chain the task is
// still working through, or else — the task idle or finishing, or the
// chain full — joins the task and detaches it on a new chain.
func (c *mergeChain) merge(w []float64, weight float64, reply []float64) {
	c.mu.Lock()
	start := !c.open || c.tail-c.done.Load() >= chainLen
	if start {
		c.mu.Unlock()
		c.task.Join()
		c.mu.Lock()
	}
	c.ring[c.tail%chainLen] = pendingMerge{w: w, reply: reply, weight: weight}
	c.tail++
	c.open = true
	c.mu.Unlock()
	if start {
		c.sim.Detach(&c.task)
	}
}

// join implements merger.
func (c *mergeChain) join() { c.task.Join() }

// run is the task's body: the merge-and-reply sweep for each chained merge
// in arrival order, until the chain is empty.
func (c *mergeChain) run() {
	for {
		c.mu.Lock()
		n := c.done.Load()
		if n == c.tail {
			c.open = false
			c.mu.Unlock()
			return
		}
		m := c.ring[n%chainLen]
		c.mu.Unlock()
		paramvec.Vec(m.w).MergeReplyInto(m.weight, m.reply)
		c.done.Store(n + 1)
	}
}

// joinReply makes the reply vector params whole before the DES delivers
// or drops it: it joins the chain if the merge that writes params is still
// pending. A finished one wrote params before done counted it.
func (c *mergeChain) joinReply(params []float64) {
	pending := false
	c.mu.Lock()
	for n := c.done.Load(); n < c.tail && len(params) > 0 && !pending; n++ {
		r := c.ring[n%chainLen].reply
		pending = len(r) > 0 && &r[0] == &params[0]
	}
	c.mu.Unlock()
	if pending {
		c.task.Join()
	}
}

// newSimServer makes the shell of server id: queue, merge chain and client
// table, no core yet.
func (a *Algorithm) newSimServer(env *fl.Env, id int) *simServer {
	s := &simServer{
		env:        env,
		alg:        a,
		id:         id,
		queue:      fl.NewProcQueue(env.Sim, id, env.Observer),
		client:     make(map[int]*fl.SimClient),
		heardSince: make([]bool, len(env.Clients)),
	}
	s.chain.sim, s.chain.task.Fn = env.Sim, s.chain.run
	return s
}

// adopt installs core as the server's protocol state — at build, after a
// restart, on joining — instrumented and merging off the event loop
// through the server's chain. The chain is joined first, so the
// core it replaces has finished merging into its model and into the
// replies in flight, and every merge of a chain writes one model.
func (s *simServer) adopt(core *ServerCore) {
	s.chain.join()
	core.merger = &s.chain
	s.core = core
	core.Instrument(s.env.Trace, s.env.Sim.Now)
}

// submit queues job kind for msg i on s's processing queue, behind the
// crash guards: a message reaching a down or departed server is discarded
// here, and queued work from before a crash is not applied to the
// restarted incarnation (its volatile queue died with it; see applies).
func (a *Algorithm) submit(s *simServer, proc float64, kind simulation.Kind, i int) {
	if s.down || s.left {
		a.release(i)
		return
	}
	a.msgs.At(i).epoch = s.epoch
	s.queue.Submit(proc, simulation.Job{Kind: kind, Arg: i})
}

// applies reports whether the queued job of m may still run: unless its
// server crashed or left since it was queued.
func (a *Algorithm) applies(m *msg) bool {
	s := m.to
	return !(s.down || s.left || s.epoch != m.epoch)
}

// post sends msg i from src to dst; on arrival it queues as job. A message
// the network drops whole is freed at once.
func (a *Algorithm) post(src, dst geo.Endpoint, size int, uid obs.UID, job simulation.Kind, i int) {
	m := a.msgs.At(i)
	m.job = job
	m.refs = m.to.env.Net.Post(src, dst, size, geo.ServerServer, uid,
		simulation.Job{Kind: a.kind.arrive, Arg: i})
	if m.refs == 0 {
		a.free(i)
	}
}

// release ends one event's use of msg i.
func (a *Algorithm) release(i int) {
	m := a.msgs.At(i)
	if m.refs--; m.refs == 0 {
		a.free(i)
	}
}

// free frees msg i, giving back its share of a broadcast's vector.
func (a *Algorithm) free(i int) {
	if m := a.msgs.At(i); m.shared != nil {
		m.shared.Release()
	}
	a.msgs.Free(i)
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
		// it: the client, parked until that reply, has no use for the
		// vector in between, its own model's view included. A duplicated
		// delivery has a private copy (fl's exchange gives one to every
		// delivery but the last), so it never merges another's reply.
		srv.core.HandleClientUpdate(m.client, m.vec, m.age, m.uid)
		srv.heardSince[m.client] = true
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
		m.to.core.HandleServerModel(m.from, m.vec, m.age, m.bid, m.uid, m.mem)
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
		c.CopyUpdates = env.Faults != nil // a restart may re-engage a client whose update is in flight
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
// state as its restart point, with a trace mark that lineage replays
// restores from (obs.KindCheckpoint). A down server cannot checkpoint.
func (a *Algorithm) Checkpoint(i int) {
	s := a.servers[i]
	if s.down || s.left {
		return
	}
	s.core.SnapshotInto(&s.ckpt)
	s.hasCkpt = true
	s.core.emit(obs.KindCheckpoint, obs.NoPeer, 0, "")
}

// Crash implements fault.Cluster: server i loses its volatile state —
// queued work, and the token if it held one — and discards every message
// addressed to it until Restart. It reports whether i was up to crash.
func (a *Algorithm) Crash(i int) bool {
	s := a.servers[i]
	if s.down || s.left {
		return false
	}
	s.down = true
	s.epoch++
	return true
}

// Restart implements fault.Cluster: server i comes back from its latest
// checkpoint (or from the pristine initial model if it never took one),
// traced as an obs.KindRestore naming which, and, after a short grace
// period, re-engages every client it has not heard from — their updates
// died with the crash, so without a fresh model their training loops
// would stay parked forever.
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
		s.core.emit(obs.KindRestore, i, 0, "")
	} else {
		s.adopt(NewServerCore(s.cfg, a.initial, false, s))
		s.core.emit(obs.KindRestore, obs.NoPeer, 0, "")
	}
	s.down = false
	s.epoch++
	clear(s.heardSince)
	a.reengageLater(s, nil)
}

// reengageLater schedules s's re-engagement pass: after reengageGrace,
// unless s has crashed, left or restarted since, s re-sends its model to
// each client of ids — of its own clients at that time when ids is nil —
// that is still its own and that it has not heard from.
func (a *Algorithm) reengageLater(s *simServer, ids []int) {
	epoch := s.epoch
	s.env.Sim.Schedule(reengageGrace, func() {
		if s.down || s.left || s.epoch != epoch {
			return
		}
		if ids == nil {
			ids = fl.SortedKeys(s.client)
		}
		for _, ci := range ids {
			if !s.heardSince[ci] && a.homeOf[ci] == s.id {
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

// Join implements fault.Cluster: a new server joins the ring, sponsored
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
	ns.core.emit(obs.KindRestore, sponsor, 0, "")
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

// Leave implements fault.Cluster: target departs the ring for good. The
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
		assign := geo.NearestBalanced(regions, survivors,
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
			if moved := movedTo[si]; len(moved) > 0 {
				a.reengageLater(a.servers[si], moved)
			}
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
	src.heardSince[ci] = false
	dst.client[ci] = c
	c.Spec.Server = to
	a.homeOf[ci] = to
}

// ServerParams returns the live parameter vectors of every server model,
// in one slice that the next call refills; used by observers to evaluate
// global progress.
func (a *Algorithm) ServerParams() [][]float64 {
	a.params = a.params[:0]
	for _, s := range a.servers {
		a.params = append(a.params, s.core.Params())
	}
	return a.params
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
		s.chain.joinReply(params)
		return
	}
	a := s.alg
	i, m := a.msgs.New()
	*m = msg{to: s, c: c, vec: params, age: age, lr: lr}
	m.refs = s.env.Net.Post(s.env.ServerEndpoint(s.id), s.env.ClientEndpoint(k), s.env.ModelBytes, geo.ClientServer, 0,
		simulation.Job{Kind: a.kind.reply, Arg: i})
	if m.refs == 0 {
		a.free(i)
	}
}

// deliverReply is a reply's arrival at its client: the merge that writes
// it is joined first.
func (a *Algorithm) deliverReply(i int) {
	m := a.msgs.At(i)
	s, c, params, age, lr := m.to, m.c, m.vec, m.age, m.lr
	a.release(i)
	s.chain.joinReply(params)
	c.HandleModel(params, age, lr)
}

// BroadcastModel implements Outbound. One pooled copy of the borrowed
// params is shared by the peer records (fl.SharedVec), one share each, and
// recycled when the last record is freed — after its last copy's job, or
// at once when the network drops every copy. mem needs no copy: Membership
// slices are immutable (ring package contract).
func (s *simServer) BroadcastModel(params []float64, age float64, bid int, uid obs.UID, mem ring.Membership) {
	a := s.alg
	shared := s.env.Snapshot(params, len(a.servers)-1)
	src := s.env.ServerEndpoint(s.id)
	for _, p := range a.servers {
		if p.id == s.id {
			continue
		}
		i, m := a.msgs.New()
		*m = msg{to: p, from: s.id, vec: shared.Vec, shared: shared, age: age, bid: bid, uid: uid, mem: mem,
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
		obs.RoundUID(s.id, t.Bid, 0), a.kind.token, i)
}
