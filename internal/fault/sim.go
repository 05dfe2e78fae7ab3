package fault

import (
	"fmt"
	"math/rand"

	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/simulation"
)

// Cluster is the control surface a simulated server cluster exposes to
// the injector. spyker.Algorithm implements it.
type Cluster interface {
	// NumServers reports the cluster size.
	NumServers() int
	// TokenHolder reports which server currently holds the token, or -1
	// if none does (token in flight, or lost).
	TokenHolder() int
	// Checkpoint snapshots server i's current state as its restart point.
	Checkpoint(i int)
	// Crash takes server i down, if it is up (it reports whether): volatile
	// state (held token included) is lost and deliveries addressed to it
	// are discarded until Restart.
	Crash(i int) bool
	// Restart brings a crashed server i back from its latest checkpoint,
	// or from its initial state if it was never checkpointed.
	Restart(i int)
	// DropToken discards the token if server i holds it, reporting
	// whether it did.
	DropToken(i int) bool
	// Join adds a new server sponsored by the given member (falling back
	// to any live member if it is gone) and returns its stable ID, or -1
	// when no live sponsor exists.
	Join(sponsor int) int
	// Leave removes server target from the ring for good, reporting
	// whether it was live to remove.
	Leave(target int) bool
}

// linkRule is one compiled time-windowed link fault.
type linkRule struct {
	kind     Kind
	src, dst int // server indices, or Any
	from, to float64
	extra    float64
	p        float64
}

// matches reports whether the rule covers a message from endpoint src to
// endpoint dst (geo endpoint IDs; servers carry the obs.ServerNode
// offset). Link rules only ever cover server-server traffic; partitions
// match both directions.
func (r *linkRule) matches(srcID, dstID int) bool {
	if srcID < obs.ServerNode || dstID < obs.ServerNode {
		return false
	}
	s, d := srcID-obs.ServerNode, dstID-obs.ServerNode
	fwd := (r.src == Any || r.src == s) && (r.dst == Any || r.dst == d)
	if r.kind == KindPartition {
		rev := (r.src == Any || r.src == d) && (r.dst == Any || r.dst == s)
		return fwd || rev
	}
	return fwd
}

// SimInjector executes a Plan against the discrete-event runtime: crash,
// restart, checkpoint, and token-drop events are scheduled on the
// simulator, and link faults are applied through the geo network's
// perturb hook. All randomness comes from one generator seeded with
// Plan.Seed and consumed in schedule order, so runs are byte-reproducible.
type SimInjector struct {
	plan    Plan
	sim     *simulation.Sim
	net     *geo.Network
	cluster Cluster
	rng     *rand.Rand
	rules   []linkRule
	sink    obs.Sink

	injected int
	armed    bool
}

// NewSimInjector builds an injector for the given runtime. The plan is
// validated against the cluster size. Nothing is scheduled until Arm.
func NewSimInjector(plan Plan, sim *simulation.Sim, net *geo.Network, cluster Cluster) (*SimInjector, error) {
	if err := plan.Validate(cluster.NumServers()); err != nil {
		return nil, err
	}
	return &SimInjector{
		plan:    plan,
		sim:     sim,
		net:     net,
		cluster: cluster,
		rng:     rand.New(rand.NewSource(plan.Seed)),
		sink:    obs.Nop{},
	}, nil
}

// Instrument makes the injector emit obs.KindFault events as faults are
// applied. Must be called before Arm to cover everything.
func (in *SimInjector) Instrument(sink obs.Sink) {
	if sink == nil {
		sink = obs.Nop{}
	}
	in.sink = sink
}

// Injected reports how many fault events have been applied so far.
func (in *SimInjector) Injected() int { return in.injected }

// Arm schedules every planned event and installs the network perturb
// hook if the plan contains link faults. Call once, before Sim.Run.
func (in *SimInjector) Arm() {
	if in.armed {
		panic("fault: SimInjector armed twice")
	}
	in.armed = true
	for _, e := range in.plan.Events {
		switch e.Kind {
		case KindCrash:
			ev := e
			in.sim.ScheduleAt(ev.At, func() { in.crash(ev) })
		case KindTokenDrop:
			ev := e
			in.sim.ScheduleAt(ev.At, func() { in.dropToken(ev) })
		case KindJoin, KindLeave:
			ev := e
			in.sim.ScheduleAt(ev.At, func() { in.elastic(ev) })
		case KindPartition, KindLinkDelay, KindLinkDrop, KindLinkDup:
			in.rules = append(in.rules, linkRule{
				kind: e.Kind, src: e.Src, dst: e.Dst,
				from: e.At, to: e.At + e.Duration,
				extra: e.Extra, p: e.P,
			})
			ev := e
			in.sim.ScheduleAt(ev.At, func() { in.noteLinkFault(ev) })
		}
	}
	if len(in.rules) > 0 {
		in.net.SetPerturb(in.perturb)
	}
	if every := in.plan.CheckpointEvery; every > 0 {
		in.sim.ScheduleAt(every, func() { in.periodicCheckpoint(every) })
	}
}

// resolve maps a target (possibly the TokenHolder sentinel) to a concrete
// server index at injection time.
func (in *SimInjector) resolve(target int) int {
	if target != TokenHolder {
		return target
	}
	if h := in.cluster.TokenHolder(); h >= 0 {
		return h
	}
	return 0 // token in flight: fall back to the ring head
}

func (in *SimInjector) crash(e Event) {
	target := in.resolve(e.Server)
	if in.plan.CheckpointEvery == 0 {
		// Crash-consistent mode: snapshot the instant before the crash.
		in.cluster.Checkpoint(target)
	}
	if !in.cluster.Crash(target) {
		// Already down or gone (a token-holder crash whose token is in
		// flight falls back to server 0): no fault, so no restart either.
		in.emit(obs.Event{Time: in.sim.Now(), Kind: obs.KindFault, Node: target, Peer: obs.NoPeer, Note: "crash-miss"})
		return
	}
	in.injected++
	in.emit(obs.Event{
		Time: in.sim.Now(), Kind: obs.KindFault,
		Node: target, Peer: obs.NoPeer, Note: "crash",
	})
	if e.Duration > 0 {
		in.sim.ScheduleAt(in.sim.Now()+e.Duration, func() {
			in.cluster.Restart(target)
			in.injected++
			in.emit(obs.Event{
				Time: in.sim.Now(), Kind: obs.KindFault,
				Node: target, Peer: obs.NoPeer, Note: "restart",
			})
		})
	}
}

func (in *SimInjector) dropToken(e Event) {
	target := in.resolve(e.Server)
	held := in.cluster.DropToken(target)
	in.injected++
	note := "token-drop"
	if !held {
		note = "token-drop-miss"
	}
	in.emit(obs.Event{
		Time: in.sim.Now(), Kind: obs.KindFault,
		Node: target, Peer: obs.NoPeer, Note: note,
	})
}

// elastic applies a membership event (KindJoin/KindLeave).
func (in *SimInjector) elastic(e Event) {
	target := in.resolve(e.Server)
	in.injected++
	var note string
	switch e.Kind {
	case KindJoin:
		newID := in.cluster.Join(target)
		if newID < 0 {
			note = fmt.Sprintf("join-miss (sponsor %d)", target)
			target = obs.NoPeer
		} else {
			note = fmt.Sprintf("join s%d (sponsor %d)", newID, target)
			target = newID
		}
	case KindLeave:
		if in.cluster.Leave(target) {
			note = fmt.Sprintf("leave s%d", target)
		} else {
			note = fmt.Sprintf("leave-miss s%d", target)
		}
	}
	in.emit(obs.Event{
		Time: in.sim.Now(), Kind: obs.KindFault,
		Node: target, Peer: obs.NoPeer, Note: note,
	})
}

func (in *SimInjector) noteLinkFault(e Event) {
	in.injected++
	in.emit(obs.Event{
		Time: in.sim.Now(), Kind: obs.KindFault,
		Node: obs.NoPeer, Peer: obs.NoPeer,
		Note: fmt.Sprintf("%v %d->%d", e.Kind, e.Src, e.Dst),
	})
}

func (in *SimInjector) periodicCheckpoint(every float64) {
	for i := 0; i < in.cluster.NumServers(); i++ {
		in.cluster.Checkpoint(i)
	}
	in.sim.ScheduleAt(in.sim.Now()+every, func() { in.periodicCheckpoint(every) })
}

func (in *SimInjector) emit(e obs.Event) {
	if in.sink.Enabled() {
		in.sink.Emit(e)
	}
}

// perturb is the geo.PerturbFunc: it scans the compiled link rules for
// ones whose window covers now and whose link matches, accumulating a
// verdict. It runs synchronously in schedule order, so the rng draws are
// deterministic.
func (in *SimInjector) perturb(src, dst geo.Endpoint, size int, kind geo.Traffic) geo.Verdict {
	now := in.sim.Now()
	var v geo.Verdict
	for i := range in.rules {
		r := &in.rules[i]
		if now < r.from || now >= r.to || !r.matches(src.ID, dst.ID) {
			continue
		}
		switch r.kind {
		case KindPartition:
			v.Drop = true
		case KindLinkDelay:
			v.ExtraDelay += r.extra
		case KindLinkDrop:
			if in.rng.Float64() < r.p {
				v.Drop = true
			}
		case KindLinkDup:
			if in.rng.Float64() < r.p {
				v.Dup = true
			}
		}
	}
	return v
}
