package fault

import (
	"reflect"
	"testing"

	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/simulation"
	"github.com/spyker-fl/spyker/internal/transport"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"empty", Plan{}, true},
		{"crash", Plan{Events: []Event{{At: 1, Kind: KindCrash, Server: 2, Duration: 5}}}, true},
		{"crash holder", Plan{Events: []Event{{At: 1, Kind: KindCrash, Server: TokenHolder}}}, true},
		{"crash out of range", Plan{Events: []Event{{At: 1, Kind: KindCrash, Server: 4}}}, false},
		{"negative at", Plan{Events: []Event{{At: -1, Kind: KindCrash, Server: 0}}}, false},
		{"unknown kind", Plan{Events: []Event{{At: 1, Kind: Kind(99)}}}, false},
		{"partition", Plan{Events: []Event{{At: 1, Kind: KindPartition, Src: 0, Dst: 1, Duration: 3}}}, true},
		{"partition zero window", Plan{Events: []Event{{At: 1, Kind: KindPartition, Src: 0, Dst: 1}}}, false},
		{"drop bad p", Plan{Events: []Event{{At: 1, Kind: KindLinkDrop, Src: 0, Dst: 1, Duration: 3, P: 1.5}}}, false},
		{"wildcard link", Plan{Events: []Event{{At: 1, Kind: KindLinkDelay, Src: Any, Dst: Any, Duration: 3, Extra: 0.2}}}, true},
		{"negative checkpoint", Plan{CheckpointEvery: -1}, false},
	}
	for _, c := range cases {
		err := c.plan.Validate(4)
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestCrashPlanDeterministicAndSorted(t *testing.T) {
	a := CrashPlan(7, 4, 600, 30)
	b := CrashPlan(7, 4, 600, 30)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	if len(a.Events) != 4 {
		t.Fatalf("got %d events", len(a.Events))
	}
	prev := 0.0
	for _, e := range a.Events {
		if e.Kind != KindCrash || e.Server != TokenHolder || e.Duration != 30 {
			t.Fatalf("unexpected event %+v", e)
		}
		if e.At < 0.2*600 || e.At >= 0.85*600 {
			t.Fatalf("crash at %v outside the middle window", e.At)
		}
		if e.At < prev {
			t.Fatalf("events not sorted: %v after %v", e.At, prev)
		}
		prev = e.At
	}
	if c := CrashPlan(8, 4, 600, 30); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if err := a.Validate(4); err != nil {
		t.Fatalf("generated plan invalid: %v", err)
	}
}

// fakeCluster records injector calls.
type fakeCluster struct {
	n           int
	holder      int
	checkpoints []int
	crashes     []int
	restarts    []int
	drops       []int
	holds       bool
}

func (f *fakeCluster) NumServers() int  { return f.n }
func (f *fakeCluster) TokenHolder() int { return f.holder }
func (f *fakeCluster) Checkpoint(i int) { f.checkpoints = append(f.checkpoints, i) }
func (f *fakeCluster) Crash(i int) bool { f.crashes = append(f.crashes, i); return true }
func (f *fakeCluster) Restart(i int)    { f.restarts = append(f.restarts, i) }
func (f *fakeCluster) DropToken(i int) bool {
	f.drops = append(f.drops, i)
	return f.holds
}
func (f *fakeCluster) Join(sponsor int) int  { return -1 }
func (f *fakeCluster) Leave(target int) bool { return false }

func TestSimInjectorCrashRestartCycle(t *testing.T) {
	sim := simulation.New()
	net := geo.NewNetwork(sim, geo.Config{})
	cl := &fakeCluster{n: 3, holder: 2}
	rec := obs.NewTracer(128)
	in, err := NewSimInjector(Plan{Events: []Event{
		{At: 10, Kind: KindCrash, Server: TokenHolder, Duration: 5},
	}}, sim, net, cl)
	if err != nil {
		t.Fatal(err)
	}
	in.Instrument(rec)
	in.Arm()
	sim.Run(100)

	// Crash-consistent mode (CheckpointEvery 0): checkpoint right before
	// the crash, restart Duration later.
	if !reflect.DeepEqual(cl.checkpoints, []int{2}) {
		t.Fatalf("checkpoints = %v", cl.checkpoints)
	}
	if !reflect.DeepEqual(cl.crashes, []int{2}) {
		t.Fatalf("crashes = %v", cl.crashes)
	}
	if !reflect.DeepEqual(cl.restarts, []int{2}) {
		t.Fatalf("restarts = %v", cl.restarts)
	}
	if in.Injected() != 2 {
		t.Fatalf("Injected = %d, want 2 (crash+restart)", in.Injected())
	}
	evs := rec.Events()
	if len(evs) != 2 || evs[0].Note != "crash" || evs[1].Note != "restart" {
		t.Fatalf("fault events = %+v", evs)
	}
	if evs[0].Time != 10 || evs[1].Time != 15 {
		t.Fatalf("fault times = %v, %v", evs[0].Time, evs[1].Time)
	}
}

func TestSimInjectorPermanentCrashAndPeriodicCheckpoints(t *testing.T) {
	sim := simulation.New()
	net := geo.NewNetwork(sim, geo.Config{})
	cl := &fakeCluster{n: 2, holder: -1} // token in flight: falls back to 0
	in, err := NewSimInjector(Plan{
		CheckpointEvery: 40,
		Events:          []Event{{At: 50, Kind: KindCrash, Server: TokenHolder}},
	}, sim, net, cl)
	if err != nil {
		t.Fatal(err)
	}
	in.Arm()
	sim.Run(100)

	if !reflect.DeepEqual(cl.crashes, []int{0}) {
		t.Fatalf("crashes = %v (holder fallback broken)", cl.crashes)
	}
	if len(cl.restarts) != 0 {
		t.Fatalf("zero-duration crash restarted: %v", cl.restarts)
	}
	// Periodic checkpoints at t=40 and t=80, all servers each time; no
	// crash-consistent snapshot since CheckpointEvery > 0.
	if !reflect.DeepEqual(cl.checkpoints, []int{0, 1, 0, 1}) {
		t.Fatalf("checkpoints = %v", cl.checkpoints)
	}
}

func TestSimInjectorTokenDrop(t *testing.T) {
	sim := simulation.New()
	net := geo.NewNetwork(sim, geo.Config{})
	cl := &fakeCluster{n: 3, holder: 1, holds: true}
	in, err := NewSimInjector(Plan{Events: []Event{
		{At: 5, Kind: KindTokenDrop, Server: TokenHolder},
	}}, sim, net, cl)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewTracer(16)
	in.Instrument(rec)
	in.Arm()
	sim.Run(10)
	if !reflect.DeepEqual(cl.drops, []int{1}) {
		t.Fatalf("drops = %v", cl.drops)
	}
	if evs := rec.Events(); len(evs) != 1 || evs[0].Note != "token-drop" {
		t.Fatalf("events = %+v", evs)
	}
}

func TestSimInjectorPartitionWindow(t *testing.T) {
	sim := simulation.New()
	net := geo.NewNetwork(sim, geo.Config{})
	cl := &fakeCluster{n: 3}
	in, err := NewSimInjector(Plan{Events: []Event{
		{At: 10, Kind: KindPartition, Src: 0, Dst: 1, Duration: 10},
	}}, sim, net, cl)
	if err != nil {
		t.Fatal(err)
	}
	in.Arm()

	s0 := geo.Endpoint{ID: obs.ServerNode + 0, Region: geo.Paris}
	s1 := geo.Endpoint{ID: obs.ServerNode + 1, Region: geo.Paris}
	s2 := geo.Endpoint{ID: obs.ServerNode + 2, Region: geo.Paris}
	c0 := geo.Endpoint{ID: 0, Region: geo.Paris}
	var got []string
	send := func(at float64, from, to geo.Endpoint, tag string) {
		sim.ScheduleAt(at, func() {
			net.Send(from, to, 10, geo.ServerServer, func() { got = append(got, tag) })
		})
	}
	send(5, s0, s1, "before")  // window not yet open
	send(15, s0, s1, "fwd")    // partitioned
	send(15, s1, s0, "rev")    // partition is bidirectional
	send(15, s0, s2, "other")  // different link, unaffected
	send(15, c0, s0, "client") // client traffic never matches server rules
	send(25, s0, s1, "after")  // window closed
	sim.Run(100)

	want := []string{"before", "other", "client", "after"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
}

func TestSimInjectorLinkDropDeterministic(t *testing.T) {
	run := func() []bool {
		sim := simulation.New()
		net := geo.NewNetwork(sim, geo.Config{})
		cl := &fakeCluster{n: 2}
		in, err := NewSimInjector(Plan{Seed: 42, Events: []Event{
			{At: 0, Kind: KindLinkDrop, Src: Any, Dst: Any, Duration: 1000, P: 0.5},
		}}, sim, net, cl)
		if err != nil {
			t.Fatal(err)
		}
		in.Arm()
		s0 := geo.Endpoint{ID: obs.ServerNode + 0, Region: geo.Paris}
		s1 := geo.Endpoint{ID: obs.ServerNode + 1, Region: geo.Paris}
		delivered := make([]bool, 40)
		for i := 0; i < 40; i++ {
			i := i
			sim.ScheduleAt(float64(i), func() {
				net.Send(s0, s1, 10, geo.ServerServer, func() { delivered[i] = true })
			})
		}
		sim.Run(2000)
		return delivered
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different drop patterns")
	}
	n := 0
	for _, d := range a {
		if d {
			n++
		}
	}
	if n == 0 || n == 40 {
		t.Fatalf("p=0.5 drop delivered %d/40 — rule not applied", n)
	}
}

func TestSimInjectorArmTwicePanics(t *testing.T) {
	sim := simulation.New()
	net := geo.NewNetwork(sim, geo.Config{})
	in, err := NewSimInjector(Plan{}, sim, net, &fakeCluster{n: 1})
	if err != nil {
		t.Fatal(err)
	}
	in.Arm()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	in.Arm()
}

// sinkSender records sends for the live Conn wrapper tests.
type sinkSender struct {
	sent   []transport.Kind
	closed bool
}

func (s *sinkSender) Send(m *transport.Msg) error {
	s.sent = append(s.sent, m.Kind)
	return nil
}
func (s *sinkSender) Close() error {
	s.closed = true
	return nil
}

func TestConnForwardsByDefault(t *testing.T) {
	inner := &sinkSender{}
	c := WrapConn(inner, 1)
	if err := c.Send(&transport.Msg{Kind: transport.KindServerModel}); err != nil {
		t.Fatal(err)
	}
	if len(inner.sent) != 1 {
		t.Fatalf("sent %d", len(inner.sent))
	}
}

func TestConnDropAndSever(t *testing.T) {
	inner := &sinkSender{}
	c := WrapConn(inner, 1)
	c.SetDrop(1.0)
	for i := 0; i < 5; i++ {
		if err := c.Send(&transport.Msg{}); err != nil {
			t.Fatalf("drop must look like success, got %v", err)
		}
	}
	if len(inner.sent) != 0 {
		t.Fatalf("p=1 drop let %d through", len(inner.sent))
	}
	if err := c.Sever(); err != nil {
		t.Fatal(err)
	}
	if !inner.closed {
		t.Fatal("sever did not close the inner connection")
	}
	if err := c.Send(&transport.Msg{}); err != ErrSevered {
		t.Fatalf("post-sever Send = %v, want ErrSevered", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close after Sever = %v", err)
	}
}
