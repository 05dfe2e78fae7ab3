package geo

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/spyker-fl/spyker/internal/simulation"
)

func TestLatencyMatrixMatchesPaper(t *testing.T) {
	// Spot-check paper Tab. 4 entries (converted to seconds).
	cases := []struct {
		src, dst Region
		want     float64
	}{
		{HongKong, HongKong, 0.00141},
		{HongKong, Paris, 0.1949},
		{Paris, Sydney, 0.27883},
		{Sydney, Paris, 0.28011},
		{California, California, 0.00214},
	}
	for _, c := range cases {
		if got := AWSLatency(c.src, c.dst); got != c.want {
			t.Errorf("AWSLatency(%v,%v) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

func TestRegionString(t *testing.T) {
	for _, r := range Regions {
		if r.String() == "" {
			t.Errorf("region %d has empty name", int(r))
		}
	}
	if Region(99).String() != "Region(99)" {
		t.Error("unknown region String")
	}
	if ClientServer.String() == "" || ServerServer.String() == "" {
		t.Error("traffic String broken")
	}
}

func TestSendDeliversAfterLatencyAndBandwidth(t *testing.T) {
	sim := simulation.New()
	net := NewNetwork(sim, Config{})
	src := Endpoint{ID: 1, Region: Paris}
	dst := Endpoint{ID: 2, Region: Sydney}
	var deliveredAt float64
	net.Send(src, dst, bandwidth/2, ClientServer, func() { deliveredAt = sim.Now() })
	sim.Run(10)
	want := AWSLatency(Paris, Sydney) + 0.5
	if diff := deliveredAt - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestFIFOPerLink(t *testing.T) {
	sim := simulation.New()
	net := NewNetwork(sim, Config{})
	src := Endpoint{ID: 1, Region: Paris}
	dst := Endpoint{ID: 2, Region: Paris}
	var order []int
	// First message is big (10s serialization), second tiny: without FIFO
	// the second would arrive first.
	net.Send(src, dst, 10*bandwidth, ClientServer, func() { order = append(order, 1) })
	net.Send(src, dst, 1, ClientServer, func() { order = append(order, 2) })
	sim.Run(100)
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("FIFO violated: %v", order)
	}
}

func TestByteAccounting(t *testing.T) {
	sim := simulation.New()
	net := NewNetwork(sim, Config{})
	a := Endpoint{ID: 1, Region: HongKong}
	b := Endpoint{ID: 2, Region: Paris}
	net.Send(a, b, 100, ClientServer, func() {})
	net.Send(b, a, 200, ClientServer, func() {})
	net.Send(a, b, 50, ServerServer, func() {})
	if got := net.TotalBytes(ClientServer); got != 300 {
		t.Errorf("client-server bytes = %d", got)
	}
	if got := net.TotalBytes(ServerServer); got != 50 {
		t.Errorf("server-server bytes = %d", got)
	}
	if got := len(net.Transfers()); got != 3 {
		t.Errorf("transfer log has %d entries", got)
	}
}

func TestBytesUntil(t *testing.T) {
	sim := simulation.New()
	net := NewNetwork(sim, Config{})
	a := Endpoint{ID: 1, Region: HongKong}
	b := Endpoint{ID: 2, Region: Paris}
	net.Send(a, b, 100, ClientServer, func() {})
	sim.Schedule(5, func() {
		net.Send(a, b, 200, ServerServer, func() {})
	})
	sim.Run(10)
	if got := net.BytesUntil(1); got != 100 {
		t.Errorf("BytesUntil(1) = %d", got)
	}
	if got := net.BytesUntil(10); got != 300 {
		t.Errorf("BytesUntil(10) = %d", got)
	}
}

func TestNegativeSizePanics(t *testing.T) {
	sim := simulation.New()
	net := NewNetwork(sim, Config{})
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	net.Send(Endpoint{}, Endpoint{}, -1, ClientServer, func() {})
}

func TestDefaultBandwidthIs100Mbps(t *testing.T) {
	sim := simulation.New()
	net := NewNetwork(sim, Config{})
	src := Endpoint{ID: 1, Region: Paris}
	dst := Endpoint{ID: 2, Region: Paris}
	var at float64
	net.Send(src, dst, 12_500_000, ClientServer, func() { at = sim.Now() }) // 1s at 100 Mbps
	sim.Run(10)
	want := AWSLatency(Paris, Paris) + 1
	if diff := at - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

// TestFIFOPropertyRandomTraffic: under arbitrary interleavings of sends
// with random sizes, deliveries on every directed link must preserve send
// order — the protocol correctness assumption of Alg. 2.
func TestFIFOPropertyRandomTraffic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sim := simulation.New()
		net := NewNetwork(sim, Config{})
		eps := []Endpoint{
			{ID: 0, Region: HongKong}, {ID: 1, Region: Paris},
			{ID: 2, Region: Sydney},
		}
		type planned struct {
			src, dst Endpoint
			at       float64
			size     int
			link     int
			seq      int
		}
		n := 5 + rng.Intn(40)
		plan := make([]planned, n)
		for i := range plan {
			src := eps[rng.Intn(len(eps))]
			dst := eps[rng.Intn(len(eps))]
			plan[i] = planned{
				src: src, dst: dst,
				at:   rng.Float64() * 2,
				size: rng.Intn(5000) * (bandwidth / 1000), // up to 5s of serialization
				link: src.ID*10 + dst.ID,
			}
		}
		// Sequence numbers follow actual send order (FIFO is a per-link
		// send-order property), so assign them after sorting by send time;
		// the stable sort matches the simulator's same-time tie-breaking
		// because events are scheduled in slice order.
		sort.SliceStable(plan, func(a, b int) bool { return plan[a].at < plan[b].at })
		seqs := map[int]int{}
		for i := range plan {
			plan[i].seq = seqs[plan[i].link]
			seqs[plan[i].link]++
		}
		type rec struct{ link, seq int }
		var got []rec
		for i := range plan {
			p := plan[i]
			sim.Schedule(p.at, func() {
				net.Send(p.src, p.dst, p.size, ClientServer, func() {
					got = append(got, rec{p.link, p.seq})
				})
			})
		}
		sim.Run(1e6)
		perLink := map[int]int{}
		for _, r := range got {
			if r.seq != perLink[r.link] {
				return false
			}
			perLink[r.link]++
		}
		return len(got) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
