package geo

import (
	"testing"

	"github.com/spyker-fl/spyker/internal/simulation"
)

func TestPerturbDropSkipsDeliveryButAccountsBytes(t *testing.T) {
	sim := simulation.New()
	net := NewNetwork(sim, Config{})
	net.SetPerturb(func(src, dst Endpoint, size int, kind Traffic) Verdict {
		return Verdict{Drop: true}
	})
	a := Endpoint{ID: 1, Region: Paris}
	b := Endpoint{ID: 2, Region: Sydney}
	delivered := 0
	net.Send(a, b, 100, ClientServer, func() { delivered++ })
	sim.Run(10)
	if delivered != 0 {
		t.Fatalf("dropped message delivered %d times", delivered)
	}
	if got := net.TotalBytes(ClientServer); got != 100 {
		t.Fatalf("dropped message not accounted: %d bytes", got)
	}
}

func TestPerturbDropDoesNotAdvanceFIFOWatermark(t *testing.T) {
	sim := simulation.New()
	net := NewNetwork(sim, Config{})
	drop := true
	net.SetPerturb(func(src, dst Endpoint, size int, kind Traffic) Verdict {
		return Verdict{Drop: drop}
	})
	a := Endpoint{ID: 1, Region: Paris}
	b := Endpoint{ID: 2, Region: Paris}
	// Drop a big message (10s serialization would push the watermark to
	// ~10s), then send a tiny one clean: it must arrive on its own
	// schedule, not behind the ghost of the dropped one.
	net.Send(a, b, 10*bandwidth, ClientServer, func() {})
	drop = false
	var deliveredAt float64
	net.Send(a, b, bandwidth/100, ClientServer, func() { deliveredAt = sim.Now() })
	sim.Run(100)
	want := AWSLatency(Paris, Paris) + 0.01
	if diff := deliveredAt - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("delivered at %v, want %v (dropped message left a FIFO shadow)", deliveredAt, want)
	}
}

func TestPerturbDupDeliversTwice(t *testing.T) {
	sim := simulation.New()
	net := NewNetwork(sim, Config{})
	net.SetPerturb(func(src, dst Endpoint, size int, kind Traffic) Verdict {
		return Verdict{Dup: true}
	})
	a := Endpoint{ID: 1, Region: Paris}
	b := Endpoint{ID: 2, Region: Sydney}
	delivered := 0
	net.Send(a, b, 100, ClientServer, func() { delivered++ })
	sim.Run(10)
	if delivered != 2 {
		t.Fatalf("duplicated message delivered %d times, want 2", delivered)
	}
}

func TestPerturbExtraDelayShiftsArrival(t *testing.T) {
	sim := simulation.New()
	net := NewNetwork(sim, Config{})
	net.SetPerturb(func(src, dst Endpoint, size int, kind Traffic) Verdict {
		return Verdict{ExtraDelay: 2.5}
	})
	src := Endpoint{ID: 1, Region: Paris}
	dst := Endpoint{ID: 2, Region: Sydney}
	var deliveredAt float64
	net.Send(src, dst, bandwidth/2, ClientServer, func() { deliveredAt = sim.Now() })
	sim.Run(10)
	want := AWSLatency(Paris, Sydney) + 0.5 + 2.5
	if diff := deliveredAt - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("delivered at %v, want %v", deliveredAt, want)
	}
}

func TestZeroVerdictMatchesUnperturbedSchedule(t *testing.T) {
	run := func(hook bool) (times []float64) {
		sim := simulation.New()
		net := NewNetwork(sim, Config{})
		if hook {
			net.SetPerturb(func(src, dst Endpoint, size int, kind Traffic) Verdict {
				return Verdict{}
			})
		}
		a := Endpoint{ID: 1, Region: Paris}
		b := Endpoint{ID: 2, Region: Sydney}
		for i := 0; i < 5; i++ {
			size := bandwidth / 10 * (i + 1) // 0.1s of serialization each step
			net.Send(a, b, size, ClientServer, func() { times = append(times, sim.Now()) })
			net.Send(b, a, size, ServerServer, func() { times = append(times, sim.Now()) })
		}
		sim.Run(100)
		return times
	}
	plain, hooked := run(false), run(true)
	if len(plain) != len(hooked) {
		t.Fatalf("delivery counts differ: %d vs %d", len(plain), len(hooked))
	}
	for i := range plain {
		if plain[i] != hooked[i] {
			t.Fatalf("delivery %d at %v with hook vs %v without", i, hooked[i], plain[i])
		}
	}
}
