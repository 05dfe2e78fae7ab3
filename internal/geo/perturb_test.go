package geo

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
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

// TestPostedPayloadsLeaveEachLinkInSendOrder: a link's arrivals are
// scheduled in send order at non-decreasing times, which is what lets it
// keep its messages' Jobs in a FIFO. Random traffic over six directed links
// with random drops, duplicates and extra delays, and a sink turned on and
// off mid-run: each link must run exactly the Jobs of its undropped
// messages, in send order, a duplicate right after its original; Post must
// report each message's deliveries; and every msg-recv event must name the
// message it precedes.
func TestPostedPayloadsLeaveEachLinkInSendOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sim := simulation.New()
		net := NewNetwork(sim, Config{})
		tr := obs.NewTracer(1 << 16)
		net.SetPerturb(func(src, dst Endpoint, size int, kind Traffic) Verdict {
			v := Verdict{Drop: rng.Intn(6) == 0, Dup: rng.Intn(5) == 0}
			if rng.Intn(3) == 0 {
				v.ExtraDelay = rng.Float64() * 0.3
			}
			return v
		})
		eps := []Endpoint{
			{ID: 0, Region: HongKong}, {ID: obs.ServerNode, Region: Paris}, {ID: obs.ServerNode + 1, Region: Sydney},
		}
		type key struct{ src, dst int }
		want := map[key][]int{}
		var got []int // payloads in arrival order
		gotOn := map[key][]int{}
		var sent []struct {
			link key
			n    int
		}
		linkOf := map[int]key{} // payload -> its link
		deliver := sim.Handle(func(payload int) {
			got = append(got, payload)
			k := linkOf[payload]
			gotOn[k] = append(gotOn[k], payload)
		})
		for i := 0; i < 400; i++ {
			a, b := rng.Intn(3), rng.Intn(2)
			if b >= a {
				b++
			}
			src, dst := eps[a], eps[b]
			size := rng.Intn(3) * bandwidth / 50
			payload := i
			sim.Schedule(rng.Float64()*4, func() {
				if payload%50 == 0 {
					if payload%100 == 0 {
						net.Instrument(tr)
					} else {
						net.Instrument(nil)
					}
				}
				k := key{a, b}
				linkOf[payload] = k
				n := net.Post(src, dst, size, ServerServer, obs.UID(payload+1), simulation.Job{Kind: deliver, Arg: payload})
				sent = append(sent, struct {
					link key
					n    int
				}{k, n})
				for range n {
					want[k] = append(want[k], payload)
				}
			})
		}
		sim.Run(math.Inf(1))
		total := 0
		for k, w := range want {
			if !slices.Equal(gotOn[k], w) {
				t.Fatalf("seed %d: link %v delivered %v, sent (undropped, duplicates doubled) %v", seed, k, gotOn[k], w)
			}
			total += len(w)
		}
		if len(got) != total {
			t.Fatalf("seed %d: %d deliveries, Post reported %d", seed, len(got), total)
		}
		drops, dups := 0, 0
		for _, s := range sent {
			drops += btoi(s.n == 0)
			dups += btoi(s.n == 2)
		}
		if drops == 0 || dups == 0 {
			t.Fatalf("seed %d: %d drops and %d duplicates: the perturbation exercised nothing", seed, drops, dups)
		}
		// Each msg-recv precedes its message's Job, so the traced arrivals'
		// UIDs are a subsequence of the arrival order.
		var recv []int
		for _, e := range tr.Events() {
			if e.Kind == obs.KindMsgRecv {
				recv = append(recv, int(e.UID)-1)
			}
		}
		if len(recv) == 0 {
			t.Fatalf("seed %d: the sink recorded no arrival", seed)
		}
		j := 0
		for _, p := range got {
			if j < len(recv) && recv[j] == p {
				j++
			}
		}
		if j != len(recv) {
			t.Fatalf("seed %d: msg-recv events %v are not in the order their Jobs ran", seed, recv)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
