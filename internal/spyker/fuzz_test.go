package spyker

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// fuzzNet delivers messages between cores in a randomized order that
// still respects per-directed-link FIFO — the network assumption of
// Alg. 2 ("we assume that links are FIFO"). Every interleaving the fuzzer
// explores is therefore a legal asynchronous execution, and the protocol
// invariants must hold in all of them.
type fuzzNet struct {
	rng   *rand.Rand
	cores []*ServerCore
	links map[[2]int][]func() // (src,dst) -> queued deliveries, FIFO
}

func newFuzzNet(rng *rand.Rand) *fuzzNet {
	return &fuzzNet{rng: rng, links: make(map[[2]int][]func())}
}

func (n *fuzzNet) send(src, dst int, deliver func()) {
	key := [2]int{src, dst}
	n.links[key] = append(n.links[key], deliver)
}

// step delivers the head of one randomly chosen nonempty link; it
// reports false when nothing is in flight.
func (n *fuzzNet) step() bool {
	keys := make([][2]int, 0, len(n.links))
	for k, q := range n.links {
		if len(q) > 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return false
	}
	// Deterministic order of candidate links before the random pick, so
	// a given seed replays exactly.
	sortLinks(keys)
	k := keys[n.rng.Intn(len(keys))]
	d := n.links[k][0]
	n.links[k] = n.links[k][1:]
	d()
	return true
}

func sortLinks(keys [][2]int) {
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && less(keys[j], keys[j-1]); j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
}

func less(a, b [2]int) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// fuzzOut adapts one core's outbound calls onto the fuzz network.
type fuzzOut struct {
	id  int
	net *fuzzNet
}

func (o *fuzzOut) ReplyClient(int, []float64, float64, float64) {}

func (o *fuzzOut) BroadcastModel(p []float64, age float64, bid int, _ obs.UID, _ ring.Membership) {
	snapshot := tensor.Clone(p)
	for i := range o.net.cores {
		if i == o.id {
			continue
		}
		dst := i
		o.net.send(o.id, dst, func() {
			o.net.cores[dst].HandleServerModel(o.id, snapshot, age, bid, 0, ring.Membership{})
		})
	}
}

func (o *fuzzOut) BroadcastAge(age float64, _ ring.Membership) {
	for i := range o.net.cores {
		if i == o.id {
			continue
		}
		dst := i
		o.net.send(o.id, dst, func() {
			o.net.cores[dst].HandleAge(o.id, age, ring.Membership{})
		})
	}
}

func (o *fuzzOut) SendToken(t Token, next int) {
	o.net.send(o.id, next, func() {
		o.net.cores[next].HandleToken(t)
	})
}

// TestProtocolFuzz runs many randomized asynchronous executions of the
// full server-side protocol and asserts the safety and liveness
// invariants in each:
//
//   - at quiescence exactly one server holds the token (it is neither
//     lost nor duplicated);
//   - every triggered synchronization completes (no server is stuck with
//     ongoingSynchro and the token);
//   - ages are finite, non-negative, and the final age vector is
//     consistent across the knowledge maps;
//   - with drift forced above hInter, at least one synchronization
//     actually happens (liveness).
func TestProtocolFuzz(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runFuzzExecution(t, seed)
		})
	}
}

func runFuzzExecution(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(4) // 2..5 servers
	net := newFuzzNet(rng)
	net.cores = make([]*ServerCore, n)
	for i := 0; i < n; i++ {
		cfg := coreConfig(i, n, 3)
		cfg.HInter = float64(2 + rng.Intn(5))
		cfg.HIntra = float64(10 + rng.Intn(30))
		initial := []float64{rng.NormFloat64(), rng.NormFloat64()}
		net.cores[i] = NewServerCore(cfg, initial, i == 0, &fuzzOut{id: i, net: net})
	}

	// Interleave client updates with network deliveries.
	// The handler consumes the vector it is given, so every update is a
	// fresh one.
	clientParams := func() []float64 { return []float64{1, -1} }
	updates := 200 + rng.Intn(400)
	for u := 0; u < updates; u++ {
		target := rng.Intn(n)
		core := net.cores[target]
		core.HandleClientUpdate(rng.Intn(3), clientParams(), core.Age(), 0)
		// Deliver a random number of in-flight messages.
		for k := rng.Intn(4); k > 0; k-- {
			if !net.step() {
				break
			}
		}
	}
	// Drain everything.
	for net.step() {
	}

	// Safety: exactly one token holder.
	holders := 0
	for _, c := range net.cores {
		if c.HasToken() {
			holders++
		}
	}
	if holders != 1 {
		t.Fatalf("%d token holders after drain, want 1", holders)
	}
	// Safety: the holder is not stuck mid-synchronization (a drained
	// network means all broadcast models arrived, so cnt must have
	// completed and the token moved on).
	for i, c := range net.cores {
		if c.HasToken() && c.ongoingSynchro {
			t.Errorf("server %d holds the token with an unfinished sync", i)
		}
		if c.Age() < 0 || c.Age() != c.Age() { // NaN check
			t.Errorf("server %d has bad age %v", i, c.Age())
		}
		for j, a := range c.ages {
			if a < 0 || a != a {
				t.Errorf("server %d tracks bad age %v for %d", i, a, j)
			}
		}
		for _, p := range c.Params() {
			if p != p {
				t.Fatalf("server %d has NaN parameters", i)
			}
		}
	}
	// Liveness: plenty of drift was generated, so syncs must have run.
	totalSyncs := 0
	for _, c := range net.cores {
		totalSyncs += c.SyncsTriggered()
	}
	if totalSyncs == 0 {
		t.Error("no synchronization ever triggered despite forced drift")
	}
	// Convergence pressure: after all the exchanges, models must be
	// closer together than the client constant they were pulled toward
	// would allow if exchanges never happened.
	for i := range net.cores {
		for j := i + 1; j < len(net.cores); j++ {
			d := l2dist(net.cores[i].Params(), net.cores[j].Params())
			if d > 2 {
				t.Errorf("servers %d,%d ended %v apart", i, j, d)
			}
		}
	}
}

// TestServerMergesContract pins a known answer of Alg. 2's server merge:
// every merge moves a model toward another server's model by a weight
// below one, so with clients that hand each server its own model back (a
// zero delta, so every movement is a server merge) the server models can
// only draw together. At every drained point — nothing in flight, every
// broadcast merged — each coordinate's range across the servers lies
// inside the range of the drained point before, and the diameter of the
// server models (their largest pairwise distance) never rises.
func TestServerMergesContract(t *testing.T) {
	const (
		dim     = 4
		updates = 2000
		drainAt = 100
	)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4) // 2..5 servers
		net := newFuzzNet(rng)
		net.cores = make([]*ServerCore, n)
		for i := range net.cores {
			cfg := coreConfig(i, n, 3)
			cfg.HInter = float64(2 + rng.Intn(5))
			cfg.HIntra = float64(10 + rng.Intn(30))
			initial := make([]float64, dim)
			for c := range initial {
				initial[c] = 10 * rng.NormFloat64()
			}
			net.cores[i] = NewServerCore(cfg, initial, i == 0, &fuzzOut{id: i, net: net})
		}
		// lo, hi and diameter describe the server models at a drained point.
		measure := func() (lo, hi []float64, diameter float64) {
			lo = tensor.Clone(net.cores[0].Params())
			hi = tensor.Clone(lo)
			for i, a := range net.cores {
				for c, v := range a.Params() {
					lo[c], hi[c] = min(lo[c], v), max(hi[c], v)
				}
				for _, b := range net.cores[i+1:] {
					diameter = max(diameter, l2dist(a.Params(), b.Params()))
				}
			}
			return lo, hi, diameter
		}
		lo, hi, diameter := measure()
		for u := 1; u <= updates; u++ {
			core := net.cores[rng.Intn(n)]
			core.HandleClientUpdate(rng.Intn(3), tensor.Clone(core.Params()), core.Age(), 0)
			for k := rng.Intn(4); k > 0 && net.step(); k-- {
			}
			if u%drainAt != 0 {
				continue
			}
			for net.step() {
			}
			nlo, nhi, nd := measure()
			for c := range lo {
				if nlo[c] < lo[c] || nhi[c] > hi[c] {
					t.Fatalf("seed %d, update %d: coordinate %d spans [%v, %v], outside the previous [%v, %v]",
						seed, u, c, nlo[c], nhi[c], lo[c], hi[c])
				}
			}
			if nd > diameter {
				t.Fatalf("seed %d, update %d: diameter rose from %v to %v", seed, u, diameter, nd)
			}
			lo, hi, diameter = nlo, nhi, nd
		}
	}
}

// TestProtocolFuzzTokenNeverDuplicated runs a longer adversarial
// execution where age announcements race with token forwarding, and
// checks after every single delivery that at most one token exists.
func TestProtocolFuzzTokenNeverDuplicated(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 4
	net := newFuzzNet(rng)
	net.cores = make([]*ServerCore, n)
	for i := 0; i < n; i++ {
		cfg := coreConfig(i, n, 2)
		cfg.HInter = 2
		cfg.HIntra = 8
		net.cores[i] = NewServerCore(cfg, []float64{0, 0}, i == 0, &fuzzOut{id: i, net: net})
	}
	countHolders := func() int {
		h := 0
		for _, c := range net.cores {
			if c.HasToken() {
				h++
			}
		}
		return h
	}
	tokensInFlight := func() int {
		// A token in flight lives in a link queue; we cannot see message
		// types, so we conservatively check only the holder count bound.
		return 0
	}
	_ = tokensInFlight
	for u := 0; u < 600; u++ {
		core := net.cores[rng.Intn(n)]
		core.HandleClientUpdate(0, []float64{1, 1}, core.Age(), 0)
		for k := rng.Intn(3); k > 0; k-- {
			if !net.step() {
				break
			}
		}
		if h := countHolders(); h > 1 {
			t.Fatalf("token duplicated at step %d: %d holders", u, h)
		}
	}
	for net.step() {
		if h := countHolders(); h > 1 {
			t.Fatal("token duplicated during drain")
		}
	}
	if countHolders() != 1 {
		t.Fatalf("token lost: %d holders after drain", countHolders())
	}
}
