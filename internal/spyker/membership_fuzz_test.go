package spyker

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/tensor"
)

// memFuzz extends the fuzzNet harness with elastic membership: the core
// set grows on joins (AdmitMember + RestoreServerCore) and shrinks on
// leaves and crashes (dead cores silently discard deliveries, like a
// closed TCP endpoint). Every broadcast carries the sender's membership
// view exactly as the live transport headers do.
type memFuzz struct {
	net  *fuzzNet
	dead []bool
	now  float64
}

func (f *memFuzz) alive(i int) bool {
	return i >= 0 && i < len(f.net.cores) && f.net.cores[i] != nil && !f.dead[i]
}

// aliveIDs returns the live core IDs in ascending order.
func (f *memFuzz) aliveIDs() []int {
	var ids []int
	for i := range f.net.cores {
		if f.alive(i) {
			ids = append(ids, i)
		}
	}
	return ids
}

// memOut adapts one core's outbound calls onto the shared network with
// membership headers attached, delivering through the epoch-tagged
// handlers. Deliveries to dead or not-yet-joined cores are discarded at
// delivery time.
type memOut struct {
	id int
	f  *memFuzz
}

func (o *memOut) ReplyClient(int, []float64, float64, float64) {}

func (o *memOut) BroadcastModel(p []float64, age float64, bid int, uid obs.UID, mem ring.Membership) {
	snap := tensor.Clone(p)
	m := mem.Clone()
	for i := range o.f.net.cores {
		if i == o.id {
			continue
		}
		dst := i
		o.f.net.send(o.id, dst, func() {
			if o.f.alive(dst) {
				o.f.net.cores[dst].HandleServerModel(o.id, snap, age, bid, uid, m)
			}
		})
	}
}

func (o *memOut) BroadcastAge(age float64, mem ring.Membership) {
	m := mem.Clone()
	for i := range o.f.net.cores {
		if i == o.id {
			continue
		}
		dst := i
		o.f.net.send(o.id, dst, func() {
			if o.f.alive(dst) {
				o.f.net.cores[dst].HandleAge(o.id, age, m)
			}
		})
	}
}

func (o *memOut) SendToken(t Token, next int) {
	o.f.net.send(o.id, next, func() {
		if o.f.alive(next) {
			// Token.Ages and Token.Mem are owned by the frame (the core
			// cloned them at send time), so they pass through unchanged.
			o.f.net.cores[next].HandleToken(t)
		}
		// A token addressed to a dead server is lost with it; the
		// survivors recover it through Tick's silence timeout.
	})
}

// TestMembershipFuzz runs randomized interleavings of joins, leaves,
// crashes, token drops, client updates, and recovery-clock ticks over a
// 2-6 server elastic ring, and asserts that once the network quiesces
// every surviving server converged on one membership view — with finite
// ages and non-NaN models throughout.
func TestMembershipFuzz(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runMembershipFuzz(t, seed)
		})
	}
}

const memFuzzMaxServers = 6

func runMembershipFuzz(t *testing.T, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n0 := 2 + rng.Intn(3) // 2..4 initial servers
	f := &memFuzz{net: newFuzzNet(rng)}
	f.net.cores = make([]*ServerCore, n0)
	f.dead = make([]bool, n0)
	mkCfg := func(id, n int) Config {
		cfg := coreConfig(id, n, 3)
		cfg.HInter = float64(2 + rng.Intn(3))
		cfg.HIntra = float64(10 + rng.Intn(20))
		cfg.TokenTimeout = 5
		cfg.SyncRetry = 3
		return cfg
	}
	for i := 0; i < n0; i++ {
		initial := []float64{rng.NormFloat64(), rng.NormFloat64()}
		f.net.cores[i] = NewServerCore(mkCfg(i, n0), initial, i == 0, &memOut{id: i, f: f})
	}

	// The handler consumes the vector it is given, so every update is a
	// fresh one.
	clientParams := func() []float64 { return []float64{1, -1} }
	update := func() {
		ids := f.aliveIDs()
		if len(ids) == 0 {
			return
		}
		c := f.net.cores[ids[rng.Intn(len(ids))]]
		c.HandleClientUpdate(rng.Intn(3), clientParams(), c.Age(), 0)
	}
	tick := func(dt float64) {
		f.now += dt
		for _, id := range f.aliveIDs() {
			f.net.cores[id].Tick(f.now)
		}
	}
	join := func() {
		ids := f.aliveIDs()
		if len(ids) == 0 || len(ids) >= memFuzzMaxServers {
			return
		}
		sponsor := ids[rng.Intn(len(ids))]
		sp := f.net.cores[sponsor]
		if !sp.Membership().Contains(sponsor) {
			return // an excluded server cannot sponsor
		}
		newID := sp.Membership().NextID()
		st, err := sp.AdmitMember(newID)
		if err != nil {
			t.Fatalf("admit %d: %v", newID, err)
		}
		for len(f.net.cores) <= newID {
			f.net.cores = append(f.net.cores, nil)
			f.dead = append(f.dead, true)
		}
		c, err := RestoreServerCore(st, &memOut{id: newID, f: f})
		if err != nil {
			t.Fatalf("restore joiner %d: %v", newID, err)
		}
		f.net.cores[newID] = c
		f.dead[newID] = false
	}
	leave := func(exclude bool) {
		ids := f.aliveIDs()
		if len(ids) < 2 {
			return
		}
		target := ids[rng.Intn(len(ids))]
		tc := f.net.cores[target]
		if exclude {
			// Graceful leave: hand the token off if idle, drop otherwise.
			if tc.HasToken() && !tc.YieldToken() {
				tc.DropToken()
			}
		}
		f.dead[target] = true
		if exclude {
			var coord *ServerCore
			for _, id := range f.aliveIDs() {
				if id != target {
					coord = f.net.cores[id]
					break
				}
			}
			if coord != nil {
				coord.ExcludeMember(target)
			}
		}
	}
	dropToken := func() {
		ids := f.aliveIDs()
		if len(ids) == 0 {
			return
		}
		f.net.cores[ids[rng.Intn(len(ids))]].DropToken()
	}

	ops := 250 + rng.Intn(250)
	for u := 0; u < ops; u++ {
		switch r := rng.Float64(); {
		case r < 0.55:
			update()
		case r < 0.70:
			tick(1)
		case r < 0.80:
			for k := 2 + rng.Intn(4); k > 0; k-- {
				if !f.net.step() {
					break
				}
			}
		case r < 0.87:
			join()
		case r < 0.93:
			leave(true)
		case r < 0.96:
			leave(false) // crash: no exclusion, survivors keep the slot
		default:
			dropToken()
		}
		for k := rng.Intn(3); k > 0; k-- {
			if !f.net.step() {
				break
			}
		}
	}
	for f.net.step() {
	}

	// Quiesce: natural protocol traffic (client updates growing ages, plus
	// recovery ticks) must carry the freshest membership to every
	// survivor — including late joiners that missed earlier announcements.
	agreed := func() bool {
		ids := f.aliveIDs()
		for _, id := range ids[1:] {
			if ring.Compare(f.net.cores[id].Membership(), f.net.cores[ids[0]].Membership()) != 0 {
				return false
			}
		}
		return true
	}
	rounds := 0
	for ; rounds < 40 && !agreed(); rounds++ {
		for _, id := range f.aliveIDs() {
			c := f.net.cores[id]
			c.HandleClientUpdate(rng.Intn(3), clientParams(), c.Age(), 0)
		}
		tick(6) // past TokenTimeout: a lost token regenerates
		for f.net.step() {
		}
	}
	if !agreed() {
		ids := f.aliveIDs()
		for _, id := range ids {
			t.Logf("server %d view: %v", id, f.net.cores[id].Membership())
		}
		t.Fatalf("survivors %v never agreed on membership after %d quiesce rounds", ids, rounds)
	}

	// Sanity: every surviving core is numerically sound.
	for _, id := range f.aliveIDs() {
		c := f.net.cores[id]
		if c.Age() < 0 || c.Age() != c.Age() {
			t.Errorf("server %d has bad age %v", id, c.Age())
		}
		for j, a := range c.ages {
			if a < 0 || a != a {
				t.Errorf("server %d tracks bad age %v for %d", id, a, j)
			}
		}
		for _, p := range c.Params() {
			if p != p {
				t.Fatalf("server %d has NaN parameters", id)
			}
		}
	}
}
