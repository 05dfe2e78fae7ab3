package spyker_test

import (
	"math"
	"testing"

	"github.com/spyker-fl/spyker/internal/experiments"
	"github.com/spyker-fl/spyker/internal/fault"
	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// TestSimulatedSpykerRuns exercises the DES wiring end to end on a small
// deployment and checks the protocol-level invariants that the
// transport-agnostic core tests cannot see: exactly one token holder at
// quiescence, all servers aging, every client contributing.
func TestSimulatedSpykerRuns(t *testing.T) {
	env, rec, err := experiments.BuildEnv(experiments.Setup{
		Task:       experiments.TaskMNIST,
		NumServers: 3,
		NumClients: 9,
		Seed:       1,
		EvalEvery:  100,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lower the sync thresholds so token activity happens quickly.
	env.Hyper.HInter = 3
	env.Hyper.HIntra = 30

	alg := &spyker.Algorithm{}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	env.Sim.Run(15)

	if rec.Updates() == 0 {
		t.Fatal("no updates processed")
	}
	holders := 0
	synced := 0
	for i, core := range alg.Servers() {
		if core.HasToken() {
			holders++
		}
		if core.Age() <= 0 {
			t.Errorf("server %d never aged", i)
		}
		if core.SyncsJoined() > 0 {
			synced++
		}
	}
	if holders != 1 {
		t.Errorf("%d token holders at quiescence, want 1", holders)
	}
	if synced != 3 {
		t.Errorf("only %d/3 servers participated in a sync", synced)
	}
	for c := 0; c < len(env.Clients); c++ {
		if rec.ClientUpdates[c] == 0 {
			t.Errorf("client %d never contributed", c)
		}
	}
	if len(alg.ServerParams()) != 3 {
		t.Error("ServerParams length wrong")
	}
}

// modelsReuse records whether two calls of the observer's models func
// return the same slice.
type modelsReuse struct {
	fl.Observer
	calls int
	same  bool
}

func (o *modelsReuse) ClientUpdateProcessed(now float64, server, client int, models func() [][]float64) {
	a, b := models(), models()
	o.calls++
	o.same = len(a) == 3 && &a[0] == &b[0]
	o.Observer.ClientUpdateProcessed(now, server, client, models)
}

// TestObserverModelsReuseOneSlice: the observer's view of the server
// models is one slice refilled per call, not a fresh one per evaluation.
func TestObserverModelsReuseOneSlice(t *testing.T) {
	env, _, err := experiments.BuildEnv(experiments.Setup{
		Task: experiments.TaskMNIST, NumServers: 3, NumClients: 9, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := &modelsReuse{Observer: env.Observer}
	env.Observer = obs
	if err := (&spyker.Algorithm{}).Build(env); err != nil {
		t.Fatal(err)
	}
	env.Sim.Run(2)
	if obs.calls == 0 || !obs.same {
		t.Errorf("after %d merged updates: the models func reuses its slice %v, want true", obs.calls, obs.same)
	}
}

// TestSpykerNoDecayName covers the ablation variant's naming.
func TestSpykerNames(t *testing.T) {
	if (&spyker.Algorithm{}).Name() != "Spyker" {
		t.Error("Name wrong")
	}
	if (&spyker.Algorithm{DisableDecay: true}).Name() != "Spyker(no-decay)" {
		t.Error("no-decay Name wrong")
	}
}

// TestSpykerAgesStayCoherent: with frequent syncs the server ages must
// not drift apart beyond hInter plus the in-flight slack.
func TestSpykerAgeCoherence(t *testing.T) {
	env, _, err := experiments.BuildEnv(experiments.Setup{
		Task:       experiments.TaskMNIST,
		NumServers: 4,
		NumClients: 16,
		Seed:       2,
		EvalEvery:  1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	env.Hyper.HInter = 4
	env.Hyper.HIntra = 1e9

	alg := &spyker.Algorithm{}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	env.Sim.Run(20)

	var minA, maxA float64
	for i, core := range alg.Servers() {
		a := core.Age()
		if i == 0 || a < minA {
			minA = a
		}
		if i == 0 || a > maxA {
			maxA = a
		}
	}
	// Ages drift while broadcasts are in flight, so allow generous slack
	// over hInter; without the protocol the drift would grow unboundedly
	// (4 clients/server x ~6 updates/s x 20s = hundreds of age units).
	if maxA-minA > 20*env.Hyper.HInter {
		t.Errorf("server ages drifted %v apart (hInter=%v)", maxA-minA, env.Hyper.HInter)
	}
}

// modelLog records the server model after every merged update.
type modelLog struct {
	fl.Observer
	after [][]float64
}

func (l *modelLog) ClientUpdateProcessed(now float64, server, client int, models func() [][]float64) {
	l.after = append(l.after, append([]float64(nil), models()[0]...))
	l.Observer.ClientUpdateProcessed(now, server, client, models)
}

// TestDuplicatedUpdateMergesTheOriginalTwice: the client-update handler
// consumes its vector and writes the reply into it, so once faults are
// armed — and a link may deliver one message twice — every delivery must
// merge a copy of its own. With one server and one client whose first
// update is duplicated on the client→server link, the second delivery has
// to move the model further along the same direction as the first (both
// merge the same update u: w1-w0 = a1(u-w0), w2-w1 = a2(1-a1)(u-w0)). Had
// it been handed the first delivery's vector it would have merged the
// reply, which is the model itself, and moved nothing.
func TestDuplicatedUpdateMergesTheOriginalTwice(t *testing.T) {
	env, _, err := experiments.BuildEnv(experiments.Setup{
		Task:       experiments.TaskMNIST,
		NumServers: 1,
		NumClients: 1,
		Seed:       3,
		EvalEvery:  1000,
		MaxUpdates: 2,
		Faults:     &fault.Plan{}, // arms the fault glue; this test perturbs the link itself
	})
	if err != nil {
		t.Fatal(err)
	}
	log := &modelLog{Observer: env.Observer}
	env.Observer = log
	dups := 0
	env.Net.SetPerturb(func(src, dst geo.Endpoint, _ int, kind geo.Traffic) geo.Verdict {
		if kind == geo.ClientServer && dst.ID >= obs.ServerNode && dups == 0 {
			dups++
			return geo.Verdict{Dup: true}
		}
		return geo.Verdict{}
	})

	alg := &spyker.Algorithm{}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	w0 := append([]float64(nil), alg.ServerParams()[0]...)
	env.Sim.Run(30)

	if dups != 1 || len(log.after) != 2 {
		t.Fatalf("%d duplicated sends, %d merged updates; want 1 and 2", dups, len(log.after))
	}
	if got := alg.Servers()[0].UpdatesFrom(0); got != 2 {
		t.Fatalf("server merged %d updates from the client, want both deliveries", got)
	}
	w1, w2 := log.after[0], log.after[1]
	var first, second, cross float64
	for i := range w0 {
		d1, d2 := w1[i]-w0[i], w2[i]-w1[i]
		first += d1 * d1
		second += d2 * d2
		cross += d1 * d2
	}
	if first == 0 {
		t.Fatal("the first delivery did not move the model")
	}
	if second == 0 {
		t.Fatal("the duplicate moved nothing: it merged the first delivery's reply, not the client's update")
	}
	if cos := cross / math.Sqrt(first*second); cos < 1-1e-9 {
		t.Fatalf("the duplicate moved the model along another direction (cosine %v): it did not merge the same update", cos)
	}
}

// TestPerturbedMessagesKeepTheirRecords: the glue's messages carry their
// data in records that the last delivery frees. With faults armed, every
// message of every kind — updates, replies, age announcements, models,
// the token — is duplicated or dropped at random: a record freed after
// the first of two deliveries would hand the second one another message's
// data or none, and a dropped one must not be waited for. The run must
// keep merging, and the same seed must give the same models.
func TestPerturbedMessagesKeepTheirRecords(t *testing.T) {
	run := func() (updates int, models [][]float64) {
		env, _, err := experiments.BuildEnv(experiments.Setup{
			Task: experiments.TaskMNIST, NumServers: 3, NumClients: 9, Seed: 4, EvalEvery: 1000,
			Faults: &fault.Plan{}, // arms the fault glue; the test perturbs the links itself
		})
		if err != nil {
			t.Fatal(err)
		}
		env.Hyper.HInter, env.Hyper.HIntra = 2, 6
		log := &modelLog{Observer: env.Observer}
		env.Observer = log
		n := 0
		env.Net.SetPerturb(func(src, dst geo.Endpoint, _ int, _ geo.Traffic) geo.Verdict {
			n++
			return geo.Verdict{Dup: n%3 == 0, Drop: n%17 == 0 && src.ID >= obs.ServerNode && dst.ID >= obs.ServerNode}
		})
		alg := &spyker.Algorithm{}
		if err := alg.Build(env); err != nil {
			t.Fatal(err)
		}
		env.Sim.Run(20)
		return len(log.after), alg.ServerParams()
	}
	updates, models := run()
	if updates < 50 {
		t.Fatalf("%d updates merged under duplication: the run stalled", updates)
	}
	again, models2 := run()
	if again != updates {
		t.Fatalf("%d updates, then %d on the same seed", updates, again)
	}
	for i := range models {
		for j := range models[i] {
			if math.Float64bits(models[i][j]) != math.Float64bits(models2[i][j]) {
				t.Fatalf("server %d's model differs between two runs of one seed", i)
			}
		}
	}
}
