package fl

import (
	"math"
	"testing"

	"github.com/spyker-fl/spyker/internal/compress"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/simulation"
)

// echoModel records training calls and returns fixed parameters.
type echoModel struct {
	params  []float64
	trained int
	lastLR  float64
}

func (m *echoModel) NumParams() int        { return len(m.params) }
func (m *echoModel) Params() []float64     { return append([]float64(nil), m.params...) }
func (m *echoModel) ParamsView() []float64 { return m.params }
func (m *echoModel) SetParams(p []float64) { m.params = append([]float64(nil), p...) }
func (m *echoModel) Train(shard []int, epochs int, lr float64) {
	m.trained++
	m.lastLR = lr
	for i := range m.params {
		m.params[i] += 1
	}
}
func (m *echoModel) Evaluate() (float64, float64) { return 0, 0 }

// clientEnv builds a minimal environment around one client.
func clientEnv() (*Env, *simulation.Sim) {
	sim := simulation.New()
	net := geo.NewNetwork(sim, geo.Config{})
	env := &Env{
		Sim: sim, Net: net,
		Servers:    []ServerSpec{{ID: 0, Region: geo.Paris, Clients: []int{0}}},
		Clients:    []ClientSpec{{ID: 0, Region: geo.Paris, Server: 0, TrainDelay: 0.1, Epochs: 1}},
		NewModel:   func(int64) Model { return &echoModel{params: []float64{0, 0}} },
		ModelBytes: 100,
		Observer:   NopObserver{},
	}
	return env, sim
}

func TestSimClientTrainsAndDelivers(t *testing.T) {
	env, sim := clientEnv()
	model := &echoModel{params: []float64{0, 0}}
	var gotUpdate []float64
	var gotMeta float64
	var deliveredAt float64
	c := &SimClient{
		Env: env, Spec: env.Clients[0], Model: model,
		Deliver: func(id int, update []float64, meta float64, _ obs.UID) {
			gotUpdate, gotMeta = update, meta
			deliveredAt = sim.Now()
		},
	}
	c.HandleModel([]float64{5, 5}, 42, 0.05)
	sim.Run(10)
	if model.trained != 1 || model.lastLR != 0.05 {
		t.Fatalf("training not invoked correctly: %d, lr %v", model.trained, model.lastLR)
	}
	if gotUpdate == nil || gotUpdate[0] != 6 {
		t.Fatalf("update = %v, want trained params {6,6}", gotUpdate)
	}
	if gotMeta != 42 {
		t.Errorf("meta not echoed: %v", gotMeta)
	}
	// Delivery time = train delay + intra-region latency + size/bandwidth.
	if deliveredAt < 0.1 || deliveredAt > 0.2 {
		t.Errorf("delivered at %v", deliveredAt)
	}
}

func TestSimClientAbsencePostponesReply(t *testing.T) {
	env, sim := clientEnv()
	env.Clients[0].Absences = []Absence{{From: 0, Until: 2}}
	var deliveredAt float64
	c := &SimClient{
		Env: env, Spec: env.Clients[0], Model: &echoModel{params: []float64{0}},
		Deliver: func(int, []float64, float64, obs.UID) { deliveredAt = sim.Now() },
	}
	c.HandleModel([]float64{1}, 0, 0.05)
	sim.Run(10)
	if deliveredAt < 2.1 {
		t.Errorf("absent client replied at %v, want >= 2.1", deliveredAt)
	}
}

func TestSimClientCodecRoundtripsUpdate(t *testing.T) {
	env, sim := clientEnv()
	env.Codec = compress.Quantize8{}
	env.UpdateBytes = env.Codec.WireBytes(2)
	var got []float64
	c := &SimClient{
		Env: env, Spec: env.Clients[0],
		Model: &echoModel{params: []float64{0, 0}},
		Deliver: func(_ int, update []float64, _ float64, _ obs.UID) {
			got = update
		},
	}
	c.HandleModel([]float64{0, 0}, 0, 0.05)
	sim.Run(10)
	if got == nil {
		t.Fatal("no delivery")
	}
	// Both trained params are 1.0 (constant vector): q8 reconstructs a
	// constant vector exactly.
	if got[0] != 1 || got[1] != 1 {
		t.Errorf("codec roundtrip = %v", got)
	}
	// The wire size must be the codec's, not the raw model size.
	if env.Net.TotalBytes(geo.ClientServer) != env.UpdateBytes {
		t.Errorf("bytes = %d, want codec size %d",
			env.Net.TotalBytes(geo.ClientServer), env.UpdateBytes)
	}
}

func TestTamperKinds(t *testing.T) {
	env, _ := clientEnv()
	received := []float64{1, 1}
	trained := []float64{2, 3}

	flip := &SimClient{Env: env, Spec: ClientSpec{ID: 1, Byzantine: ByzantineSignFlip}}
	out := flip.tamper(received, trained)
	// received - 3*(trained-received) = 1 - 3*1 = -2 and 1 - 3*2 = -5.
	if out[0] != -2 || out[1] != -5 {
		t.Errorf("sign flip = %v", out)
	}

	noise := &SimClient{Env: env, Spec: ClientSpec{ID: 2, Byzantine: ByzantineNoise}}
	n1 := noise.tamper(received, trained)
	n2 := noise.tamper(received, trained)
	if n1[0] == trained[0] && n1[1] == trained[1] {
		t.Error("noise attack returned the honest update")
	}
	if n1[0] == n2[0] && n1[1] == n2[1] {
		t.Error("noise attack is constant across calls")
	}

	honest := &SimClient{Env: env, Spec: ClientSpec{ID: 3}}
	h := honest.tamper(received, trained)
	if h[0] != 2 || h[1] != 3 {
		t.Errorf("honest tamper path = %v", h)
	}

	// Scaled noise: the perturbation's norm is exactly five honest-delta
	// norms (delta = (1,2), |delta| = sqrt(5)).
	scaled := &SimClient{Env: env, Spec: ClientSpec{ID: 4, Byzantine: ByzantineScaledNoise}}
	s := scaled.tamper(received, trained)
	d0, d1 := s[0]-received[0], s[1]-received[1]
	want := 5 * math.Sqrt(5)
	if got := math.Sqrt(d0*d0 + d1*d1); math.Abs(got-want) > 1e-9 {
		t.Errorf("scaled-noise perturbation norm = %v, want %v", got, want)
	}

	// Collusion: two different clients produce the IDENTICAL payload — the
	// direction is shared, not per-client.
	c1 := &SimClient{Env: env, Spec: ClientSpec{ID: 5, Byzantine: ByzantineCollude}}
	c2 := &SimClient{Env: env, Spec: ClientSpec{ID: 6, Byzantine: ByzantineCollude}}
	p1 := c1.tamper(received, trained)
	p2 := c2.tamper(received, trained)
	if p1[0] != p2[0] || p1[1] != p2[1] {
		t.Errorf("colluders disagree: %v vs %v", p1, p2)
	}
	if p1[0] == trained[0] && p1[1] == trained[1] {
		t.Error("collusion attack returned the honest update")
	}
}

func TestProcQueueBusyUntil(t *testing.T) {
	sim := simulation.New()
	q := NewProcQueue(sim, 0, nil)
	q.Submit(2, onDone(sim, func() {}))
	if q.busyUntil != 2 {
		t.Errorf("busyUntil = %v", q.busyUntil)
	}
}

func TestClientUpdateBytesDefault(t *testing.T) {
	env := &Env{ModelBytes: 500}
	if env.ClientUpdateBytes() != 500 {
		t.Error("default should fall back to ModelBytes")
	}
	env.UpdateBytes = 80
	if env.ClientUpdateBytes() != 80 {
		t.Error("explicit UpdateBytes ignored")
	}
}

func TestNopObserverDoesNothing(t *testing.T) {
	var o NopObserver
	o.ClientUpdateProcessed(1, 2, 3, func() [][]float64 { return nil })
	o.QueueLength(1, 2, 3)
}

func TestProcForInFL(t *testing.T) {
	env := &Env{ServerProcMult: []float64{2, 0}}
	if env.ProcFor(0, 0.01) != 0.02 {
		t.Error("multiplier not applied")
	}
	if env.ProcFor(1, 0.01) != 0.01 {
		t.Error("zero multiplier should keep the baseline")
	}
	if env.ProcFor(9, 0.01) != 0.01 {
		t.Error("out of range should keep the baseline")
	}
}
