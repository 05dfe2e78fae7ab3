package live

import (
	"reflect"
	"testing"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/geo"
	"github.com/spyker-fl/spyker/internal/simulation"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// TestClientPlacement: separate OS processes compute the placement
// independently, so HomeOf and ClientsAt must describe the same partition —
// every client has exactly one home, and the per-server counts sum to the
// population.
func TestClientPlacement(t *testing.T) {
	for _, tc := range []struct{ clients, servers int }{{8, 2}, {9, 2}, {10, 3}, {3, 3}, {16, 5}} {
		homed := make([]int, tc.servers)
		for ci := 0; ci < tc.clients; ci++ {
			home := HomeOf(ci, tc.clients, tc.servers)
			if home < 0 || home >= tc.servers {
				t.Fatalf("(%d,%d): client %d homes at %d", tc.clients, tc.servers, ci, home)
			}
			homed[home]++
		}
		total := 0
		for s, n := range homed {
			if got := ClientsAt(s, tc.clients, tc.servers); got != n {
				t.Errorf("(%d,%d): ClientsAt(%d) = %d, HomeOf homes %d clients there", tc.clients, tc.servers, s, got, n)
			}
			total += ClientsAt(s, tc.clients, tc.servers)
		}
		if total != tc.clients {
			t.Errorf("(%d,%d): per-server counts sum to %d", tc.clients, tc.servers, total)
		}
	}
}

// TestBothRuntimesDeriveTheSameConfig: one Hyper, with every field set to
// a value of its own, must give a DES server and a live server the same
// spyker.Config (the DES ablation switch DisableDecay aside), and no
// Config field named after a Hyper field may come out different from it —
// which is how the live runtime used to lose RobustClipFactor.
func TestBothRuntimesDeriveTheSameConfig(t *testing.T) {
	const servers, clients = 2, 6
	var h fl.Hyper
	hv := reflect.ValueOf(&h).Elem()
	for i := 0; i < hv.NumField(); i++ {
		switch f := hv.Field(i); f.Kind() {
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Int:
			f.SetInt(int64(i) + 1)
		case reflect.Bool:
			f.SetBool(true)
		}
	}

	factory, shards, _ := liveFactory(t)
	sim := simulation.New()
	env := &fl.Env{
		Sim: sim, Net: geo.NewNetwork(sim, geo.Config{}),
		Servers:  []fl.ServerSpec{{ID: 0, Region: geo.HongKong}, {ID: 1, Region: geo.Paris}},
		NewModel: factory, Hyper: h, Seed: 1,
	}
	for ci := 0; ci < clients; ci++ {
		srv := HomeOf(ci, clients, servers)
		env.Clients = append(env.Clients, fl.ClientSpec{
			ID: ci, Region: env.Servers[srv].Region, Server: srv, Shard: shards[ci], TrainDelay: 0.15, Epochs: 1,
		})
		env.Servers[srv].Clients = append(env.Servers[srv].Clients, ci)
	}
	alg := &spyker.Algorithm{}
	if err := alg.Build(env); err != nil {
		t.Fatal(err)
	}
	for i, core := range alg.Servers() {
		var st spyker.State
		core.SnapshotInto(&st)
		live := ServerConfig(i, servers, ClientsAt(i, clients, servers), h)
		if st.Config != live {
			t.Errorf("server %d: DES derived %+v, live derived %+v", i, st.Config, live)
		}
		cv := reflect.ValueOf(live)
		for f := 0; f < cv.NumField(); f++ {
			name := cv.Type().Field(f).Name
			if hf := hv.FieldByName(name); hf.IsValid() && !reflect.DeepEqual(hf.Interface(), cv.Field(f).Interface()) {
				t.Errorf("server %d: Config.%s = %v, Hyper.%s = %v", i, name, cv.Field(f).Interface(), name, hf.Interface())
			}
		}
	}
}
