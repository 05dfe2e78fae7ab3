package main

import (
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/live"
	"github.com/spyker-fl/spyker/internal/spyker"
)

// TestValidateRefusesUnrunnableFlags: every role refuses the same
// deployments — fewer clients than servers, a negative period or timeout,
// a resume with nothing to resume from — and the command lines the e2e
// tests launch pass.
func TestValidateRefusesUnrunnableFlags(t *testing.T) {
	peers := []string{"127.0.0.1:7070", "127.0.0.1:7071"}
	cluster := opts{role: "cluster", servers: 2, clients: 8}
	server := opts{role: "server", id: 1, peers: peers, clients: 8, ckptEvery: 500 * time.Millisecond, reconnectEvery: 500 * time.Millisecond}
	clients := opts{role: "clients", peers: peers, clients: 8}
	joiner := opts{role: "server", join: "127.0.0.1:7070", clients: 8}
	for _, tc := range []struct {
		name string
		base opts
		edit func(*opts)
		want string // substring of the error, "" = accepted
	}{
		{"cluster", cluster, nil, ""},
		{"server", server, nil, ""},
		{"server resumed", server, func(o *opts) { o.resume, o.ckptPath = true, "s1.gob" }, ""},
		{"clients", clients, nil, ""},
		{"joiner", joiner, nil, ""},

		{"unknown role", cluster, func(o *opts) { o.role = "sever" }, "unknown -role"},
		{"cluster without servers", cluster, func(o *opts) { o.servers = 0 }, "-servers >= 1"},
		{"cluster with fewer clients than servers", cluster, func(o *opts) { o.clients = 1 }, "-clients >= -servers"},
		{"clients without peers", clients, func(o *opts) { o.peers = nil }, "needs -peers"},
		{"clients role with fewer clients than servers", clients, func(o *opts) { o.clients = 1 }, "-clients >= len(peers)"},
		{"server without peers", server, func(o *opts) { o.peers = nil }, "-id'th entry"},
		{"server id outside peers", server, func(o *opts) { o.id = 2 }, "-id'th entry"},
		{"server with fewer clients than servers", server, func(o *opts) { o.clients = 1 }, "-clients >= len(peers)"},
		{"resume without checkpoint", server, func(o *opts) { o.resume = true }, "-resume needs -checkpoint"},
		{"join with resume", joiner, func(o *opts) { o.resume, o.ckptPath = true, "s2.gob" }, "exclude each other"},
		{"negative token timeout", cluster, func(o *opts) { o.tokenTimeout = -2 }, "-token-timeout"},
		{"negative sync retry", server, func(o *opts) { o.syncRetry = -1 }, "-sync-retry"},
		{"negative checkpoint period", server, func(o *opts) { o.ckptEvery = -time.Second }, "-checkpoint-every"},
		{"negative reconnect period", server, func(o *opts) { o.reconnectEvery = -500 * time.Millisecond }, "-reconnect-every"},
	} {
		o := tc.base
		if tc.edit != nil {
			tc.edit(&o)
		}
		err := validate(o)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestResumeRefusesAnotherServersCheckpoint: a resumed server runs as
// whatever its checkpoint holds, so -resume refuses a checkpoint written by
// another -id, or holding a model of another size than the deployment's,
// naming both values — before it opens a listener — and accepts its own.
func TestResumeRefusesAnotherServersCheckpoint(t *testing.T) {
	const seed, clients = 1, 8
	factory, _, _, hyper := deployment(clients, 2, seed, 0, 0)
	initial := factory(seed).Params()
	dir := t.TempDir()
	write := func(name string, id int, w []float64) string {
		var st spyker.State
		cfg := live.ServerConfig(id, 2, live.ClientsAt(id, clients, 2), hyper)
		spyker.NewServerCore(cfg, w, false, nil).SnapshotInto(&st)
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := gob.NewEncoder(f).Encode(&st); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// A server that got past the check would listen, run for a millisecond
	// and return no error.
	server1 := opts{role: "server", id: 1, addr: "127.0.0.1:0", peers: []string{"127.0.0.1:7070", "127.0.0.1:7071"},
		clients: clients, seed: seed, resume: true, duration: time.Millisecond}
	for _, tc := range []struct {
		name string
		path string
		want []string // substrings of the error
	}{
		{"another server's", write("s0.gob", 0, initial), []string{"server 0's", "-id 1's"}},
		{"another model's", write("small.gob", 1, initial[:100]), []string{"100 parameters", fmt.Sprintf("has %d", len(initial))}},
	} {
		o := server1
		o.ckptPath = tc.path
		if err := validate(o); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		err := runServer(o)
		if err == nil {
			t.Fatalf("%s: resumed", tc.name)
		}
		for _, sub := range tc.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not name %q", tc.name, err, sub)
			}
		}
	}
	if _, err := readResume(write("s1.gob", 1, initial), 1, len(initial)); err != nil {
		t.Errorf("the server's own checkpoint was refused: %v", err)
	}
}
