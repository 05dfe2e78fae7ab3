package main

import (
	"strings"
	"testing"
	"time"
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
