package live

import (
	"errors"
	"math"
	"testing"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/transport"
)

// TestDispatchAllocations pins what dispatch allocates on each of its
// paths, on server 0 of a two-server ring that never synchronizes on its
// own: every refusal, a client update with and without the staleness
// histogram, and each inter-server kind. Each path runs once before it is
// measured, as a reader loop runs it many times: the server-model frame
// joins its round then, and is measured merging into it.
func TestDispatchAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's own allocations count against the bound")
	}
	cfg := ServerConfig(0, 2, 1, fl.DefaultHyper(2, 2))
	cfg.HInter, cfg.HIntra = math.Inf(1), math.Inf(1)
	s, err := NewServer(0, "127.0.0.1:0", cfg, make([]float64, 64), false)
	if err != nil {
		t.Fatal(err)
	}
	const client = 7
	link := &clientLink{out: transport.Msg{Params: make([]float64, 64)}}
	s.mu.Lock()
	s.clients[client] = link
	mem := s.core.Membership()
	s.mu.Unlock()
	defer func() {
		s.unregisterClient(client, link) // it has no connection to close
		s.Close()
	}()

	// update hands the core the reply parked by the previous update, as
	// the reader's pool would.
	update := &transport.Msg{Kind: transport.KindClientUpdate, From: client}
	nextUpdate := func() {
		update.Params, link.out.Params = link.out.Params, nil
	}
	server := func(kind transport.Kind) *transport.Msg {
		return &transport.Msg{Kind: kind, From: 1, Params: make([]float64, 64), Bid: 5,
			Epoch: mem.Epoch, Members: mem.Members, UID: obs.RoundUID(1, 5, 0)}
	}
	token := &transport.Msg{Kind: transport.KindToken, From: 1, Bid: 5, Ages: []float64{1, 2},
		Epoch: mem.Epoch, Members: mem.Members}
	for _, c := range []struct {
		name   string
		role   int
		id     int
		link   *clientLink
		m      *transport.Msg
		before func()
		want   error
		allocs float64
	}{
		{"sender is not the hello's", RoleClient, client, link, &transport.Msg{Kind: transport.KindClientUpdate, From: 3}, nil, errFrom, 0},
		{"server kind on a client connection", RoleClient, client, link, &transport.Msg{Kind: transport.KindAge, From: client}, nil, errRole, 0},
		{"replaced client connection", RoleClient, client, &clientLink{}, &transport.Msg{Kind: transport.KindClientUpdate, From: client}, nil, errReplaced, 0},
		{"client update", RoleClient, client, link, update, nextUpdate, nil, 0},
		{"client kind on a server connection", RoleServer, 1, nil, &transport.Msg{Kind: transport.KindClientUpdate, From: 1}, nil, errRole, 0},
		{"malformed membership header", RoleServer, 1, nil, &transport.Msg{Kind: transport.KindAge, From: 1, Members: []int{1, 0}}, nil, errRingHdr, 0},
		{"sender outside the ring", RoleServer, 5, nil, &transport.Msg{Kind: transport.KindAge, From: 5}, nil, errNotMember, 0},
		{"age", RoleServer, 1, nil, server(transport.KindAge), nil, nil, 0},
		{"server model, round joined", RoleServer, 1, nil, server(transport.KindServerModel), nil, nil, 0},
		// spyker.ServerCore.HandleToken drops a stale token without
		// copying it.
		{"stale token", RoleServer, 1, nil, &transport.Msg{Kind: transport.KindToken, From: 1, Bid: 3, Epoch: mem.Epoch, Members: mem.Members}, nil, nil, 0},
		// Each frame outbids the last, and the handler keeps it: the one
		// heap copy of the Token.
		{"fresh token", RoleServer, 1, nil, token, func() { token.Bid++ }, nil, 1},
		// The histogram observes into fixed buckets.
		{"client update, staleness histogram", RoleClient, client, link, update, func() {
			if s.staleness == nil {
				s.Instrument(nil)
			}
			nextUpdate()
		}, nil, 0},
	} {
		var err error
		allocs := testing.AllocsPerRun(50, func() {
			if c.before != nil {
				c.before()
			}
			err = s.dispatch(c.role, c.id, c.link, c.m)
		})
		if !errors.Is(err, c.want) {
			t.Errorf("%s: dispatch returned %v, want %v", c.name, err, c.want)
		}
		if allocs != c.allocs {
			t.Errorf("%s: dispatch allocates %v times per frame, want %v", c.name, allocs, c.allocs)
		}
	}
	if got := s.Updates(); got != 2*51 {
		t.Errorf("the server merged %d updates, want %d", got, 2*51)
	}
	if !s.HoldsToken() {
		t.Error("no token frame was fresh: the server holds none")
	}
	s.closing.Store(true)
	if allocs := testing.AllocsPerRun(50, func() { err = s.dispatch(RoleClient, client, link, update) }); allocs != 0 || err != nil {
		t.Errorf("closing server: dispatch returned %v and allocates %v times per frame, want nil and 0", err, allocs)
	}
	s.closing.Store(false)
}
