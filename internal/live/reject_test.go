package live

import (
	"encoding/binary"
	"math"
	"net"
	"testing"
	"time"

	"github.com/spyker-fl/spyker/internal/fl"
	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/transport"
)

// rejectRig is a two-server ring with an honest client on server 0 and a
// tracer on it: the fixture every refused-frame case runs against.
type rejectRig struct {
	t       *testing.T
	srv     *Server
	tracer  *obs.Tracer
	reg     *obs.Registry
	honest  *transport.Conn
	reply   transport.Msg
	updates int
}

const rejectDim = 8

// poolIdle is how many pooled vectors server 0 has out while the rig is
// idle: none, since a reader borrows one only once a model frame's header
// has arrived.
const poolIdle = 0

func newRejectRig(t *testing.T) *rejectRig {
	t.Helper()
	servers := make([]*Server, 2)
	addrs := make([]string, 2)
	for i := range servers {
		cfg := ServerConfig(i, 2, 1, fl.DefaultHyper(2, 2))
		cfg.HInter, cfg.HIntra = math.Inf(1), math.Inf(1) // no sync round moves the model behind the test's back
		srv, err := NewServer(i, "127.0.0.1:0", cfg, make([]float64, rejectDim), i == 0)
		if err != nil {
			t.Fatal(err)
		}
		servers[i], addrs[i] = srv, srv.Addr()
	}
	r := &rejectRig{t: t, srv: servers[0], tracer: obs.NewTracer(0), reg: obs.NewRegistry()}
	r.srv.Instrument(obs.Multi(r.tracer, obs.NewMetricsSink(r.reg)))
	for _, srv := range servers {
		if err := srv.ConnectPeers(addrs); err != nil {
			t.Fatal(err)
		}
	}
	r.honest = r.dial(transport.Msg{Kind: transport.KindHello, From: 100, Bid: RoleClient})
	if err := r.honest.RecvInto(&r.reply); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = r.honest.Close()
		closeAll(servers)
	})
	return r
}

// dial connects to server 0 and sends hello.
func (r *rejectRig) dial(hello transport.Msg) *transport.Conn {
	r.t.Helper()
	conn, err := transport.Dial(r.srv.Addr())
	if err != nil {
		r.t.Fatal(err)
	}
	r.t.Cleanup(func() { _ = conn.Close() })
	if err := conn.Send(&hello); err != nil {
		r.t.Fatal(err)
	}
	return conn
}

// serveHonest pushes one update of the honest client through the server.
func (r *rejectRig) serveHonest(t *testing.T) {
	t.Helper()
	up := transport.Msg{Kind: transport.KindClientUpdate, From: 100, Params: make([]float64, rejectDim), Age: r.reply.Age}
	up.Params[0] = 1
	if err := r.honest.Send(&up); err != nil {
		t.Fatalf("honest client: %v", err)
	}
	if err := r.honest.RecvInto(&r.reply); err != nil {
		t.Fatalf("honest client: %v", err)
	}
	if r.reply.Kind != transport.KindModelReply || len(r.reply.Params) != rejectDim {
		t.Fatalf("honest client got %+v", r.reply)
	}
	r.updates++
	// The server counts the update before the reply leaves, and the reader
	// returns the reply's buffer just after.
	waitFor(t, "the honest client's update to be counted", 5*time.Second, func() bool {
		return r.srv.Updates() == r.updates && r.srv.pool.Live() == poolIdle
	})
	// No sync round runs, so the reply is the server's model — whatever
	// the buffer it travelled in held before (a refused frame's words).
	for i, v := range r.srv.Params() {
		if got := r.reply.Params[i]; got != v || math.IsNaN(got) || math.IsInf(got, 0) {
			t.Fatalf("honest client's model at %d is %v, the server's is %v", i, got, v)
		}
	}
}

func (r *rejectRig) rejectEvents() (events []obs.Event) {
	for _, e := range r.tracer.Events() {
		if e.Kind == obs.KindReject {
			events = append(events, e)
		}
	}
	return events
}

// rawHeader is a wire-v3 header written by hand, for frames the codec
// itself would refuse to send.
func rawHeader(kind transport.Kind, body, nParams uint32) []byte {
	h := make([]byte, 76)
	h[0], h[1] = 3, byte(kind)
	binary.LittleEndian.PutUint32(h[4:], body)
	binary.LittleEndian.PutUint32(h[56:], nParams)
	return h
}

// v2Hello is the server hello a version-2 peer opens with: its 80-byte
// header still had a count for the frontier section version 3 dropped.
func v2Hello() []byte {
	h := make([]byte, 80)
	h[0], h[1] = 2, byte(transport.KindHello)
	binary.LittleEndian.PutUint64(h[8:], 1)
	binary.LittleEndian.PutUint64(h[32:], uint64(RoleServer))
	return h
}

// TestRejectedFramesNeverReachTheCore sends a running server one
// offending frame per case, each on a connection of its own. Every case
// must end the same way: that connection is closed, exactly one reject is
// counted and one reject event emitted, the model and the update count
// are untouched, every pooled buffer the connection drew is back in the
// pool — a frame refused for its parameters is in one by then — and the
// honest client on another connection is served the server's model
// afterwards. A case without a reason is a frame that merely stops half
// way: the same ending, and no reject. (Before wire v2 the first case was
// a paramvec length panic in the reader goroutine, i.e. the end of the
// process.)
func TestRejectedFramesNeverReachTheCore(t *testing.T) {
	r := newRejectRig(t)
	r.serveHonest(t)

	client := transport.Msg{Kind: transport.KindHello, From: 7, Bid: RoleClient}
	peer := transport.Msg{Kind: transport.KindHello, From: 1, Bid: RoleServer}
	good := func() []float64 { return make([]float64, rejectDim) }
	withNaN := good()
	withNaN[3] = math.NaN()
	withInf := good()
	withInf[rejectDim-1] = math.Inf(-1)

	cases := []struct {
		name   string
		hello  *transport.Msg // nil: the offence is the first thing on the connection
		frame  *transport.Msg // sent through the codec, or
		raw    []byte         // written to the socket as is
		remote int
		reason string
	}{
		{"wrong dimension", &client, &transport.Msg{Kind: transport.KindClientUpdate, From: 7, Params: make([]float64, rejectDim-1)}, nil, 7, "wrong model dimension"},
		{"no parameters at all", &client, &transport.Msg{Kind: transport.KindClientUpdate, From: 7}, nil, 7, "wrong model dimension"},
		{"NaN parameter", &client, &transport.Msg{Kind: transport.KindClientUpdate, From: 7, Params: withNaN}, nil, 7, "non-finite value"},
		{"-Inf parameter", &client, &transport.Msg{Kind: transport.KindClientUpdate, From: 7, Params: withInf}, nil, 7, "non-finite value"},
		{"NaN age", &client, &transport.Msg{Kind: transport.KindClientUpdate, From: 7, Params: good(), Age: math.NaN()}, nil, 7, "non-finite value"},
		{"token on a client connection", &client, &transport.Msg{Kind: transport.KindToken, From: 7, Bid: 99, Ages: []float64{1e9, 1e9}}, nil, 7, "kind not allowed on this connection"},
		{"server model on a client connection", &client, &transport.Msg{Kind: transport.KindServerModel, From: 7, Params: good(), Age: 1e9, Bid: 99}, nil, 7, "kind not allowed on this connection"},
		{"age on a client connection", &client, &transport.Msg{Kind: transport.KindAge, From: 7, Age: 1e9}, nil, 7, "kind not allowed on this connection"},
		{"update as another client", &client, &transport.Msg{Kind: transport.KindClientUpdate, From: 100, Params: good()}, nil, 7, "sender is not who the hello named"},
		{"declared length over the cap", &client, nil, rawHeader(transport.KindClientUpdate, transport.MaxBody+1, (transport.MaxBody+1)/8), 7, "body longer than the cap"},
		{"half a model, then the end of the stream", &client, nil, append(rawHeader(transport.KindClientUpdate, 8*rejectDim, rejectDim), make([]byte, 4*rejectDim)...), 7, ""},
		{"declared length over the model", &client, nil, rawHeader(transport.KindClientUpdate, 8<<20, 1<<20), 7, "wrong model dimension"},
		{"blob on a server's inbound link", &client, &transport.Msg{Kind: transport.KindClientUpdate, From: 7, Params: good(), Blob: []byte{1}}, nil, 7, "more entries than the ring allows"},
		{"hello of a version-2 peer", nil, nil, v2Hello(), obs.NoPeer, "wire version 2, superseded by 3"},
		{"garbage instead of a hello", nil, nil, append([]byte("\x7f\xff\x81\x03\x01\x01\x03Msg\x01\xff\x82"), make([]byte, 80)...), obs.NoPeer, "unknown wire version"},
		{"update instead of a hello", nil, &transport.Msg{Kind: transport.KindClientUpdate, From: 7, Params: good()}, nil, obs.NoPeer, "first frame is not a hello"},
		{"hello with an unknown role", nil, &transport.Msg{Kind: transport.KindHello, From: 7, Bid: 3}, nil, obs.NoPeer, "first frame is not a hello"},
		{"client update on a server connection", &peer, &transport.Msg{Kind: transport.KindClientUpdate, From: 1, Params: good()}, nil, obs.ServerNode + 1, "kind not allowed on this connection"},
		{"age as another server", &peer, &transport.Msg{Kind: transport.KindAge, From: 0, Age: 1e9}, nil, obs.ServerNode + 1, "sender is not who the hello named"},
		{"server outside the ring", &transport.Msg{Kind: transport.KindHello, From: 3, Bid: RoleServer}, &transport.Msg{Kind: transport.KindAge, From: 3, Age: 1e9}, nil, obs.ServerNode + 3, "sender is not a ring member"},
		{"membership out of order", &peer, &transport.Msg{Kind: transport.KindAge, From: 1, Age: 1, Epoch: 5, Members: []int{1, 0}}, nil, obs.ServerNode + 1, "malformed membership header"},
		{"membership with a huge ID", &peer, &transport.Msg{Kind: transport.KindAge, From: 1, Age: 1, Epoch: 5, Members: []int{0, 1 << 40}}, nil, obs.ServerNode + 1, "malformed membership header"},
		{"negative epoch", &peer, &transport.Msg{Kind: transport.KindAge, From: 1, Age: 1, Epoch: -1, Members: []int{0, 1}}, nil, obs.ServerNode + 1, "malformed membership header"},
		{"token with a long age vector", &peer, &transport.Msg{Kind: transport.KindToken, From: 1, Bid: 99, Ages: make([]float64, 5)}, nil, obs.ServerNode + 1, "more entries than the ring allows"},
	}
	rejects := 0
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			params, age := r.srv.Params(), r.srv.Age()
			if c.reason != "" {
				rejects++
			}

			raw, err := net.Dial("tcp", r.srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			conn := transport.NewConn(raw)
			var in transport.Msg
			if c.hello != nil {
				if err := conn.Send(c.hello); err != nil {
					t.Fatal(err)
				}
				if c.hello.Bid == RoleClient {
					if err := conn.RecvInto(&in); err != nil { // the model a registration is answered with
						t.Fatal(err)
					}
				}
			}
			if c.frame != nil {
				err = conn.Send(c.frame)
			} else {
				_, err = raw.Write(c.raw)
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.reason == "" {
				if err := raw.(*net.TCPConn).CloseWrite(); err != nil {
					t.Fatal(err)
				}
			}
			// The server says nothing more on this connection and closes it.
			_ = raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			if err := conn.RecvInto(&in); err == nil {
				t.Fatalf("the server answered the offending frame with %+v", in)
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("the offending connection was not closed")
			}

			if got := r.srv.Rejects(); got != rejects {
				t.Errorf("%d rejects counted, want %d", got, rejects)
			}
			if got := r.reg.Counter(obs.RejectsMetric(0)).Value(); got != int64(rejects) {
				t.Errorf("registry counts %d rejects, want %d", got, rejects)
			}
			events := r.rejectEvents()
			if len(events) != rejects {
				t.Fatalf("%d reject events, want %d", len(events), rejects)
			}
			if c.reason != "" {
				if e := events[rejects-1]; e.Node != 0 || e.Peer != c.remote || e.Note != c.reason {
					t.Errorf("reject event %+v, want node 0, peer %d, note %q", e, c.remote, c.reason)
				}
			}
			// The reader returns its buffer after it closed the connection.
			waitFor(t, "the connection's pooled buffers to return", 5*time.Second, func() bool {
				return r.srv.pool.Live() == poolIdle
			})
			if got := r.srv.Updates(); got != r.updates {
				t.Errorf("update count moved to %d, want %d", got, r.updates)
			}
			if got := r.srv.Age(); got != age {
				t.Errorf("model age moved from %v to %v", age, got)
			}
			for j, v := range r.srv.Params() {
				if v != params[j] {
					t.Fatalf("model moved at %d: %v -> %v", j, params[j], v)
				}
			}
			if !r.srv.HoldsToken() {
				t.Error("the server lost its token")
			}
			r.serveHonest(t)
		})
	}
}

// TestSilentConnectionIsClosed: a connection that never sends its hello is
// closed after helloTimeout and is no reject; the deadline is cleared by
// the hello, so an established connection may stay idle for longer.
func TestSilentConnectionIsClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the hello deadline")
	}
	r := newRejectRig(t)
	silent, err := net.Dial("tcp", r.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	start := time.Now()
	_ = silent.SetReadDeadline(start.Add(helloTimeout + 5*time.Second))
	if _, err := silent.Read(make([]byte, 1)); err == nil {
		t.Fatal("the server spoke first")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("the silent connection was not closed")
	}
	if waited := time.Since(start); waited < helloTimeout-100*time.Millisecond {
		t.Errorf("closed after %v, before the %v deadline", waited, helloTimeout)
	}
	if r.srv.Rejects() != 0 || len(r.rejectEvents()) != 0 {
		t.Error("a silent connection is not a refused frame")
	}
	// The honest client said hello before all that and was idle since.
	r.serveHonest(t)
}
