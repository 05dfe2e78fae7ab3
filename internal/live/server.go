// Package live runs the Spyker protocol over real TCP connections instead
// of the discrete-event simulator: one goroutine-backed server process per
// spyker.ServerCore, clients that train real models, and the same message
// vocabulary (internal/transport). It demonstrates that the protocol state
// machine in internal/spyker is transport-agnostic.
//
// What blocks on what: the core's handlers run under the server's mutex
// and never touch a socket. A connection's reader goroutine blocks on its
// socket; a client connection's reader also writes everything that client
// is sent, so it blocks on that client's socket in both directions and a
// client that stops reading stalls its own reader and nothing else. A
// peer is sent frames through an outbox, whose one goroutine blocks on
// that peer's socket, so a broadcast never waits for a slow peer.
package live

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/obs/audit"
	"github.com/spyker-fl/spyker/internal/paramvec"
	"github.com/spyker-fl/spyker/internal/ring"
	"github.com/spyker-fl/spyker/internal/spyker"
	"github.com/spyker-fl/spyker/internal/transport"
)

// Roles used in hello frames (Msg.Bid doubles as the role field there).
// Exported so that an out-of-package load generator can register raw
// transport connections against a live Server; benchmark/ pins RoleClient.
const (
	RoleClient = 1
	RoleServer = 2
)

// helloTimeout is how long an accepted connection may take to say who it
// is; one that never speaks is closed instead of holding a goroutine and a
// descriptor forever.
const helloTimeout = 3 * time.Second

// What dispatch refuses beyond what the codec already did (see
// transport.FrameError): a frame is bound to the hello of its connection.
var (
	errNoHello   = &transport.FrameError{Reason: "first frame is not a hello"}
	errRole      = &transport.FrameError{Reason: "kind not allowed on this connection"}
	errFrom      = &transport.FrameError{Reason: "sender is not who the hello named"}
	errNotMember = &transport.FrameError{Reason: "sender is not a ring member"}
	errRingHdr   = &transport.FrameError{Reason: "malformed membership header"}
)

// errReplaced ends a client connection whose client has said hello again
// on another; it is no refused frame, so no reject is counted.
var errReplaced = errors.New("live: client connection replaced by a newer hello")

// outbox is a peer link's write side; client links have none (see
// clientLink). It decouples protocol handlers from TCP backpressure: a
// broadcast fans out to several peers and a slow one must not hold the
// handler, so handlers enqueue and a dedicated goroutine drains in FIFO
// order and owns the connection's write side. Closing the outbox flushes
// pending frames and then closes the connection, which is what unblocks the
// remote reader. failed flips once a send errors; the peer-reconnect loop
// polls it to decide which links need redialing.
type outbox struct {
	conn   transport.Sender
	ch     chan timedMsg
	done   chan struct{}
	delay  time.Duration
	failed atomic.Bool
}

// timedMsg remembers when the frame was enqueued so the injected latency
// is pipelined: every frame leaves at enqueue-time + delay, like a real
// long link, rather than serializing delay per frame. release, when
// non-nil, returns the frame's pooled payload once the frame has left
// (or was dropped); the drain goroutine calls it exactly once per frame.
type timedMsg struct {
	m       *transport.Msg
	at      time.Time
	release func()
}

// newOutbox creates the drain goroutine for conn. A non-zero delay
// injects a one-way link latency (FIFO order is preserved because a
// single goroutine drains); this lets a localhost deployment emulate
// geo-distributed links.
func newOutbox(conn transport.Sender, delay time.Duration) *outbox {
	o := &outbox{conn: conn, ch: make(chan timedMsg, 1024), done: make(chan struct{}), delay: delay}
	go func() {
		defer close(o.done)
		defer func() { _ = conn.Close() }()
		dead := false
		for tm := range o.ch {
			if !dead {
				if o.delay > 0 {
					time.Sleep(time.Until(tm.at.Add(o.delay)))
				}
				if err := conn.Send(tm.m); err != nil {
					dead = true // connection is gone; keep draining to release payloads
					o.failed.Store(true)
				}
			}
			if tm.release != nil {
				tm.release()
			}
		}
	}()
	return o
}

// enqueue queues a frame; it drops the frame if the outbox already
// finished (dead connection). Callers must guarantee no enqueue happens
// after beginClose — the Server serializes both under its mutex.
func (o *outbox) enqueue(m *transport.Msg) { o.enqueueRelease(m, nil) }

// enqueueRelease queues a frame whose payload must be released after the
// drain goroutine is done with it. release runs exactly once — after the
// send attempt, or right here if the outbox is already dead.
func (o *outbox) enqueueRelease(m *transport.Msg, release func()) {
	select {
	case o.ch <- timedMsg{m: m, at: time.Now(), release: release}:
	case <-o.done:
		if release != nil {
			release()
		}
	}
}

// beginClose flushes asynchronously: pending frames are still sent, then
// the connection closes. Use wait to block until that happened.
func (o *outbox) beginClose() { close(o.ch) }

// kill is the non-graceful counterpart of beginClose: it severs the
// connection immediately, so pending frames error out instead of
// flushing. Used by Server.Kill to emulate a process crash.
func (o *outbox) kill() {
	o.failed.Store(true)
	_ = o.conn.Close()
	close(o.ch)
}

// wait blocks until the drain goroutine has exited.
func (o *outbox) wait() { <-o.done }

// clientLink is a client connection's write side, written only by the
// connection's reader goroutine. On that reader, under s.mu,
// registerClient parks the first model in out and ReplyClient each reply;
// the reader sends it (flush) once s.mu is released and before it reads
// the next update. Close wakes the reader for the shutdown frame, which so
// follows every reply due.
type clientLink struct {
	conn *transport.Conn
	out  transport.Msg // the parked frame; Params is nil when there is none
	at   time.Time     // when out was parked: it leaves at at+clientDelay
}

// park stores m as the frame l's reader sends next. It runs on that
// reader, with s.mu held.
func (l *clientLink) park(m transport.Msg) { l.out, l.at = m, time.Now() }

// flush sends the frame parked on l, if any, and returns its buffer to the
// pool. Only l's reader calls it, without s.mu.
func (s *Server) flush(l *clientLink) error {
	if l.out.Params == nil {
		return nil
	}
	if s.clientDelay > 0 {
		time.Sleep(time.Until(l.at.Add(s.clientDelay)))
	}
	err := l.conn.Send(&l.out)
	s.pool.Put(l.out.Params)
	l.out.Params = nil
	return err
}

// Server is one live Spyker server.
type Server struct {
	ID int

	cfg      spyker.Config
	listener *transport.Listener

	mu      sync.Mutex          // serializes core handlers
	core    *spyker.ServerCore  //spyker:guardedby(mu)
	clients map[int]*clientLink //spyker:guardedby(mu)
	peers   map[int]*outbox     //spyker:guardedby(mu) — keyed by stable server ID; no entry for self

	// addrBook maps stable server IDs to listen addresses, learned from
	// ConnectPeers, membership headers on incoming frames, and join
	// handshakes. The reconnect loop falls back to it when its addrOf
	// callback has no answer (newly joined peers).
	addrBook map[int]string //spyker:guardedby(mu)

	// memEpoch is the membership epoch the outbox set was last wired
	// for; when the core adopts a newer epoch, a background redial pass
	// reconciles peers with the new ring.
	memEpoch int //spyker:guardedby(mu)

	// dim and ringBound are what inbound frames are held to before their
	// body is read (transport.Conn.Bound), atomics because reader
	// goroutines load them without s.mu: the model dimension, fixed once
	// the core is installed, and twice the ring's slot count, refreshed
	// with memEpoch (followRing). A frame may come from a peer that already
	// admitted joiners this server has not heard of — each adds one slot —
	// so the bound lets the ring double between two frames and no more.
	dim, ringBound atomic.Int64

	// conns tracks every inbound connection currently being read, so Kill
	// can sever them without waiting for the remote side.
	conns map[*transport.Conn]struct{} //spyker:guardedby(mu)

	// peerWrap, when set, wraps every dialed peer connection (initial dial
	// and reconnect alike); fault injection harnesses use it to interpose
	// drop/delay/sever shims (internal/fault.WrapConn).
	peerWrap func(peer int, conn transport.Sender) transport.Sender

	// stop ends the background ticker/reconnect loops on Close or Kill.
	stop chan struct{}

	clientLR    float64
	peerDelay   time.Duration // injected one-way latency on peer links
	clientDelay time.Duration // injected one-way latency on client links
	updates     atomic.Int64
	rejects     atomic.Int64 // frames refused, each with its connection closed

	// tokenSeen is the clock() stamp of the last token frame this server
	// sent or received — the raw input of the token-silence health
	// signal. Regenerating a token locally does NOT count: a stuck
	// post-regeneration holder must still read as silent.
	tokenSeen      float64 //spyker:guardedby(mu)
	tokenSeenValid bool    //spyker:guardedby(mu)

	// reconnects counts successful peer redials (reconnect loop, elastic
	// rewiring, join bootstrap); debugAddr is the operator-announced
	// address of this process's debug HTTP endpoint, echoed in telemetry
	// so monitors can discover it.
	reconnects atomic.Int64
	debugAddr  string //spyker:guardedby(mu)

	// pool recycles the model-sized buffers that frames travel in. A client
	// connection's reader receives into one; the core's handler consumes
	// the update and turns the same buffer into the reply (the Outbound
	// contract), parked on the client's link; the same reader sends it,
	// returns it and takes another for its next frame — so a buffer has one
	// holder at a time: reader, then core (under mu), then reader. A first
	// model and the broadcasts, which the core only lends, are copied into
	// buffers from here: the reader returns the first after sending it, the
	// peer outboxes return the broadcasts.
	pool paramvec.Pool

	// ckptScratch is the reusable checkpoint snapshot (see
	// WriteCheckpoint); ckptMu serializes checkpoint writers.
	ckptMu      sync.Mutex
	ckptScratch spyker.State //spyker:guardedby(ckptMu)

	// Observability (see Instrument). sink/clock default to no-ops; the
	// byte totals — exact frame octets, transport.MsgWireBytes — are
	// always maintained (they are two atomic adds per frame).
	// txPeer/rxPeer cache per-remote registry counters; both maps are only
	// touched under mu.
	sink    obs.Sink //spyker:guardedby(mu)
	clock   obs.Clock
	reg     *obs.Registry        //spyker:guardedby(mu)
	txPeer  map[int]*obs.Counter //spyker:guardedby(mu)
	rxPeer  map[int]*obs.Counter //spyker:guardedby(mu)
	txBytes atomic.Int64
	rxBytes atomic.Int64

	// audit is the per-client contribution audit plane (nil unless
	// ArmAudit was called). Its Observe runs inside dispatch and its
	// Snapshot inside Telemetry — both under mu, so the recorder itself
	// needs no locking.
	audit *audit.Recorder //spyker:guardedby(mu)

	wg      sync.WaitGroup
	closing atomic.Bool
}

// newShell builds a Server around an already-listening transport
// listener, without a protocol core; every constructor (fresh,
// checkpoint-restore, cluster join) shares it. The shell's own address
// seeds the address book so join replies and membership headers can
// advertise it.
func newShell(id int, cfg spyker.Config, l *transport.Listener) *Server {
	s := &Server{
		ID:       id,
		cfg:      cfg,
		listener: l,
		clients:  make(map[int]*clientLink),
		peers:    make(map[int]*outbox),
		addrBook: make(map[int]string),
		conns:    make(map[*transport.Conn]struct{}),
		clientLR: cfg.ClientLR,
		sink:     obs.Nop{},
		clock:    obs.WallClock(time.Now()),
		txPeer:   make(map[int]*obs.Counter),
		rxPeer:   make(map[int]*obs.Counter),
		stop:     make(chan struct{}),
	}
	s.addrBook[id] = l.Addr()
	return s
}

// NewServer creates a live server listening on addr (use "127.0.0.1:0"
// for an ephemeral port). holdsToken marks the initial token holder.
func NewServer(id int, addr string, cfg spyker.Config, initial []float64, holdsToken bool) (*Server, error) {
	l, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	s := newShell(id, cfg, l)
	// Hold mu while wiring the core: the lock is uncontended here (accept
	// loop starts below), and it keeps the guarded-field discipline
	// uniform from the first write.
	s.mu.Lock()
	s.installCore(spyker.NewServerCore(cfg, initial, holdsToken, (*serverOutbound)(s)))
	if holdsToken {
		// The minted token counts as movement: silence starts now.
		s.tokenSeen, s.tokenSeenValid = s.clock(), true
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// installCore gives the shell its protocol core, before the accept loop
// starts.
//
//spyker:locked(mu)
func (s *Server) installCore(core *spyker.ServerCore) {
	s.core = core
	s.dim.Store(int64(len(core.Params())))
	s.followRing()
}

// followRing records the ring the outbox set and the inbound frame bound
// now follow.
//
//spyker:locked(mu)
func (s *Server) followRing() {
	s.memEpoch = s.core.Epoch()
	s.ringBound.Store(int64(2 * s.core.Membership().Slots()))
}

// Instrument attaches an event sink and/or metrics registry. The core's
// protocol events and this server's frame send/recv events go to sink,
// stamped with wall seconds since the server started; per-remote byte
// counters land in reg under "live.server<ID>.{tx,rx}_bytes.<node>" and
// refused frames under "live.server<ID>.rejects_total".
// Call before ConnectPeers and before any client connects.
func (s *Server) Instrument(sink obs.Sink, reg *obs.Registry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sink == nil {
		sink = obs.Nop{}
	}
	s.sink = sink
	s.reg = reg
	if reg != nil {
		s.pool.Instrument(
			reg.Gauge(fmt.Sprintf("live.server%d.pool_live_vecs", s.ID)),
			reg.Counter(fmt.Sprintf("live.server%d.pool_recycled_total", s.ID)),
		)
	}
	s.core.Instrument(sink, s.clock)
	if s.audit != nil {
		s.core.ArmAudit(s.audit)
	}
}

// ArmAudit attaches a per-client contribution audit plane
// (internal/obs/audit) to this server: every merged client update is
// profiled, anomaly verdicts are emitted as KindAudit events into the
// instrumented sink, and Telemetry grows an Audit section. Call after
// Instrument (the recorder captures the sink once) and before clients
// connect. Auditing is passive — it never changes what the core merges.
func (s *Server) ArmAudit() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.audit = audit.NewRecorder(s.ID, s.sink)
	s.core.ArmAudit(s.audit)
}

// noteSend records one outgoing frame to the remote node (an
// obs.ServerNode-offset server ID or a raw client ID). Callers hold s.mu
// (the counter maps) — true for every enqueue site.
//
//spyker:locked(mu)
func (s *Server) noteSend(remote int, m *transport.Msg) { s.note(true, remote, m) }

// noteRecv records one incoming frame from the remote node; callers hold
// s.mu.
//
//spyker:locked(mu)
func (s *Server) noteRecv(remote int, m *transport.Msg) { s.note(false, remote, m) }

// note counts one frame in one direction: the server's byte total, the
// per-remote registry series, the message event.
//
//spyker:locked(mu)
func (s *Server) note(sent bool, remote int, m *transport.Msg) {
	size := transport.MsgWireBytes(m)
	perPeer, series, kind := s.rxPeer, "rx_bytes", obs.KindMsgRecv
	if sent {
		perPeer, series, kind = s.txPeer, "tx_bytes", obs.KindMsgSend
		s.txBytes.Add(int64(size))
	} else {
		s.rxBytes.Add(int64(size))
	}
	if s.reg != nil {
		c, ok := perPeer[remote]
		if !ok {
			c = s.reg.Counter(fmt.Sprintf("live.server%d.%s.%s", s.ID, series, obs.NodeName(remote)))
			perPeer[remote] = c
		}
		c.Add(int64(size))
	}
	if s.sink.Enabled() {
		s.sink.Emit(obs.Event{
			Time: s.clock(), Kind: kind,
			Node: obs.ServerNode + s.ID, Peer: remote, Bytes: size,
			Note: m.Kind.String(), UID: m.Trace.UID,
		})
	}
}

// StatsLine renders a one-line snapshot of this server's runtime state,
// the unit of the live runtime's periodic stats log.
func (s *Server) StatsLine() string {
	s.mu.Lock()
	age := s.core.Age()
	syncs := s.core.SyncsTriggered()
	joined := s.core.SyncsJoined()
	clients := len(s.clients)
	s.mu.Unlock()
	return fmt.Sprintf("server %d: updates=%d age=%.1f syncs=%d/%d clients=%d tx=%.2fMB rx=%.2fMB",
		s.ID, s.updates.Load(), age, syncs, joined, clients,
		float64(s.txBytes.Load())/1e6, float64(s.rxBytes.Load())/1e6)
}

// Addr reports the server's listen address.
func (s *Server) Addr() string { return s.listener.Addr() }

// InjectLatency sets one-way latencies slept before every outgoing frame
// on peer and client links respectively, emulating geo-distributed links
// on localhost. Call before ConnectPeers and before clients connect.
func (s *Server) InjectLatency(peer, client time.Duration) {
	s.peerDelay = peer
	s.clientDelay = client
}

// Updates reports how many client updates this server has aggregated.
func (s *Server) Updates() int { return int(s.updates.Load()) }

// Rejects reports how many inbound frames this server refused — malformed,
// out of bounds, non-finite, or not what the connection's hello allows —
// closing the connection each arrived on.
func (s *Server) Rejects() int { return int(s.rejects.Load()) }

// SyncsTriggered reports how many synchronizations this server initiated.
func (s *Server) SyncsTriggered() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.SyncsTriggered()
}

// HoldsToken reports whether this server currently holds the sync token.
func (s *Server) HoldsToken() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.HasToken()
}

// TokenRegens reports how many replacement tokens this server has minted
// after detecting ring silence (Config.TokenTimeout).
func (s *Server) TokenRegens() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.TokenRegens()
}

// SyncsJoined reports how many synchronization rounds this server has
// participated in (its own triggers included).
func (s *Server) SyncsJoined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.SyncsJoined()
}

// Membership returns a snapshot of this server's current view of the
// ring (epoch and member IDs).
func (s *Server) Membership() ring.Membership {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Membership().Clone()
}

// Params returns a snapshot of the server model.
func (s *Server) Params() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.core.Params()...)
}

// Age returns the current model age.
func (s *Server) Age() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.core.Age()
}

// ConnectPeers dials every other server. addrs is indexed by server ID;
// the entry for this server is ignored. Must be called after all servers
// are listening and before any client connects.
func (s *Server) ConnectPeers(addrs []string) error {
	if len(addrs) != s.cfg.NumServers {
		return fmt.Errorf("live: %d peer addresses for %d servers", len(addrs), s.cfg.NumServers)
	}
	for id, addr := range addrs {
		if id == s.ID {
			continue
		}
		ob, err := s.dialPeer(id, addr)
		if err != nil {
			return fmt.Errorf("live: server %d -> %d: %w", s.ID, id, err)
		}
		s.mu.Lock()
		s.addrBook[id] = addr
		s.peers[id] = ob
		s.mu.Unlock()
	}
	return nil
}

// dialPeer dials a peer, sends the server hello, and wraps the
// connection per SetPeerWrapper. The caller installs the outbox.
func (s *Server) dialPeer(id int, addr string) (*outbox, error) {
	conn, err := transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(&transport.Msg{Kind: transport.KindHello, From: s.ID, Bid: RoleServer}); err != nil {
		_ = conn.Close()
		return nil, err
	}
	var sender transport.Sender = conn
	if s.peerWrap != nil {
		sender = s.peerWrap(id, sender)
	}
	return newOutbox(sender, s.peerDelay), nil
}

// SetPeerWrapper installs a hook applied to every peer connection this
// server dials, after the hello handshake: ConnectPeers and the
// reconnect loop both route new links through it. Fault harnesses use it
// to interpose fault.Conn shims. Call before ConnectPeers.
func (s *Server) SetPeerWrapper(w func(peer int, conn transport.Sender) transport.Sender) {
	s.peerWrap = w
}

// every runs fn once per period on a goroutine of the server's own, until
// Close; a non-positive period starts nothing.
func (s *Server) every(period time.Duration, fn func()) {
	if period <= 0 {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
}

// StartTokenTicker drives the core's token-loss recovery clock: every
// period it feeds the wall time into spyker.ServerCore.Tick, which is
// what arms the silence-timeout regeneration and stuck-round retry
// configured by Config.TokenTimeout / Config.SyncRetry. Without a ticker
// a live server never detects a lost token.
func (s *Server) StartTokenTicker(every time.Duration) {
	s.every(every, func() {
		s.mu.Lock()
		if !s.closing.Load() {
			s.core.Tick(s.clock())
		}
		s.mu.Unlock()
	})
}

// StartPeerReconnect keeps the ring wired through peer crashes: every
// period it redials any peer whose outbox has failed (or was never
// connected), using addrOf to learn the peer's current address — which
// may have changed across a restart. An empty address skips the peer
// this round.
func (s *Server) StartPeerReconnect(every time.Duration, addrOf func(id int) string) {
	s.every(every, func() { s.redialFailedPeers(addrOf) })
}

// redialFailedPeers reconciles the outbox set with the current
// membership: members whose link has failed (or was never dialed) are
// redialed — via addrOf when it answers, falling back to the address
// book learned from membership headers — and outboxes of servers no
// longer in the ring are flushed and dropped. addrOf may be nil.
func (s *Server) redialFailedPeers(addrOf func(id int) string) {
	var stale []int
	var dead []*outbox
	s.mu.Lock()
	mem := s.core.Membership().Clone()
	for _, id := range mem.Members {
		if id == s.ID {
			continue
		}
		if p := s.peers[id]; p == nil || p.failed.Load() {
			stale = append(stale, id)
		}
	}
	for id, p := range s.peers {
		if !mem.Contains(id) {
			dead = append(dead, p)
			delete(s.peers, id)
		}
	}
	s.mu.Unlock()
	for _, p := range dead {
		p.beginClose()
	}
	for _, id := range stale {
		var addr string
		if addrOf != nil {
			addr = addrOf(id)
		}
		if addr == "" {
			s.mu.Lock()
			addr = s.addrBook[id]
			s.mu.Unlock()
		}
		if addr == "" {
			continue
		}
		ob, err := s.dialPeer(id, addr)
		if err != nil {
			continue // peer still down; try again next period
		}
		s.reconnects.Add(1)
		s.mu.Lock()
		if s.closing.Load() {
			s.mu.Unlock()
			ob.beginClose()
			return
		}
		old := s.peers[id]
		s.peers[id] = ob
		s.mu.Unlock()
		if old != nil {
			old.beginClose()
		}
	}
}

// Close shuts the server down: each client is sent a shutdown frame after
// every reply already due to it, the peer outboxes flush and close their
// connections, the listener stops, and reader goroutines drain. A client
// that has stopped reading holds Close up for helloTimeout at most. When
// tearing down a cluster, call Close on all servers concurrently — a
// server's inbound peer links only terminate once the remote side has
// closed its end.
func (s *Server) Close() {
	if !s.closing.CompareAndSwap(false, true) {
		return
	}
	close(s.stop)
	s.mu.Lock()
	// After this block no handler will park or enqueue a frame again:
	// dispatch and registerClient check s.closing under the same mutex.
	// Each client's reader is woken from its receive to send the shutdown
	// frame (readLoop) after what it parked; the write deadline bounds
	// both, and a send already stuck on a client that stopped reading.
	deadline := time.Now().Add(helloTimeout)
	for _, c := range s.clients {
		_ = c.conn.SetWriteDeadline(deadline) // fails only on a closed connection, whose reader is ending anyway
		_ = c.conn.SetReadDeadline(time.Now())
	}
	outboxes := make([]*outbox, 0, len(s.peers))
	for _, p := range s.peers {
		if p != nil {
			p.beginClose()
			outboxes = append(outboxes, p)
		}
	}
	s.mu.Unlock()

	_ = s.listener.Close()
	for _, o := range outboxes {
		o.wait()
	}
	s.wg.Wait()
}

// Kill is the crash counterpart of Close: no shutdown frames, no flush —
// every connection is severed immediately and the listener stops, as if
// the process had died. Clients observe a dropped connection (and redial
// if they run via RunLoop); peers observe send failures and mark the
// link for reconnection. The protocol state is abandoned exactly where
// it was, so a failover harness pairs Kill with a prior checkpoint and
// NewServerFromCheckpoint.
func (s *Server) Kill() {
	if !s.closing.CompareAndSwap(false, true) {
		return
	}
	close(s.stop)
	s.mu.Lock()
	outboxes := make([]*outbox, 0, len(s.peers))
	for _, p := range s.peers {
		if p != nil {
			outboxes = append(outboxes, p)
		}
	}
	conns := make([]*transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	_ = s.listener.Close()
	for _, o := range outboxes {
		o.kill()
	}
	for _, c := range conns {
		_ = c.Close() // unblocks the readLoop regardless of the remote side
	}
	for _, o := range outboxes {
		o.wait()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.readLoop(conn)
	}
}

// readLoop registers the connection based on its hello frame and then
// dispatches protocol messages into the core. Every frame, the hello
// included, is held to the model dimension and the ring bound before its
// body is read, and after the hello to the identity the hello named; a
// frame that fails either is counted, reported and never reaches the core
// (drop), and only its own connection closes.
func (s *Server) readLoop(conn *transport.Conn) {
	defer s.wg.Done()
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	conn.Bound(int(s.dim.Load()), int(s.ringBound.Load()))
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout)) // fails only on a closed connection, which Recv reports
	hello, err := conn.Recv()
	if err != nil {
		s.drop(conn, obs.NoPeer, err)
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	if hello.Kind == transport.KindJoinRequest {
		// One-shot sponsorship handshake instead of a hello: admit the
		// joiner, reply with its identity and snapshot, and close.
		s.handleJoin(conn, hello)
		return
	}
	role, id, remote := hello.Bid, hello.From, hello.From
	var link *clientLink // a client connection's, nil on a server connection
	switch {
	case hello.Kind != transport.KindHello || (role != RoleClient && role != RoleServer):
		s.drop(conn, obs.NoPeer, errNoHello)
		return
	case role == RoleClient:
		if link = s.registerClient(id, conn); link == nil {
			return
		}
		defer s.unregisterClient(id, link)
	default:
		// Inbound peer link: read-only; our own dialed link sends.
		remote = obs.ServerNode + id
	}
	// One reusable frame per connection: RecvInto reads a model's bytes
	// from the socket straight into the Params m already owns, so a
	// steady-state reader allocates and copies nothing per frame. What
	// receivers retain — the token's age vector, the membership, the address
	// book — is fresh on every decode (see the transport package comment). A
	// server connection's Params are only read, under s.mu, for the length
	// of the handler. A client connection's are given away: dispatch takes
	// them out of m when the core has consumed an update (see the pool
	// field), so this reader receives into a pooled buffer, draws the next
	// one when the last is gone, and returns the one it still holds when the
	// connection ends — which is where a frame refused for a NaN in its
	// parameters is by then: in m, never dispatched. Before each receive it
	// sends what the last handler parked on its link: the first model, then
	// the reply to each update.
	var m transport.Msg
	if link != nil {
		defer func() {
			if m.Params != nil {
				s.pool.Put(m.Params[:cap(m.Params)])
			}
		}()
	}
	for {
		if link != nil {
			if err := s.flush(link); err != nil {
				s.drop(conn, remote, err)
				return
			}
			if m.Params == nil {
				m.Params = s.pool.Get(int(s.dim.Load()))
			}
		}
		conn.Bound(int(s.dim.Load()), int(s.ringBound.Load()))
		err := conn.RecvInto(&m)
		if link != nil && errors.Is(err, os.ErrDeadlineExceeded) {
			// Only Close sets a deadline after the hello: it woke this
			// reader, which has sent what it parked, for the last frame.
			_ = conn.Send(&transport.Msg{Kind: transport.KindShutdown, From: s.ID})
		}
		if err == nil {
			err = s.dispatch(role, id, link, &m)
		}
		if err != nil {
			s.drop(conn, remote, err)
			return
		}
	}
}

// drop ends an inbound connection after err. A peer that went away or
// never spoke needs no report; a refused frame (*transport.FrameError,
// from the codec or from dispatch) is counted and emitted as one
// obs.KindReject event naming the check it failed — before the close, so
// whoever sees the connection end also sees the count.
func (s *Server) drop(conn *transport.Conn, remote int, err error) {
	defer func() { _ = conn.Close() }()
	var refused *transport.FrameError
	if !errors.As(err, &refused) {
		return
	}
	s.rejects.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.reg != nil {
		s.reg.Counter(fmt.Sprintf("live.server%d.rejects_total", s.ID)).Inc()
	}
	if s.sink.Enabled() {
		s.sink.Emit(obs.Event{
			Time: s.clock(), Kind: obs.KindReject,
			Node: s.ID, Peer: remote, Note: refused.Reason,
		})
	}
}

// handleJoin sponsors one joiner into the ring: it assigns the next
// stable ID, admits it through the core (epoch bump plus membership
// announcement ride out on the age broadcast), records its address, and
// replies with the assigned ID, the new membership, the address book,
// and a gob-encoded state snapshot re-keyed for the newcomer. The
// connection is one-shot: the joiner dials members itself afterwards.
func (s *Server) handleJoin(conn *transport.Conn, req *transport.Msg) {
	defer func() { _ = conn.Close() }()
	if len(req.Addrs) != 1 || req.Addrs[0] == "" {
		return
	}
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		return
	}
	newID := s.core.Membership().NextID()
	st, err := s.core.AdmitMember(newID)
	if err != nil {
		s.mu.Unlock()
		return
	}
	s.addrBook[newID] = req.Addrs[0]
	s.noteRecv(obs.ServerNode+newID, req)
	mem := s.core.Membership().Clone()
	addrs := s.addrsFor(mem.Members)
	s.maybeRewire() // dial the newcomer once it is listening
	s.mu.Unlock()

	var blob bytes.Buffer
	if err := gob.NewEncoder(&blob).Encode(&st); err != nil {
		return
	}
	reply := &transport.Msg{
		Kind: transport.KindJoinReply, From: s.ID, Bid: newID,
		Epoch: mem.Epoch, Members: mem.Members, Addrs: addrs,
		Blob: blob.Bytes(),
	}
	s.mu.Lock()
	s.noteSend(obs.ServerNode+newID, reply)
	s.mu.Unlock()
	_ = conn.Send(reply)
}

// JoinCluster starts a new live server by joining a running ring: it
// listens on listenAddr, asks the sponsor at sponsorAddr for admission,
// and boots from the state snapshot in the reply — model, age
// knowledge, and membership included. The sponsor assigns the stable
// ID; the joiner then dials every current member.
func JoinCluster(sponsorAddr, listenAddr string) (*Server, error) {
	l, err := transport.Listen(listenAddr)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Server, error) {
		_ = l.Close()
		return nil, err
	}
	conn, err := transport.Dial(sponsorAddr)
	if err != nil {
		return fail(err)
	}
	req := &transport.Msg{Kind: transport.KindJoinRequest, Addrs: []string{l.Addr()}}
	if err := conn.Send(req); err != nil {
		_ = conn.Close()
		return fail(err)
	}
	reply, err := conn.Recv()
	_ = conn.Close()
	if err != nil {
		return fail(err)
	}
	if reply.Kind != transport.KindJoinReply || len(reply.Blob) == 0 {
		return fail(fmt.Errorf("live: join: unexpected reply %v", reply.Kind))
	}
	var st spyker.State
	if err := gob.NewDecoder(bytes.NewReader(reply.Blob)).Decode(&st); err != nil {
		return fail(fmt.Errorf("live: join: decode snapshot: %w", err))
	}
	s := newShell(st.Config.ID, st.Config, l)
	core, err := spyker.RestoreServerCore(st, (*serverOutbound)(s))
	if err != nil {
		return fail(err)
	}
	// Uncontended (the accept loop starts below); keeps the guarded-field
	// discipline uniform from the first write.
	s.mu.Lock()
	s.installCore(core)
	if len(reply.Addrs) == len(reply.Members) {
		for i, id := range reply.Members {
			if a := reply.Addrs[i]; a != "" && id != s.ID {
				s.addrBook[id] = a
			}
		}
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop()
	s.redialFailedPeers(nil) // dial every current member
	return s, nil
}

// registerClient installs the link of a client connection that said hello
// as id and parks a copy of the current model on it, which the reader
// sends first so the client can start training; nil when the server is
// closing (the connection is closed). A client that says hello again under
// an id it already holds replaces its previous connection, which is closed
// here: its reader ends, and dispatch refuses an update that reader has
// already read, so replies go to the new connection's reader only.
func (s *Server) registerClient(id int, conn *transport.Conn) *clientLink {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		_ = conn.Close()
		return nil
	}
	if old := s.clients[id]; old != nil {
		_ = old.conn.Close()
	}
	l := &clientLink{conn: conn}
	s.clients[id] = l
	buf := s.pool.Get(len(s.core.Params()))
	buf.CopyFrom(s.core.Params())
	l.park(transport.Msg{
		Kind:   transport.KindModelReply,
		From:   s.ID,
		Params: buf,
		Age:    s.core.Age(),
		LR:     s.clientLR,
	})
	s.noteSend(id, &l.out)
	return l
}

// unregisterClient removes the link of a client connection whose reader
// has returned, unless a re-hello has already replaced it.
func (s *Server) unregisterClient(id int, l *clientLink) {
	s.mu.Lock()
	if s.clients[id] == l {
		delete(s.clients, id)
	}
	s.mu.Unlock()
}

// dispatch routes one received frame into the protocol core — the tail
// of the pooled receive path: readLoop's reusable Msg arrives here and
// the core handlers are done with its Params when they return, under s.mu,
// so the steady-state server processes a frame without allocating. A
// client update's Params do not come back: the core's handler consumes
// them and the reply, parked on link, leaves in them, so dispatch clears
// m.Params and the reader cannot receive into the buffer it is about to
// send. role and id are what the connection's hello claimed, and link is
// the client connection's (nil on a server connection). The frame must fit
// them: a client connection carries only that client's updates, a server
// connection only that server's three inter-server kinds under a
// well-formed membership header that (or the ring this server holds,
// whichever is fresher) lists it. Anything else is returned as a
// *transport.FrameError before the core is touched. A client connection a
// re-hello has replaced is refused too (errReplaced), which is what makes
// the reply's link the calling reader's own.
//
//spyker:noalloc
func (s *Server) dispatch(role, id int, link *clientLink, m *transport.Msg) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		return nil
	}
	if m.From != id {
		return errFrom
	}
	if role == RoleClient {
		if m.Kind != transport.KindClientUpdate {
			return errRole
		}
		if s.clients[id] != link {
			return errReplaced
		}
		s.noteRecv(id, m)
		s.core.HandleClientUpdate(id, m.Params, m.Age, m.Trace.UID)
		m.Params = nil
		s.updates.Add(1)
		return nil
	}
	if m.Kind != transport.KindServerModel && m.Kind != transport.KindAge && m.Kind != transport.KindToken {
		return errRole
	}
	mem := ring.Membership{Epoch: m.Epoch, Members: m.Members}
	if err := s.checkSender(id, mem); err != nil {
		return err
	}
	s.noteRecv(obs.ServerNode+id, m)
	s.absorbHeader(m)
	switch m.Kind {
	case transport.KindServerModel:
		s.core.HandleServerModel(id, m.Params, m.Age, m.Bid, m.Trace.Front, mem)
	case transport.KindAge:
		s.core.HandleAge(id, m.Age, mem)
	case transport.KindToken:
		s.tokenSeen, s.tokenSeenValid = s.clock(), true
		s.core.HandleToken(spyker.Token{Bid: m.Bid, Ages: m.Ages, Mem: mem})
	}
	s.maybeRewire()
	return nil
}

// checkSender validates the membership header of an inter-server frame
// and the sender against it. The core sizes its per-server arrays by the
// largest member ID it adopts, so a header is only handed on when its IDs
// are strictly ascending, non-negative and below the ring bound. The
// sender must be a member of the ring the core will hold once it has seen
// this header — a joiner's first frames reach members the sponsor's
// announcement has not. Caller holds s.mu.
//
//spyker:locked(mu)
func (s *Server) checkSender(id int, mem ring.Membership) error {
	view := s.core.Membership()
	if !mem.IsZero() {
		if mem.Epoch < 0 {
			return errRingHdr
		}
		prev, bound := -1, int(s.ringBound.Load())
		for _, member := range mem.Members {
			if member <= prev || member >= bound {
				return errRingHdr
			}
			prev = member
		}
		if ring.Compare(mem, view) > 0 {
			view = mem
		}
	}
	if !view.Contains(id) {
		return errNotMember
	}
	return nil
}

// absorbHeader learns peer addresses riding on a frame's elastic
// membership header (Addrs aligned with Members). Caller holds s.mu.
//
//spyker:locked(mu)
func (s *Server) absorbHeader(m *transport.Msg) {
	if len(m.Addrs) != len(m.Members) {
		return
	}
	for i, id := range m.Members {
		if a := m.Addrs[i]; a != "" && id != s.ID {
			s.addrBook[id] = a
		}
	}
}

// maybeRewire reacts to a membership epoch the core adopted during the
// handler that just ran: the outbox set must follow the ring, so a
// background pass dials newly admitted members and drops departed ones.
// Caller holds s.mu.
//
//spyker:locked(mu)
func (s *Server) maybeRewire() {
	if s.core.Epoch() == s.memEpoch {
		return
	}
	s.followRing()
	if s.closing.Load() {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.redialFailedPeers(nil)
	}()
}

// serverOutbound adapts Server to spyker.Outbound. All methods run with
// s.mu held (they are invoked from core handlers), so they only park or
// enqueue.
type serverOutbound Server

var _ spyker.Outbound = (*serverOutbound)(nil)

// ReplyClient runs inside a core handler with s.mu held, on client k's
// reader: dispatch hands the core an update only from the connection
// registered for its client. params is the reply's own vector (the
// Outbound contract): the pooled buffer the update arrived in, now holding
// the new model. It is parked on the client's link as it is; the reader
// sends it and returns it to the pool after dispatch. With nobody to send
// it to, it goes back right away. (Every vector that arrives here was drawn
// from the pool by a reader: dispatch is this runtime's only caller of the
// update handler, and it never uses the core's ReengageClient, whose reply
// is a plain allocation.)
//
//spyker:locked(mu)
func (o *serverOutbound) ReplyClient(k int, params []float64, age, lr float64) {
	s := (*Server)(o)
	l, ok := o.clients[k]
	if !ok {
		s.pool.Put(params)
		return
	}
	l.park(transport.Msg{
		Kind: transport.KindModelReply, From: o.ID,
		Params: params, Age: age, LR: lr,
	})
	s.noteSend(k, &l.out)
}

// addrsFor renders the address book aligned with members (empty string
// where unknown); the slice is shared read-only by every frame of one
// broadcast. Caller holds s.mu.
//
//spyker:locked(mu)
func (s *Server) addrsFor(members []int) []string {
	addrs := make([]string, len(members))
	for i, id := range members {
		addrs[i] = s.addrBook[id]
	}
	return addrs
}

// BroadcastModel runs inside a core handler with s.mu held.
//
//spyker:locked(mu)
func (o *serverOutbound) BroadcastModel(params []float64, age float64, bid int, front []int64, mem ring.Membership) {
	s := (*Server)(o)
	// front is a borrow of the core's live frontier and the outboxes encode
	// asynchronously, so snapshot it once here; the copy is shared by every
	// frame (outboxes only read it to encode). mem.Members is safe
	// to share un-copied: ring.Membership slices are never mutated in
	// place (membership changes allocate fresh slices).
	frontCopy := append([]int64(nil), front...)
	addrs := s.addrsFor(mem.Members)
	uid := obs.RoundUID(o.ID, bid)
	for id, p := range o.peers {
		if p == nil || id == o.ID {
			continue
		}
		// One pooled copy per peer: each outbox owns its buffer and
		// returns it independently after its send completes.
		buf := s.pool.Get(len(params))
		buf.CopyFrom(params)
		m := &transport.Msg{
			Kind: transport.KindServerModel, From: o.ID,
			Params: buf, Age: age, Bid: bid,
			Trace: transport.Trace{UID: uid, Front: frontCopy},
			Epoch: mem.Epoch, Members: mem.Members, Addrs: addrs,
		}
		s.noteSend(obs.ServerNode+id, m)
		p.enqueueRelease(m, func() { s.pool.Put(buf) })
	}
}

// BroadcastAge runs inside a core handler with s.mu held.
//
//spyker:locked(mu)
func (o *serverOutbound) BroadcastAge(age float64, mem ring.Membership) {
	addrs := (*Server)(o).addrsFor(mem.Members)
	for id, p := range o.peers {
		if p == nil || id == o.ID {
			continue
		}
		m := &transport.Msg{
			Kind: transport.KindAge, From: o.ID, Age: age,
			Epoch: mem.Epoch, Members: mem.Members, Addrs: addrs,
		}
		(*Server)(o).noteSend(obs.ServerNode+id, m)
		p.enqueue(m)
	}
}

// SendToken runs inside a core handler with s.mu held.
//
//spyker:locked(mu)
func (o *serverOutbound) SendToken(t spyker.Token, next int) {
	if p := o.peers[next]; p != nil {
		s := (*Server)(o)
		m := &transport.Msg{
			Kind: transport.KindToken, From: o.ID, Bid: t.Bid, Ages: t.Ages,
			Trace: transport.Trace{UID: obs.RoundUID(o.ID, t.Bid)},
			Epoch: t.Mem.Epoch, Members: t.Mem.Members,
			Addrs: s.addrsFor(t.Mem.Members),
		}
		s.noteSend(obs.ServerNode+next, m)
		s.tokenSeen, s.tokenSeenValid = s.clock(), true
		p.enqueue(m)
	}
}
