// Package geo models the geo-distributed network the paper emulates:
// AWS inter-region latencies (paper Tab. 4), 100 Mbps links, FIFO message
// delivery, and per-category byte accounting used for the bandwidth
// evaluation (paper Fig. 12).
package geo

import (
	"fmt"

	"github.com/spyker-fl/spyker/internal/obs"
	"github.com/spyker-fl/spyker/internal/simulation"
)

// Region is one of the four AWS regions of the paper's evaluation.
type Region int

// The four regions from paper Tab. 4.
const (
	HongKong Region = iota
	Paris
	Sydney
	California
	numRegions
)

// Regions lists all modeled regions in matrix order.
var Regions = [...]Region{HongKong, Paris, Sydney, California}

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case HongKong:
		return "HongKong"
	case Paris:
		return "Paris"
	case Sydney:
		return "Sydney"
	case California:
		return "California"
	default:
		return fmt.Sprintf("Region(%d)", int(r))
	}
}

// awsLatencySeconds is paper Tab. 4 converted from milliseconds to seconds.
// Row = source, column = destination. The diagonal is the intra-region
// latency used between a client and its nearest server.
var awsLatencySeconds = [numRegions][numRegions]float64{
	{0.00141, 0.1949, 0.13228, 0.15513},
	{0.19791, 0.0009, 0.27883, 0.14225},
	{0.13206, 0.28011, 0.00256, 0.13847},
	{0.15496, 0.14279, 0.13857, 0.00214},
}

// AWSLatency returns the one-way latency in seconds from src to dst.
func AWSLatency(src, dst Region) float64 {
	return awsLatencySeconds[src][dst]
}

// Traffic categorizes transfers for the bandwidth evaluation.
type Traffic int

// Traffic categories.
const (
	ClientServer Traffic = iota + 1 // model up/down between clients and servers
	ServerServer                    // model broadcasts, ages, token
)

// String implements fmt.Stringer.
func (t Traffic) String() string {
	switch t {
	case ClientServer:
		return "client-server"
	case ServerServer:
		return "server-server"
	default:
		return fmt.Sprintf("Traffic(%d)", int(t))
	}
}

// LatencyFunc maps an ordered region pair to a one-way latency in seconds.
type LatencyFunc func(src, dst Region) float64

// ConstantLatency returns a LatencyFunc that charges the same latency on
// every link, including intra-region ones. It models the paper's "No
// lat." configuration (Tab. 6): "we set all network latencies to the same
// value", isolating resource heterogeneity from geography.
func ConstantLatency(l float64) LatencyFunc {
	return func(Region, Region) float64 { return l }
}

// Verdict is a perturbation decision for one message in flight: drop it,
// deliver a duplicate copy, and/or add extra one-way delay in seconds.
// The zero Verdict delivers the message untouched.
type Verdict struct {
	Drop       bool
	Dup        bool
	ExtraDelay float64
}

// PerturbFunc inspects one outgoing message and decides its fate. It runs
// synchronously inside Post (and Send), i.e. in schedule order, so a seeded
// implementation keeps the whole simulation deterministic. Returning the
// zero Verdict leaves scheduling byte-identical to an unperturbed network.
type PerturbFunc func(src, dst Endpoint, size int, kind Traffic) Verdict

// Transfer is one byte-accounting record.
type Transfer struct {
	Time  float64 // virtual send time, seconds
	Bytes int
	Kind  Traffic
}

// record is a Transfer as the log stores it, in 16 bytes: the send time,
// then the size shifted above the Kind's kindBits. The log keeps records
// in blocks of blockLen (64 KiB), so appending never copies what it holds.
type record struct {
	time float64
	word uint64
}

const kindBits, blockLen = 2, 4096

// Network delivers messages between endpoints over the simulator with
// region-dependent latency, a shared per-link bandwidth, FIFO ordering per
// directed link, and byte accounting.
type Network struct {
	sim     *simulation.Sim
	latency LatencyFunc
	deliver simulation.Kind // the handler of every link's arrivals

	// links holds every directed link used so far; index finds one by its
	// endpoints' IDs without hashing (see linkOf).
	links      []link
	index      [][][][]int32
	log        []*[blockLen]record // the n transfers so far
	n          int
	totalBytes [2]int // indexed by Traffic - 1

	sink    obs.Sink
	perturb PerturbFunc
}

// link is one directed link: the arrival watermark that keeps it FIFO and
// its traced or closure messages in flight, oldest first. Its arrivals are
// scheduled in send order at non-decreasing times, so the event that fires
// for the link always belongs to the oldest of them. An untraced Post
// needs no record: its arrival event is the owner's Job itself.
type link struct {
	src, dst int // endpoint IDs
	last     float64
	inFlight simulation.FIFO[message]
}

// message is one delivery in flight: the owner's Job (or, from Send, a
// closure) and what the msg-recv trace event needs.
type message struct {
	job    simulation.Job
	fn     func()
	size   int
	uid    obs.UID
	traced bool // the sink was on at send time: emit msg-recv on arrival
}

// bandwidth is every link's capacity in bytes/second: the paper's
// 100 Mbps.
const bandwidth = 100e6 / 8

// Config parameterizes a Network.
type Config struct {
	Latency LatencyFunc // defaults to AWSLatency
}

// NewNetwork creates a network on the given simulator.
func NewNetwork(sim *simulation.Sim, cfg Config) *Network {
	lat := cfg.Latency
	if lat == nil {
		lat = AWSLatency
	}
	n := &Network{
		sim:     sim,
		latency: lat,
		sink:    obs.Nop{},
	}
	n.deliver = sim.Handle(n.arrive)
	return n
}

// Instrument makes the network emit obs.KindMsgSend at send time and
// obs.KindMsgRecv at delivery time for every message (node IDs are the
// endpoint IDs, so servers carry their 1e6 offset). The sink only
// records; arrival times and FIFO order are untouched.
func (n *Network) Instrument(sink obs.Sink) {
	if sink == nil {
		sink = obs.Nop{}
	}
	n.sink = sink
}

// SetPerturb installs (or, with nil, removes) the failure-injection hook
// consulted on every send. The hook's cost when installed is one call per
// message; when nil the only cost is a nil check, so an unfaulted network
// stays on the exact schedule it had before this hook existed.
func (n *Network) SetPerturb(f PerturbFunc) { n.perturb = f }

// Endpoint identifies a network attachment point: a non-negative integer
// node ID plus its region.
type Endpoint struct {
	ID     int
	Region Region
}

// Post sends a message of size bytes from src to dst whose arrival runs j:
// after the modeled transfer — latency + size/bandwidth — and
// never before a message sent earlier on the same directed link (FIFO).
// uid is the causal trace context of the update or broadcast riding in the
// message (obs.UID; zero for untraced messages), stamped on both the
// msg-send and the msg-recv event so a message's two endpoints link into
// one journey across the trace; it never perturbs delivery.
//
// Post reports how many times j will run: 1, or under failure injection 0
// for a dropped message and 2 for a duplicated one. The owner of the data
// j addresses keeps it until the last of them.
func (n *Network) Post(src, dst Endpoint, size int, kind Traffic, uid obs.UID, j simulation.Job) int {
	return n.send(src, dst, size, kind, message{job: j, uid: uid})
}

// Send is Post for a closure: deliver runs on arrival, untraced. It serves
// callers outside the protocol (the repository benchmark's geo.send_ns
// probe, tests); the protocol's messages are Jobs.
func (n *Network) Send(src, dst Endpoint, size int, kind Traffic, deliver func()) {
	n.send(src, dst, size, kind, message{fn: deliver})
}

func (n *Network) send(src, dst Endpoint, size int, kind Traffic, m message) int {
	if size < 0 || uint64(size) >= 1<<(63-kindBits) {
		panic(fmt.Sprintf("geo: message size %d out of range", size))
	}
	if kind != ClientServer && kind != ServerServer {
		panic(fmt.Sprintf("geo: unknown traffic kind %d", int(kind)))
	}
	now := n.sim.Now()
	if n.n%blockLen == 0 {
		n.log = append(n.log, new([blockLen]record))
	}
	n.log[n.n/blockLen][n.n%blockLen] = record{now, uint64(size)<<kindBits | uint64(kind)}
	n.n++
	n.totalBytes[kind-1] += size

	var v Verdict
	if n.perturb != nil {
		v = n.perturb(src, dst, size, kind)
	}
	if v.Drop {
		// The sender transmitted (bytes stay accounted) but the message
		// vanishes on the wire: no delivery, and no FIFO watermark update
		// since nothing will arrive.
		if n.sink.Enabled() {
			n.sink.Emit(obs.Event{
				Time: now, Kind: obs.KindMsgSend,
				Node: src.ID, Peer: dst.ID, Bytes: size, UID: m.uid,
				Note: "dropped",
			})
		}
		return 0
	}

	arrive := now + n.latency(src.Region, dst.Region) + float64(size)/bandwidth + v.ExtraDelay
	l, at := n.linkOf(src.ID, dst.ID)
	if arrive < l.last {
		arrive = l.last
	}
	l.last = arrive
	m.size = size
	if n.sink.Enabled() {
		n.sink.Emit(obs.Event{
			Time: now, Kind: obs.KindMsgSend,
			Node: src.ID, Peer: dst.ID, Bytes: size, UID: m.uid,
		})
		m.traced = true
	}
	copies := 1
	if v.Dup {
		// The duplicate lands at the same instant; the simulator's
		// insertion-order tiebreak delivers it deterministically right
		// after the original.
		copies = 2
	}
	arrival := m.job
	if m.traced || m.fn != nil {
		// The arrival has more to do than run a Job: the message waits in
		// the link's FIFO for the link's own handler.
		arrival = simulation.Job{Kind: n.deliver, Arg: at}
		for range copies {
			l.inFlight.Push(m)
		}
	}
	for range copies {
		n.sim.PostAt(arrive, arrival)
	}
	return copies
}

// arrive is the handler of a traced or closure message arriving on link
// i: the oldest one in flight there.
func (n *Network) arrive(i int) {
	l := &n.links[i]
	m := l.inFlight.Pop()
	if m.traced {
		n.sink.Emit(obs.Event{
			Time: n.sim.Now(), Kind: obs.KindMsgRecv,
			Node: l.dst, Peer: l.src, Bytes: m.size, UID: m.uid,
		})
	}
	if m.fn != nil {
		m.fn()
		return
	}
	n.sim.Do(m.job)
}

// linkOf returns the link src→dst and its index, creating it on first
// use. Endpoint IDs come in blocks of obs.ServerNode — clients, servers,
// then HierFAVG's cloud — so index is addressed by (block, offset) of each
// end, and every row stays as short as the IDs its source talks to.
func (n *Network) linkOf(src, dst int) (*link, int) {
	row := grownAt(grownAt(&n.index, src/obs.ServerNode), src%obs.ServerNode)
	slot := grownAt(grownAt(row, dst/obs.ServerNode), dst%obs.ServerNode)
	if *slot == 0 {
		n.links = append(n.links, link{src: src, dst: dst})
		*slot = int32(len(n.links))
	}
	return &n.links[*slot-1], int(*slot - 1)
}

// grownAt returns &(*s)[i], growing *s to hold it.
func grownAt[T any](s *[]T, i int) *T {
	if i >= len(*s) {
		*s = append(*s, make([]T, i+1-len(*s))...)
	}
	return &(*s)[i]
}

// TotalBytes reports the cumulative bytes sent for a traffic category; 0
// for an unknown one.
func (n *Network) TotalBytes(kind Traffic) int {
	if kind != ClientServer && kind != ServerServer {
		return 0
	}
	return n.totalBytes[kind-1]
}

// Transfers returns a copy of the transfer log in send order, built on
// each call; the network keeps no reference to it.
func (n *Network) Transfers() []Transfer {
	out := make([]Transfer, n.n)
	for i := range out {
		r := n.log[i/blockLen][i%blockLen]
		out[i] = Transfer{Time: r.time, Bytes: int(r.word >> kindBits), Kind: Traffic(r.word & (1<<kindBits - 1))}
	}
	return out
}

// BytesUntil reports cumulative bytes sent at or before virtual time t.
func (n *Network) BytesUntil(t float64) int {
	var s int
	for i := range n.n {
		r := n.log[i/blockLen][i%blockLen]
		if r.time > t {
			break // transfers are appended in time order
		}
		s += int(r.word >> kindBits)
	}
	return s
}
