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
// synchronously inside Send, i.e. in schedule order, so a seeded
// implementation keeps the whole simulation deterministic. Returning the
// zero Verdict leaves scheduling byte-identical to an unperturbed network.
type PerturbFunc func(src, dst Endpoint, size int, kind Traffic) Verdict

// Transfer is one byte-accounting record.
type Transfer struct {
	Time  float64 // virtual send time, seconds
	Bytes int
	Kind  Traffic
}

// Network delivers messages between endpoints over the simulator with
// region-dependent latency, a shared per-link bandwidth, FIFO ordering per
// directed link, and byte accounting.
type Network struct {
	sim     *simulation.Sim
	latency LatencyFunc

	lastDelivery map[linkKey]float64
	transfers    []Transfer
	totalBytes   map[Traffic]int

	sink    obs.Sink
	perturb PerturbFunc
}

type linkKey struct{ src, dst int }

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
	return &Network{
		sim:          sim,
		latency:      lat,
		lastDelivery: make(map[linkKey]float64),
		totalBytes:   make(map[Traffic]int),
		sink:         obs.Nop{},
	}
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
// consulted on every Send. The hook's cost when installed is one call per
// message; when nil the only cost is a nil check, so an unfaulted network
// stays on the exact schedule it had before this hook existed.
func (n *Network) SetPerturb(f PerturbFunc) { n.perturb = f }

// Endpoint identifies a network attachment point: an integer node ID plus
// its region.
type Endpoint struct {
	ID     int
	Region Region
}

// Send schedules deliver to run after the modeled transfer of size bytes
// from src to dst: latency + size/bandwidth, never before a previously
// sent message on the same directed link (FIFO).
func (n *Network) Send(src, dst Endpoint, size int, kind Traffic, deliver func()) {
	n.SendTraced(src, dst, size, kind, 0, deliver)
}

// SendTraced is Send carrying a causal trace context: uid is the ID of
// the update or broadcast riding in the message (obs.UID; zero for
// untraced messages) and is stamped on both the msg-send and the msg-recv
// event, so a message's two endpoints link into one journey across the
// trace. Scheduling is identical to Send — trace context never perturbs
// delivery.
func (n *Network) SendTraced(src, dst Endpoint, size int, kind Traffic, uid obs.UID, deliver func()) {
	if size < 0 {
		panic(fmt.Sprintf("geo: negative message size %d", size))
	}
	n.transfers = append(n.transfers, Transfer{Time: n.sim.Now(), Bytes: size, Kind: kind})
	n.totalBytes[kind] += size

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
				Time: n.sim.Now(), Kind: obs.KindMsgSend,
				Node: src.ID, Peer: dst.ID, Bytes: size, UID: uid,
				Note: "dropped",
			})
		}
		return
	}

	arrive := n.sim.Now() + n.latency(src.Region, dst.Region) + float64(size)/bandwidth + v.ExtraDelay
	key := linkKey{src.ID, dst.ID}
	if last := n.lastDelivery[key]; arrive < last {
		arrive = last
	}
	n.lastDelivery[key] = arrive
	if n.sink.Enabled() {
		n.sink.Emit(obs.Event{
			Time: n.sim.Now(), Kind: obs.KindMsgSend,
			Node: src.ID, Peer: dst.ID, Bytes: size, UID: uid,
		})
		inner := deliver
		deliver = func() {
			n.sink.Emit(obs.Event{
				Time: n.sim.Now(), Kind: obs.KindMsgRecv,
				Node: dst.ID, Peer: src.ID, Bytes: size, UID: uid,
			})
			inner()
		}
	}
	n.sim.ScheduleAt(arrive, deliver)
	if v.Dup {
		// The duplicate lands at the same instant; the simulator's
		// insertion-order tiebreak delivers it deterministically right
		// after the original.
		n.sim.ScheduleAt(arrive, deliver)
	}
}

// TotalBytes reports the cumulative bytes sent for a traffic category.
func (n *Network) TotalBytes(kind Traffic) int { return n.totalBytes[kind] }

// Transfers returns the transfer log (aliased; callers must not modify).
func (n *Network) Transfers() []Transfer { return n.transfers }

// BytesUntil reports cumulative bytes sent at or before virtual time t.
func (n *Network) BytesUntil(t float64) int {
	var s int
	for _, tr := range n.transfers {
		if tr.Time > t {
			break // transfers are appended in time order
		}
		s += tr.Bytes
	}
	return s
}
