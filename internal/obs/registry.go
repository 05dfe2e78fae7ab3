package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use; all methods are safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations <= bounds[i]; one extra overflow bucket counts the rest.
// Observation is two atomic adds plus a binary search over the bounds.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram creates a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// DefBuckets is a generic exponential bucket layout covering sub-ms
// durations up to minutes as well as small counts.
var DefBuckets = []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100}

// StalenessBuckets is tuned to update staleness in model-age units: a
// fresh update has staleness ~0, stragglers reach hundreds.
var StalenessBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		newv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, newv) {
			return
		}
	}
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum reports the sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Mean reports the average observation (0 with no samples).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Bounds returns the bucket upper bounds (aliased; do not modify).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// BucketCounts returns a snapshot of the per-bucket counts; the last
// entry is the overflow bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.counts))
	for i := range h.counts {
		out[i] = h.counts[i].Load()
	}
	return out
}

// Quantile estimates the q-quantile (0..1) assuming observations sit at
// their bucket's upper bound; the overflow bucket reports the largest
// finite bound. Crude but fine for one-line stats.
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		seen += h.counts[i].Load()
		if seen >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Registry is a name-indexed collection of counters and histograms, all
// derived from events by a MetricsSink. Get-or-create lookups take a lock;
// hot paths should look a metric up once and keep the handle.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter   //spyker:guardedby(mu)
	histograms map[string]*Histogram //spyker:guardedby(mu)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given
// bounds on first use (later callers get the existing one regardless of
// bounds; nil bounds mean DefBuckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns a plain map of every metric's current value, suitable
// for expvar.Func publication or JSON dumps. Histograms appear as
// {count, sum, mean, p50, p99}.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.counters)+len(r.histograms))
	for n, c := range r.counters {
		out[n] = c.Value()
	}
	for n, h := range r.histograms {
		out[n] = map[string]any{
			"count": h.Count(),
			"sum":   h.Sum(),
			"mean":  h.Mean(),
			"p50":   h.Quantile(0.50),
			"p99":   h.Quantile(0.99),
		}
	}
	return out
}

// StatsLine renders every metric on one sorted key=value line — the
// periodic log line of the live runtime.
func (r *Registry) StatsLine() string {
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		if v, ok := snap[k].(map[string]any); ok {
			fmt.Fprintf(&b, "%s{n=%v mean=%.3g p99=%.3g}", k, v["count"], v["mean"], v["p99"])
		} else {
			fmt.Fprintf(&b, "%s=%v", k, snap[k])
		}
	}
	return b.String()
}

// Standard metric names fed by the MetricsSink bridge, the registry's one
// writer. Series of one link or one server are named by LinkMetric and
// RejectsMetric; a server's other state (token, ring, links, buffer pool)
// is its Telemetry snapshot, not a series.
const (
	MetricUpdates      = "spyker.updates_aggregated"
	MetricServerAggs   = "spyker.server_aggs"
	MetricTokenPasses  = "spyker.token_passes"
	MetricSyncs        = "spyker.syncs_started"
	MetricStaleness    = "spyker.staleness"
	MetricSyncDuration = "spyker.sync_duration_s"
	MetricBytesSent    = "net.bytes_sent"
	MetricBytesRecv    = "net.bytes_recv"
	MetricMsgsSent     = "net.msgs_sent"
	MetricMsgsRecv     = "net.msgs_recv"
	MetricCheckpoints  = "live.checkpoints"
	// MetricLinkUnmatched counts msg-recv events with no pending msg-send
	// on their link (one-sided instrumentation, ring-buffer loss) plus
	// sends evicted from an over-full pending queue.
	MetricLinkUnmatched = "net.link_delay_unmatched"

	// Per-link series families, one series per directed link (LinkMetric):
	// the delay of matched msg-send/msg-recv pairs, the bytes its sender
	// reported sending, the bytes its receiver reported receiving.
	MetricLinkDelay     = "net.link_delay_s"
	MetricLinkBytesSent = "net.link_bytes_sent"
	MetricLinkBytesRecv = "net.link_bytes_recv"
)

// LinkMetric names family's series of the directed link src -> dst. src
// and dst are node IDs in the trace's ID space (servers carry the
// ServerNode offset).
func LinkMetric(family string, src, dst int) string {
	return fmt.Sprintf("%s.%s->%s", family, NodeName(src), NodeName(dst))
}

// RejectsMetric names the counter of inbound frames the live server with
// the given ID refused (KindReject events).
func RejectsMetric(server int) string {
	return "live.rejects." + NodeName(ServerNode+server)
}

// MetricsSink bridges the event stream into a Registry, so every runtime
// that traces also gets counters/histograms for free: updates aggregated,
// staleness distribution, sync count and duration, token passes,
// message/byte totals, refused frames per server, and per directed link
// the bytes each end reported and a queueing-delay histogram derived from
// matching each msg-recv to its msg-send (FIFO per link).
type MetricsSink struct {
	updates     *Counter
	serverAggs  *Counter
	tokenPasses *Counter
	syncs       *Counter
	checkpoints *Counter
	msgsSent    *Counter
	msgsRecv    *Counter
	bytesSent   *Counter
	bytesRecv   *Counter
	staleness   *Histogram
	syncDur     *Histogram
	unmatched   *Counter
	reg         *Registry

	mu        sync.Mutex
	syncStart map[int]float64        //spyker:guardedby(mu) — node -> time of its open sync round
	links     map[linkKey]*linkState //spyker:guardedby(mu)
}

// linkKey identifies a directed link between two trace node IDs.
type linkKey struct{ src, dst int }

// maxPendingSends bounds the per-link queue of unmatched send times. The
// live runtime only instruments the server side, so server->client sends
// never see a matching recv; the cap keeps one-sided links from growing
// without bound (evictions count as unmatched).
const maxPendingSends = 1024

// linkState matches msg-send to msg-recv on one directed link. Links are
// FIFO in both runtimes, so matching is a queue: the oldest pending send
// pairs with the next recv. sent and recv total the link's bytes as its
// two ends reported them.
type linkState struct {
	pending    []float64 // send times awaiting their recv
	head       int
	hist       *Histogram
	sent, recv *Counter
}

func (ls *linkState) push(t float64) (evicted bool) {
	if len(ls.pending)-ls.head >= maxPendingSends {
		ls.head++ // evict the oldest pending send
		evicted = true
	}
	// Compact once the consumed prefix dominates the slice.
	if ls.head > 0 && ls.head*2 >= len(ls.pending) {
		n := copy(ls.pending, ls.pending[ls.head:])
		ls.pending = ls.pending[:n]
		ls.head = 0
	}
	ls.pending = append(ls.pending, t)
	return evicted
}

func (ls *linkState) pop() (float64, bool) {
	if ls.head >= len(ls.pending) {
		return 0, false
	}
	t := ls.pending[ls.head]
	ls.head++
	if ls.head == len(ls.pending) {
		ls.pending = ls.pending[:0]
		ls.head = 0
	}
	return t, true
}

// NewMetricsSink creates the bridge and registers its metrics in reg.
func NewMetricsSink(reg *Registry) *MetricsSink {
	return &MetricsSink{
		updates:     reg.Counter(MetricUpdates),
		serverAggs:  reg.Counter(MetricServerAggs),
		tokenPasses: reg.Counter(MetricTokenPasses),
		syncs:       reg.Counter(MetricSyncs),
		checkpoints: reg.Counter(MetricCheckpoints),
		msgsSent:    reg.Counter(MetricMsgsSent),
		msgsRecv:    reg.Counter(MetricMsgsRecv),
		bytesSent:   reg.Counter(MetricBytesSent),
		bytesRecv:   reg.Counter(MetricBytesRecv),
		staleness:   reg.Histogram(MetricStaleness, StalenessBuckets),
		syncDur:     reg.Histogram(MetricSyncDuration, DefBuckets),
		unmatched:   reg.Counter(MetricLinkUnmatched),
		reg:         reg,
		syncStart:   make(map[int]float64),
		links:       make(map[linkKey]*linkState),
	}
}

// Enabled implements Sink.
func (m *MetricsSink) Enabled() bool { return true }

// Emit implements Sink.
func (m *MetricsSink) Emit(e Event) {
	switch e.Kind {
	case KindClientUpdate:
		m.updates.Inc()
		m.staleness.Observe(e.Stale)
	case KindServerAgg:
		m.serverAggs.Inc()
	case KindTokenPass:
		m.tokenPasses.Inc()
	case KindSyncStart:
		m.syncs.Inc()
		m.mu.Lock()
		m.syncStart[e.Node] = e.Time
		m.mu.Unlock()
	case KindSyncEnd:
		m.mu.Lock()
		start, ok := m.syncStart[e.Node]
		delete(m.syncStart, e.Node)
		m.mu.Unlock()
		if ok {
			m.syncDur.Observe(e.Time - start)
		}
	case KindMsgSend:
		m.msgsSent.Inc()
		m.bytesSent.Add(int64(e.Bytes))
		m.mu.Lock()
		ls := m.link(e.Node, e.Peer)
		evicted := ls.push(e.Time)
		ls.sent.Add(int64(e.Bytes))
		m.mu.Unlock()
		if evicted {
			m.unmatched.Inc()
		}
	case KindMsgRecv:
		m.msgsRecv.Inc()
		m.bytesRecv.Add(int64(e.Bytes))
		// Match against the oldest pending send on the (sender ->
		// receiver) link: links are FIFO in both runtimes, so the pair is
		// exact under the simulator and wall-clock-skew-accurate in the
		// live runtime (each server stamps with its own start-relative
		// clock). The observed delay covers outbox queueing plus the wire.
		m.mu.Lock()
		ls := m.link(e.Peer, e.Node)
		sent, ok := ls.pop()
		hist := ls.hist
		ls.recv.Add(int64(e.Bytes))
		m.mu.Unlock()
		if ok {
			if d := e.Time - sent; d >= 0 {
				hist.Observe(d)
			}
		} else {
			m.unmatched.Inc()
		}
	case KindCheckpoint:
		m.checkpoints.Inc()
	case KindReject:
		m.reg.Counter(RejectsMetric(e.Node)).Inc()
	}
}

// link returns the matcher state of the directed link src -> dst;
// callers hold m.mu.
//
//spyker:locked(mu)
func (m *MetricsSink) link(src, dst int) *linkState {
	k := linkKey{src, dst}
	ls, ok := m.links[k]
	if !ok {
		ls = &linkState{
			hist: m.reg.Histogram(LinkMetric(MetricLinkDelay, src, dst), DefBuckets),
			sent: m.reg.Counter(LinkMetric(MetricLinkBytesSent, src, dst)),
			recv: m.reg.Counter(LinkMetric(MetricLinkBytesRecv, src, dst)),
		}
		m.links[k] = ls
	}
	return ls
}
