package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c") != c {
		t.Fatal("Counter must return the same handle for the same name")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	counts := h.BucketCounts()
	// <=1: 0.5 and 1; <=2: 1.5; <=4: 3; overflow: 100.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got := h.Sum(); got != 106 {
		t.Fatalf("sum = %v, want 106", got)
	}
	if got := h.Quantile(0.5); got != 2 {
		t.Fatalf("p50 = %v, want 2", got)
	}
	if got := h.Quantile(1); got != 4 {
		t.Fatalf("p100 = %v, want 4 (overflow reports last bound)", got)
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-ascending bounds must panic")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Counter("shared").Inc()
				r.Histogram("h", nil).Observe(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 1600 {
		t.Fatalf("counter = %d, want 1600", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 1600 {
		t.Fatalf("histogram count = %d, want 1600", got)
	}
}

func TestSnapshotAndStatsLine(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.count").Add(3)
	r.Histogram("c.lat", []float64{1, 10}).Observe(0.5)
	snap := r.Snapshot()
	if snap["a.count"] != int64(3) {
		t.Fatalf("snapshot counter = %v", snap["a.count"])
	}
	line := r.StatsLine()
	for _, want := range []string{"a.count=3", "c.lat{"} {
		if !strings.Contains(line, want) {
			t.Fatalf("stats line %q missing %q", line, want)
		}
	}
}

func TestMetricsSinkDerivesMetrics(t *testing.T) {
	r := NewRegistry()
	ms := NewMetricsSink(r)
	if !ms.Enabled() {
		t.Fatal("metrics sink must be enabled")
	}
	ms.Emit(Event{Time: 1, Kind: KindClientUpdate, Node: 0, Peer: 5, Age: 2, Stale: 3})
	ms.Emit(Event{Time: 1.5, Kind: KindServerAgg, Node: 0, Peer: 1, Age: 2.5})
	ms.Emit(Event{Time: 2, Kind: KindSyncStart, Node: 0, Bid: 1, Note: "trigger"})
	ms.Emit(Event{Time: 2.75, Kind: KindSyncEnd, Node: 0, Bid: 1})
	ms.Emit(Event{Time: 3, Kind: KindTokenPass, Node: 0, Peer: 1, Bid: 2})
	ms.Emit(Event{Time: 3, Kind: KindMsgSend, Node: 0, Peer: 1, Bytes: 100})
	ms.Emit(Event{Time: 3.1, Kind: KindMsgRecv, Node: 1, Peer: 0, Bytes: 100})
	ms.Emit(Event{Time: 4, Kind: KindCheckpoint, Node: 0, Bytes: 999})

	if got := r.Counter(MetricUpdates).Value(); got != 1 {
		t.Fatalf("updates = %d", got)
	}
	if got := r.Histogram(MetricStaleness, nil).Mean(); got != 3 {
		t.Fatalf("staleness mean = %v, want 3", got)
	}
	h := r.Histogram(MetricSyncDuration, nil)
	if h.Count() != 1 {
		t.Fatalf("sync duration count = %d, want 1", h.Count())
	}
	if got := h.Sum(); got < 0.74 || got > 0.76 {
		t.Fatalf("sync duration = %v, want 0.75", got)
	}
	if got := r.Counter(MetricBytesSent).Value(); got != 100 {
		t.Fatalf("bytes sent = %d", got)
	}
	if got := r.Counter(MetricCheckpoints).Value(); got != 1 {
		t.Fatalf("checkpoints = %d", got)
	}
	// A SyncEnd without a matching start must not record a duration.
	ms.Emit(Event{Time: 9, Kind: KindSyncEnd, Node: 3, Bid: 7})
	if h.Count() != 1 {
		t.Fatal("unmatched sync-end must be ignored")
	}

	// Two live servers on the same registry, as RunCluster instruments
	// them: each one's link bytes and rejects land in its own series.
	s0, s1 := ServerNode, ServerNode+1
	ms.Emit(Event{Time: 5, Kind: KindMsgSend, Node: s0, Peer: 7, Bytes: 40})
	ms.Emit(Event{Time: 5, Kind: KindMsgSend, Node: s0, Peer: 7, Bytes: 2})
	ms.Emit(Event{Time: 5, Kind: KindMsgSend, Node: s1, Peer: s0, Bytes: 30})
	ms.Emit(Event{Time: 5, Kind: KindMsgRecv, Node: s0, Peer: s1, Bytes: 30})
	ms.Emit(Event{Time: 5, Kind: KindMsgRecv, Node: s1, Peer: 8, Bytes: 9})
	ms.Emit(Event{Time: 6, Kind: KindReject, Node: 1, Peer: NoPeer, Note: "hello"})
	ms.Emit(Event{Time: 6, Kind: KindReject, Node: 1, Peer: 8, Note: "dimension"})
	for name, want := range map[string]int64{
		LinkMetric(MetricLinkBytesSent, s0, 7):  42,
		LinkMetric(MetricLinkBytesSent, s1, s0): 30,
		LinkMetric(MetricLinkBytesRecv, s1, s0): 30,
		LinkMetric(MetricLinkBytesRecv, 8, s1):  9,
		LinkMetric(MetricLinkBytesRecv, s0, 7):  0,
		RejectsMetric(0):                        0,
		RejectsMetric(1):                        2,
	} {
		if got := r.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := r.Counter(MetricBytesSent).Value(); got != 100+42+30 {
		t.Errorf("bytes sent = %d, want the links' sum %d", got, 100+42+30)
	}
}

func TestMetricsSinkLinkDelay(t *testing.T) {
	r := NewRegistry()
	ms := NewMetricsSink(r)

	// Two messages on the 0->1 link; FIFO delivery matches them in send
	// order, so delays are 0.3s and 0.5s.
	ms.Emit(Event{Time: 1.0, Kind: KindMsgSend, Node: 0, Peer: 1, Bytes: 10})
	ms.Emit(Event{Time: 1.1, Kind: KindMsgSend, Node: 0, Peer: 1, Bytes: 10})
	ms.Emit(Event{Time: 1.3, Kind: KindMsgRecv, Node: 1, Peer: 0, Bytes: 10})
	ms.Emit(Event{Time: 1.6, Kind: KindMsgRecv, Node: 1, Peer: 0, Bytes: 10})
	// A different directed link gets its own histogram.
	ms.Emit(Event{Time: 2.0, Kind: KindMsgSend, Node: 1, Peer: 0, Bytes: 10})
	ms.Emit(Event{Time: 2.2, Kind: KindMsgRecv, Node: 0, Peer: 1, Bytes: 10})

	h01 := r.Histogram(LinkMetric(MetricLinkDelay, 0, 1), nil)
	if h01.Count() != 2 {
		t.Fatalf("0->1 delay count = %d, want 2", h01.Count())
	}
	if got := h01.Sum(); got < 0.79 || got > 0.81 {
		t.Fatalf("0->1 delay sum = %v, want ~0.8", got)
	}
	h10 := r.Histogram(LinkMetric(MetricLinkDelay, 1, 0), nil)
	if h10.Count() != 1 {
		t.Fatalf("1->0 delay count = %d, want 1", h10.Count())
	}
	if got := r.Counter(MetricLinkUnmatched).Value(); got != 0 {
		t.Fatalf("unmatched = %d, want 0", got)
	}

	// A recv with no pending send on that link counts as unmatched.
	ms.Emit(Event{Time: 3, Kind: KindMsgRecv, Node: 5, Peer: 9, Bytes: 1})
	if got := r.Counter(MetricLinkUnmatched).Value(); got != 1 {
		t.Fatalf("unmatched = %d, want 1", got)
	}
}

func TestMetricsSinkLinkDelayEvictsOnOverflow(t *testing.T) {
	r := NewRegistry()
	ms := NewMetricsSink(r)
	// One-sided instrumentation (sends observed, receives never): the
	// pending queue must cap and count evictions instead of growing
	// without bound.
	for i := 0; i < maxPendingSends+10; i++ {
		ms.Emit(Event{Time: float64(i), Kind: KindMsgSend, Node: 0, Peer: 1, Bytes: 1})
	}
	if got := r.Counter(MetricLinkUnmatched).Value(); got != 10 {
		t.Fatalf("evictions = %d, want 10", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("net.msgs_sent").Add(7)
	h := r.Histogram("lat", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE net_msgs_sent counter\nnet_msgs_sent 7\n",
		"# TYPE lat histogram",
		`lat_bucket{le="0.1"} 1`,
		`lat_bucket{le="1"} 2`,
		`lat_bucket{le="+Inf"} 3`,
		"lat_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Names with characters outside the metric alphabet must be sanitized
	// (the link-delay metrics contain '>' and '-').
	r2 := NewRegistry()
	r2.Histogram(LinkMetric(MetricLinkDelay, ServerNode+1, 4), nil).Observe(0.2)
	var b2 strings.Builder
	if err := r2.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b2.String(), "net_link_delay_s_s1__c4_count 1") {
		t.Fatalf("sanitized link metric missing:\n%s", b2.String())
	}
}
