package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestKindJSONRoundtrip(t *testing.T) {
	for k := KindClientUpdate; k <= KindCheckpoint; k++ {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back EventKind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if back != k {
			t.Fatalf("roundtrip %v -> %v", k, back)
		}
	}
	// "audit" is the kind of the retired contribution audit plane: a trace
	// recorded with it is refused like any other unknown kind.
	for _, name := range []string{"no-such-kind", "audit"} {
		var bad EventKind
		if err := json.Unmarshal([]byte(`"`+name+`"`), &bad); err == nil {
			t.Fatalf("unknown kind name %q must fail to unmarshal", name)
		}
	}
	if _, err := json.Marshal(EventKind(99)); err == nil {
		t.Fatal("unknown kind value must fail to marshal")
	}
}

func TestNopDisabled(t *testing.T) {
	var s Sink = Nop{}
	if s.Enabled() {
		t.Fatal("Nop must report disabled")
	}
	s.Emit(Event{}) // must not panic
}

func TestMultiCollapses(t *testing.T) {
	if _, ok := Multi().(Nop); !ok {
		t.Fatal("empty Multi must be Nop")
	}
	if _, ok := Multi(nil, Nop{}, nil).(Nop); !ok {
		t.Fatal("Multi of nop/nil must be Nop")
	}
	tr := NewTracer(8)
	if got := Multi(Nop{}, tr); got != Sink(tr) {
		t.Fatal("single live sink must be returned unwrapped")
	}
	tr2 := NewTracer(8)
	m := Multi(tr, tr2)
	if !m.Enabled() {
		t.Fatal("multi of live sinks must be enabled")
	}
	m.Emit(Event{Kind: KindTokenPass, Peer: NoPeer})
	if tr.Len() != 1 || tr2.Len() != 1 {
		t.Fatalf("fanout missed a sink: %d/%d", tr.Len(), tr2.Len())
	}
}

func TestTracerRingWraparound(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Emit(Event{Time: float64(i), Kind: KindMsgSend, Node: i, Peer: NoPeer})
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Events()
	for i, e := range evs {
		if want := 6 + i; e.Node != want {
			t.Fatalf("event %d has node %d, want %d (oldest-first order)", i, e.Node, want)
		}
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Emit(Event{Kind: KindMsgRecv, Node: g, Peer: i})
			}
		}(g)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Fatalf("Len = %d, want 800", tr.Len())
	}
}

func TestJSONLRoundtrip(t *testing.T) {
	tr := NewTracer(16)
	want := []Event{
		{Time: 0.5, Kind: KindClientUpdate, Node: 1, Peer: 7, Age: 3, Stale: 1.5,
			UID: UpdateUID(7, 12)},
		{Time: 1.25, Kind: KindTokenPass, Node: 0, Peer: 1, Bid: 4},
		{Time: 2, Kind: KindMsgSend, Node: 1_000_000, Peer: 3, Bytes: 4096, UID: RoundUID(0, 4, 0)},
		{Time: 2.5, Kind: KindServerAgg, Node: 2, Peer: 0, Bid: 4, UID: RoundUID(0, 4, 1)},
		{Time: 3, Kind: KindSyncStart, Node: 2, Peer: NoPeer, Bid: 5, Note: "trigger"},
	}
	for _, e := range want {
		tr.Emit(e)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestReadJSONLSkipsBlankAndRejectsGarbage(t *testing.T) {
	in := "{\"t\":1,\"kind\":\"msg-send\",\"node\":0,\"peer\":1}\n\n"
	evs, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 {
		t.Fatalf("got %d events, want 1", len(evs))
	}
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line must error")
	}
}

func TestReadJSONLRejectsNonEventJSON(t *testing.T) {
	// Valid JSON that is not a protocol event must fail loudly, not decode
	// to a zero Event and silently dilute the analysis.
	for _, in := range []string{"{}\n", "null\n", `{"foo": 1}` + "\n"} {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Fatalf("non-event line %q must error", in)
		}
	}
	// A malformed line after valid ones must still fail (no silent
	// prefix summarization).
	in := `{"t":1,"kind":"client-update","node":0,"peer":1}` + "\n{}\n"
	if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
		t.Fatal("malformed suffix must error")
	}
}

// TestReadJSONLForwardCompat pins the on-disk format of a pre-provenance
// trace: events without uid fields must load, summarize, and build a
// lineage without error — its updates, which no copy UID connects.
func TestReadJSONLForwardCompat(t *testing.T) {
	old := `{"t":0.5,"kind":"client-update","node":0,"peer":3,"age":2,"stale":1}
{"t":1,"kind":"msg-send","node":0,"peer":1,"bytes":128}
{"t":1.5,"kind":"server-agg","node":1,"peer":0,"bid":1}
`
	evs, err := ReadJSONL(strings.NewReader(old))
	if err != nil {
		t.Fatalf("legacy trace failed to load: %v", err)
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for _, e := range evs {
		if e.UID != 0 {
			t.Fatalf("legacy event grew trace context: %+v", e)
		}
	}
	var b bytes.Buffer
	Summarize(evs).WriteText(&b)
	if b.Len() == 0 {
		t.Fatal("legacy trace did not summarize")
	}
	l := BuildLineage(evs)
	if len(l.Updates) != 1 || len(l.Updates[0].Arrivals) != 0 {
		t.Fatalf("legacy lineage: %d updates, want 1 that reached no other server", len(l.Updates))
	}
}

// BenchmarkEmitTraced is the cost of observing: a representative
// protocol-event mix through the full instrumented-path sink (ring-buffer
// tracer + the derived-metrics bridge), the composition every traced sim
// or live run attaches.
func BenchmarkEmitTraced(b *testing.B) {
	const batch, modelBytes = 1000, 8 * 25000
	tracer := NewTracer(4096)
	sink := Multi(tracer, NewMetricsSink(NewRegistry()))
	events := make([]Event, batch)
	for i := range events {
		t := float64(i) * 0.001
		switch i % 5 {
		case 0:
			events[i] = Event{Time: t, Kind: KindClientUpdate, Node: i % 4, Peer: i % 32,
				Age: float64(i), Stale: 1, UID: UpdateUID(i%32, int64(i))}
		case 1:
			events[i] = Event{Time: t, Kind: KindMsgSend, Node: i % 32, Peer: ServerNode + i%4, Bytes: modelBytes}
		case 2:
			events[i] = Event{Time: t, Kind: KindMsgRecv, Node: ServerNode + i%4, Peer: i % 32, Bytes: modelBytes}
		case 3:
			events[i] = Event{Time: t, Kind: KindServerAgg, Node: i % 4, Peer: (i + 1) % 4,
				Age: float64(i), Bid: i / 5, UID: RoundUID(i%4, i/5, 0)}
		default:
			events[i] = Event{Time: t, Kind: KindTokenPass, Node: i % 4, Peer: (i + 1) % 4, Bid: i / 5}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink.Emit(events[i%batch])
	}
	if seen := uint64(tracer.Len()) + tracer.Dropped(); seen != uint64(b.N) {
		b.Fatalf("tracer saw %d of %d events", seen, b.N)
	}
}
