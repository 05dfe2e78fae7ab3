package main

// The traced pass: decorators around the interfaces the runtimes accept
// record one span per call into a preallocated in-memory buffer. Nothing
// here runs during the reps the end-to-end metrics come from.

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"
)

// Layers that get spans. The roots (one algorithm run, one live rep)
// follow the fixed layers; rootLayer maps a root name to its id.
const (
	lyBuild     = iota // fl.Algorithm.Build
	lyRun              // simulation.Sim.Run
	lyNewModel         // env.NewModel
	lyTrain            // fl.Model.Train
	lySetParams        // fl.Model.SetParams
	lyObserve          // fl.Observer.ClientUpdateProcessed
	lySend             // transport.Conn.Send, client side
	lyWait             // transport.Conn.RecvInto, client side
	numFixedLayers
)

var fixedLayerNames = [numFixedLayers]string{
	"alg.build", "simulation.run", "fl.newmodel", "fl.train", "fl.setparams",
	"metrics.observe", "transport.send", "live.wait",
}

// span is one decorated call. parent indexes the span that was open when
// it began (-1 for a root); rep is the repetition it belongs to.
type span struct {
	layer, rep, parent int32
	start, end         int64 // ns since the tracer's origin
}

// maxSpans bounds the buffer. The busiest workload (sim-protocol) records
// about 3 spans per update; a run that would overflow fails loudly.
const maxSpans = 1 << 22

type tracer struct {
	origin      time.Time
	names       []string
	spans       []span
	stack       []int32
	rep         int32
	paramsViews int64 // fl.Model.ParamsView calls: counted, too cheap to span
}

func newTracer() *tracer {
	return &tracer{
		origin: time.Now(),
		names:  append([]string(nil), fixedLayerNames[:]...),
		spans:  make([]span, 0, maxSpans),
		stack:  make([]int32, 0, 16),
	}
}

// rootLayer returns the layer id of a root span name, registering it.
func (t *tracer) rootLayer(name string) int32 {
	if t == nil {
		return -1
	}
	for i := numFixedLayers; i < len(t.names); i++ {
		if t.names[i] == name {
			return int32(i)
		}
	}
	t.names = append(t.names, name)
	return int32(len(t.names) - 1)
}

// begin opens a span and returns its index. A nil tracer (an untraced
// rep driving shared code) records nothing.
func (t *tracer) begin(layer int32) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		panic("benchmark: trace buffer full; raise maxSpans")
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: layer, rep: t.rep, parent: parent, start: int64(time.Since(t.origin))})
	t.stack = append(t.stack, i)
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.origin))
	t.stack = t.stack[:len(t.stack)-1]
}

// layerStat sums one layer's spans: busy is their total duration, self is
// busy minus the time their child spans cover.
type layerStat struct {
	calls      int64
	busy, self time.Duration
}

// analyse folds the buffer into per-layer statistics, keyed by layer name.
// The self times of all layers add up to the root spans' total duration.
func (t *tracer) analyse() map[string]layerStat {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		d := s.end - s.start
		self[i] += d
		if s.parent >= 0 {
			self[s.parent] -= d
		}
	}
	stats := make(map[string]layerStat, len(t.names))
	for i, s := range t.spans {
		st := stats[t.names[s.layer]]
		st.calls++
		st.busy += time.Duration(s.end - s.start)
		st.self += time.Duration(self[i])
		stats[t.names[s.layer]] = st
	}
	return stats
}

// writeChrome writes the spans of the first traced rep as Chrome
// trace_event JSON (chrome://tracing, Perfetto). One rep shows the whole
// shape; the statistics use every traced rep.
func (t *tracer) writeChrome(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for i, s := range t.spans {
		if s.rep != t.spans[0].rep {
			break
		}
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"rep\":%d}}",
			t.names[s.layer], float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.rep)
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}

// tracedModel decorates an fl.Model: spans around the calls that do
// work, a count for the borrow that does none, pass-through for the rest.
type tracedModel struct {
	Model
	tr *tracer
}

func (m *tracedModel) Train(shard []int, epochs int, lr float64) {
	i := m.tr.begin(lyTrain)
	m.Model.Train(shard, epochs, lr)
	m.tr.end(i)
}

func (m *tracedModel) SetParams(p []float64) {
	i := m.tr.begin(lySetParams)
	m.Model.SetParams(p)
	m.tr.end(i)
}

func (m *tracedModel) ParamsView() []float64 {
	m.tr.paramsViews++
	return m.Model.ParamsView()
}

// tracedObserver decorates the fl.Observer the algorithm reports merged
// updates to — the metrics recorder, which evaluates inside that call.
type tracedObserver struct {
	Observer
	tr *tracer
}

func (o *tracedObserver) ClientUpdateProcessed(now float64, server, client int, models func() [][]float64) {
	i := o.tr.begin(lyObserve)
	o.Observer.ClientUpdateProcessed(now, server, client, models)
	o.tr.end(i)
}

// countingConn counts the true bytes crossing a client socket. The load
// generator is its only user, from one goroutine.
type countingConn struct {
	net.Conn
	bytes *int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	*c.bytes += int64(n)
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	*c.bytes += int64(n)
	return n, err
}
