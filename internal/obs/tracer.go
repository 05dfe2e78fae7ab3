package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// DefaultTracerCap is the ring capacity used when NewTracer is given a
// non-positive one: 1<<18 events (~20 MB) keeps whole experiment runs
// while bounding memory on endless live deployments.
const DefaultTracerCap = 1 << 18

// Tracer is an append-only ring buffer of events. Emission is a mutex
// acquisition plus one slot write — no allocation — so tracing a run stays
// cheap; when the buffer wraps, the oldest events are overwritten and
// counted in Dropped. Safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event //spyker:guardedby(mu)
	next    int     //spyker:guardedby(mu) — next write position
	wrapped bool    //spyker:guardedby(mu) — buffer has been overwritten at least once
	total   uint64  //spyker:guardedby(mu) — events ever emitted
}

// NewTracer creates a tracer holding up to capacity events
// (DefaultTracerCap when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTracerCap
	}
	return &Tracer{buf: make([]Event, capacity)}
}

// Enabled implements Sink.
func (t *Tracer) Enabled() bool { return true }

// Emit implements Sink.
func (t *Tracer) Emit(e Event) {
	t.mu.Lock()
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.wrapped = true
	}
	t.total++
	t.mu.Unlock()
}

// Len reports how many events the buffer currently holds.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.wrapped {
		return len(t.buf)
	}
	return t.next
}

// Dropped reports how many events were overwritten by ring wraparound.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(t.lenLocked())
}

// lenLocked reports the retained event count; caller holds t.mu.
//
//spyker:locked(mu)
func (t *Tracer) lenLocked() int {
	if t.wrapped {
		return len(t.buf)
	}
	return t.next
}

// Events returns the retained events in emission order (oldest first).
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, t.lenLocked())
	if t.wrapped {
		out = append(out, t.buf[t.next:]...)
	}
	out = append(out, t.buf[:t.next]...)
	return out
}

// WriteJSONL writes the retained events as one JSON object per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return WriteJSONL(w, t.Events())
}

// WriteJSONL writes events as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("obs: write event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace back into events. Blank lines are
// skipped; any malformed line is an error naming the line — including
// valid JSON that is not an event (a missing or unknown kind), so a
// corrupted or truncated trace can never be silently summarized as if it
// were complete. Traces written before the provenance extension (no uid
// field) load fine: absent fields stay zero, and a "front" field of an
// older trace is ignored.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return nil, fmt.Errorf("obs: trace line %d (%s): %w", line, truncateLine(b), err)
		}
		if e.Kind == 0 {
			return nil, fmt.Errorf("obs: trace line %d (%s): not a protocol event (no kind)",
				line, truncateLine(b))
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: read trace after line %d: %w", line, err)
	}
	return out, nil
}

// truncateLine renders a malformed line for error messages without
// flooding the terminal.
func truncateLine(b []byte) string {
	const max = 60
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}
