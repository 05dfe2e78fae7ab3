package simulation

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New()
	var order []float64
	for _, d := range []float64{5, 1, 3, 2, 4} {
		d := d
		s.Schedule(d, func() { order = append(order, d) })
	}
	s.Run(10)
	if !sort.Float64sAreSorted(order) {
		t.Errorf("events out of order: %v", order)
	}
	if len(order) != 5 {
		t.Errorf("ran %d events, want 5", len(order))
	}
}

func TestSameTimestampFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	s.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	s := New()
	var at float64
	s.Schedule(2.5, func() { at = s.Now() })
	s.Run(10)
	if at != 2.5 {
		t.Errorf("handler saw Now=%v, want 2.5", at)
	}
	if s.Now() != 10 {
		t.Errorf("drained run should land on horizon, Now=%v", s.Now())
	}
}

func TestHorizonLeavesFutureEventsQueued(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(5, func() { ran = true })
	s.Run(4)
	if ran {
		t.Error("event beyond horizon ran")
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d", s.Pending())
	}
	s.Run(6)
	if !ran {
		t.Error("event did not run on the next Run call")
	}
}

func TestEventAtHorizonRuns(t *testing.T) {
	s := New()
	ran := false
	s.Schedule(5, func() { ran = true })
	s.Run(5)
	if !ran {
		t.Error("event exactly at horizon should run")
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.Schedule(float64(i), func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run(100)
	if count != 3 {
		t.Errorf("ran %d events after Stop, want 3", count)
	}
	// A subsequent Run resumes.
	s.Run(100)
	if count != 10 {
		t.Errorf("resume ran to %d, want 10", count)
	}
}

func TestHandlersCanSchedule(t *testing.T) {
	s := New()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.Schedule(1, recurse)
		}
	}
	s.Schedule(0, recurse)
	s.Run(100)
	if depth != 5 {
		t.Errorf("depth = %d", depth)
	}
	if s.Processed() != 5 {
		t.Errorf("Processed = %d", s.Processed())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Schedule(-1, func() {})
}

// TestBadTimesPanic: a time in the past, a NaN or -Inf time and a negative
// or NaN delay are each refused before they reach the heap — a NaN key
// compares false both ways and would corrupt its order silently.
func TestBadTimesPanic(t *testing.T) {
	cases := []struct {
		name string
		post func(s *Sim)
	}{
		{"PostAt past", func(s *Sim) { s.PostAt(1, Job{}) }},
		{"PostAt NaN", func(s *Sim) { s.PostAt(math.NaN(), Job{}) }},
		{"PostAt -Inf", func(s *Sim) { s.PostAt(math.Inf(-1), Job{}) }},
		{"ScheduleAt NaN", func(s *Sim) { s.ScheduleAt(math.NaN(), func() {}) }},
		{"Post negative", func(s *Sim) { s.Post(-1e-300, Job{}) }},
		{"Post NaN", func(s *Sim) { s.Post(math.NaN(), Job{}) }},
		{"Schedule NaN", func(s *Sim) { s.Schedule(math.NaN(), func() {}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			s.Schedule(5, func() {
				defer func() {
					if recover() == nil {
						t.Error("expected panic")
					}
				}()
				tc.post(s)
			})
			s.Run(10)
			if s.Pending() != 0 {
				t.Errorf("%d events queued after the refused one", s.Pending())
			}
		})
	}
}

// TestJobsRunTheirHandlers: a posted Job runs the handler its Kind names
// with its integer, interleaved with closure events in (time, seq) order,
// and Do runs one on the spot.
func TestJobsRunTheirHandlers(t *testing.T) {
	s := New()
	var got []string
	add := s.Handle(func(a int) { got = append(got, fmt.Sprint("add", a)) })
	mul := s.Handle(func(a int) { got = append(got, fmt.Sprint("mul", a)) })
	s.Post(1, Job{Kind: add, Arg: 1})
	s.Schedule(1, func() { got = append(got, "fn") })
	s.PostAt(0.5, Job{Kind: mul, Arg: 3})
	s.Schedule(2, func() { s.Do(Job{Kind: add, Arg: 5}) })
	s.Run(10)
	want := []string{"mul3", "add1", "fn", "add5"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ran %q, want %q", got, want)
	}
}

// TestHandlerKindsAreBounded: a Kind rides in kindBits of an event's
// sequence word, so the handler past the last it can name is refused.
func TestHandlerKindsAreBounded(t *testing.T) {
	s := New() // funcKind is the first
	for len(s.handlers) < 1<<kindBits {
		s.Handle(func(int) {})
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	s.Handle(func(int) {})
}

func TestScheduleInPastPanics(t *testing.T) {
	s := New()
	s.Schedule(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		s.ScheduleAt(1, func() {})
	})
	s.Run(10)
}

// TestOrderProperty: random schedules always execute in nondecreasing
// timestamp order, with ties broken by insertion order.
func TestOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := New()
		type stamp struct {
			t   float64
			seq int
		}
		var got []stamp
		n := 1 + rng.Intn(100)
		for i := 0; i < n; i++ {
			d := float64(rng.Intn(10))
			i := i
			s.Schedule(d, func() { got = append(got, stamp{s.Now(), i}) })
		}
		s.Run(1000)
		if len(got) != n {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].t < got[i-1].t {
				return false
			}
			if got[i].t == got[i-1].t && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestStopLeavesQueueIntact pins the draining contract of Stop: the
// remaining events stay queued (Pending), the clock freezes at the last
// dispatched event instead of jumping to the horizon, and a later Run
// drains exactly the leftovers in time order.
func TestStopLeavesQueueIntact(t *testing.T) {
	s := New()
	var order []float64
	for i := 1; i <= 8; i++ {
		tm := float64(i)
		s.Schedule(tm, func() {
			order = append(order, tm)
			if tm == 3 {
				s.Stop()
			}
		})
	}

	end := s.Run(100)
	if end != 3 || s.Now() != 3 {
		t.Errorf("stopped run ended at %v (Now %v), want 3 — must not advance to horizon", end, s.Now())
	}
	if s.Pending() != 5 {
		t.Errorf("Pending() = %d after Stop, want 5 queued events", s.Pending())
	}
	if s.Processed() != 3 {
		t.Errorf("Processed() = %d, want 3", s.Processed())
	}

	// Resume drains the leftovers in order; nothing was lost or reordered.
	s.Run(100)
	want := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	if len(order) != len(want) {
		t.Fatalf("drained %d events total, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event %d ran at %v, want %v", i, order[i], want[i])
		}
	}
	if s.Pending() != 0 {
		t.Errorf("queue not empty after resume: %d", s.Pending())
	}
	if s.Processed() != 8 {
		t.Errorf("Processed() = %d after resume, want 8", s.Processed())
	}
}

// runScheduleWorkload runs n events at deterministic pseudo-random times
// on a tenth-of-a-second grid — most events share their timestamp with
// others, so the order depends on the tiebreak — each appending its
// identity and execution time to schedule. With detach set every event
// also keeps a detached task in flight, joined by a later event or by
// nobody. It returns the final virtual time and the events the loop counted.
func runScheduleWorkload(seed int64, n int, detach bool, schedule *[]byte) (float64, uint64) {
	sim := New()
	var spun [8]int
	var tasks [8]Task
	for k := range tasks {
		tasks[k].Fn = func() {
			for j := 0; j < 2000; j++ {
				spun[k] += j
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		i := i
		sim.Schedule(float64(rng.Intn(1000))/10, func() {
			if detach {
				tasks[i%len(tasks)].Join()
				sim.Detach(&tasks[i%len(tasks)])
			}
			var rec [16]byte
			binary.LittleEndian.PutUint64(rec[:8], uint64(i))
			binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(sim.Now()))
			*schedule = append(*schedule, rec[:]...)
		})
	}
	// All events land within 100 virtual seconds; the finite horizon
	// keeps the returned time comparable across runs.
	return sim.Run(1e6), sim.Processed()
}

// TestDetachDoesNotPerturbSchedule is the determinism guard for work off
// the event loop: a run that keeps detached tasks in flight must leave the
// event schedule byte-identical — same events, same order, same virtual
// timestamps — to a run that detaches nothing. If a worker ever steals a
// tiebreak or reorders the heap, every seeded result moves. Both runs must
// also count exactly the events they ran: Processed() is what the
// benchmark reports as simulation.events.
func TestDetachDoesNotPerturbSchedule(t *testing.T) {
	const seed, n = 11, 5000

	var inline []byte
	tInline, ranInline := runScheduleWorkload(seed, n, false, &inline)

	var detached []byte
	tDetached, ranDetached := runScheduleWorkload(seed, n, true, &detached)

	if tInline != tDetached {
		t.Errorf("final virtual time diverged: inline %v, detached %v", tInline, tDetached)
	}
	if len(inline) != 16*n {
		t.Fatalf("inline run recorded %d bytes, want %d", len(inline), 16*n)
	}
	if !bytes.Equal(inline, detached) {
		// Locate the first diverging event for the failure message.
		at := -1
		for i := 0; i < len(inline) && i < len(detached); i++ {
			if inline[i] != detached[i] {
				at = i / 16
				break
			}
		}
		t.Fatalf("event schedule diverged with tasks detached (first divergence at event record %d)", at)
	}
	if ranInline != n || ranDetached != n {
		t.Errorf("Processed() = %d inline, %d detached, want %d", ranInline, ranDetached, n)
	}
}

// refQueue is the queue this package used before its heap was written out:
// container/heap over event pointers, ordered by the same (time, seq) key.
// It stays here as the reference the value-typed heap is compared with.
type refQueue []*event

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].before(q[j]) }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*event)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// TestEventQueueMatchesContainerHeap drives the value-typed heap and the
// container/heap reference with the same random interleaving of pushes and
// pops — timestamps drawn from a handful of values, so most comparisons
// are decided by the sequence number — and requires the identical pop
// sequence. (time, seq) is a total order, so any correct heap must agree.
func TestEventQueueMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var q eventQueue
	var ref refQueue
	var seq uint64
	ops := 0
	pop := func() {
		got := q.pop()
		want := heap.Pop(&ref).(*event)
		if got.time != want.time || got.seq != want.seq {
			t.Fatalf("op %d: popped (%v, %d), container/heap pops (%v, %d)",
				ops, got.time, got.seq, want.time, want.seq)
		}
	}
	for ops = 0; ops < 300000; ops++ {
		// Phases that fill and phases that drain, so the heap is exercised
		// at every depth from empty to a few thousand.
		fill := (ops/5000)%2 == 0
		if len(q) == 0 || (fill && rng.Intn(3) != 0) || (!fill && rng.Intn(3) == 0) {
			seq++
			tm := float64(rng.Intn(6))
			if rng.Intn(20) == 0 {
				tm = rng.Float64() * 6
			}
			q.push(event{time: tm, seq: seq})
			heap.Push(&ref, &event{time: tm, seq: seq})
		} else {
			pop()
		}
		if len(q) != ref.Len() {
			t.Fatalf("op %d: %d queued, reference has %d", ops, len(q), ref.Len())
		}
	}
	for len(q) > 0 {
		pop()
	}
	if ref.Len() != 0 {
		t.Fatalf("reference still holds %d events", ref.Len())
	}
}

// TestPoppedSlotDropsItsClosure: a Schedule event's closure must not stay
// reachable through the simulator once it ran, or every closure of a long
// run would live until its slot is next reused.
func TestPoppedSlotDropsItsClosure(t *testing.T) {
	s := New()
	for i := 0; i < 64; i++ {
		s.Schedule(float64(i%5), func() {})
	}
	s.Run(math.Inf(1))
	for i := range s.fns.recs {
		if *s.fns.At(i) != nil {
			t.Fatalf("slot %d still references a closure that ran", i)
		}
	}
	if len(s.fns.free) != len(s.fns.recs) {
		t.Fatalf("%d closure slots free after the run, want all %d", len(s.fns.free), len(s.fns.recs))
	}

	// And through the public surface: a closure that ran is collectable
	// while later events are still queued.
	s = New()
	collected := make(chan struct{})
	func() {
		payload := new([1 << 16]byte)
		runtime.SetFinalizer(payload, func(*[1 << 16]byte) { close(collected) })
		s.Schedule(1, func() { payload[0]++ })
	}()
	s.Schedule(5, func() {})
	s.Run(2)
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want the one later event", s.Pending())
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
	}
	t.Fatal("the closure of an event that ran is still reachable")
}

// BenchmarkEventQueue400Pending is the queue at the depth the protocol
// workload keeps it (400 clients, each with one event pending): one
// schedule and one dispatch per iteration, timestamps tied in groups.
func BenchmarkEventQueue400Pending(b *testing.B) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	delays := make([]float64, 1024)
	for i := range delays {
		delays[i] = 0.1 + float64(rng.Intn(40))/100
	}
	var fn func()
	n, stopAt := 0, 0
	fn = func() {
		s.Schedule(delays[n%len(delays)], fn)
		if n++; n == stopAt {
			s.Stop()
		}
	}
	for i := 0; i < 400; i++ {
		s.Schedule(delays[i], fn)
	}
	stopAt = 4000
	s.Run(math.Inf(1)) // reach the steady mix of timestamps first
	b.ReportAllocs()
	b.ResetTimer()
	stopAt = n + b.N
	s.Run(math.Inf(1))
}

// BenchmarkEventQueue400PendingJobs is BenchmarkEventQueue400Pending with
// typed events, the form every message and job of the protocol takes.
func BenchmarkEventQueue400PendingJobs(b *testing.B) {
	s := New()
	rng := rand.New(rand.NewSource(1))
	delays := make([]float64, 1024)
	for i := range delays {
		delays[i] = 0.1 + float64(rng.Intn(40))/100
	}
	var kind Kind
	n, stopAt := 0, 0
	kind = s.Handle(func(a int) {
		s.Post(delays[n%len(delays)], Job{Kind: kind, Arg: a})
		if n++; n == stopAt {
			s.Stop()
		}
	})
	for i := 0; i < 400; i++ {
		s.Post(delays[i], Job{Kind: kind, Arg: i})
	}
	stopAt = 4000
	s.Run(math.Inf(1)) // reach the steady mix of timestamps first
	b.ReportAllocs()
	b.ResetTimer()
	stopAt = n + b.N
	s.Run(math.Inf(1))
}
