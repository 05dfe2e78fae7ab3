package simulation

import (
	"bytes"
	"math"
	"runtime"
	"strconv"
	"testing"
)

// goid identifies the calling goroutine, from the "goroutine N [" header
// of its stack: the only way a task body can tell where it runs.
func goid() int {
	var buf [64]byte
	fields := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, err := strconv.Atoi(string(fields[1]))
	if err != nil {
		panic(err)
	}
	return id
}

// occupyWorkers detaches one task per worker whose body blocks until
// release is called, and returns once all of them are mid-run: from then
// until release no worker can claim anything. Call it from a handler;
// release also joins the blockers.
func occupyWorkers(s *Sim) (release func()) {
	gate := make(chan struct{})
	started := make(chan struct{})
	blockers := make([]Task, detachWorkers)
	for i := range blockers {
		blockers[i].Fn = func() {
			started <- struct{}{}
			<-gate
		}
		s.Detach(&blockers[i])
	}
	for range blockers {
		<-started
	}
	return func() {
		close(gate)
		for i := range blockers {
			blockers[i].Join()
		}
	}
}

// inEvent runs body as the single event of a fresh simulator.
func inEvent(body func(s *Sim)) {
	s := New()
	s.Schedule(1, func() { body(s) })
	s.Run(10)
}

func TestJoinBeforeClaimRunsOnTheCaller(t *testing.T) {
	inEvent(func(s *Sim) {
		release := occupyWorkers(s)
		ranOn := 0
		task := Task{Fn: func() { ranOn = goid() }}
		s.Detach(&task)
		task.Join()
		if ranOn != goid() {
			t.Errorf("task ran on goroutine %d, want the joining goroutine %d", ranOn, goid())
		}
		release()
	})
}

// TestJoinWaitsForARunningTask: the joiner reads what Fn wrote on a worker
// — under -race this is also the happens-before check.
func TestJoinWaitsForARunningTask(t *testing.T) {
	inEvent(func(s *Sim) {
		started, gate := make(chan struct{}), make(chan struct{})
		x, ranOn := 0, 0
		task := Task{Fn: func() {
			close(started)
			<-gate
			x, ranOn = 42, goid()
		}}
		s.Detach(&task)
		<-started // only a worker can have got here: the loop has not joined
		go close(gate)
		task.Join()
		if x != 42 {
			t.Errorf("Join returned before the task finished: x = %d", x)
		}
		if ranOn == goid() {
			t.Error("task ran on the event loop")
		}
	})
}

// TestDetachBeforeRunWaitsForRun: a task detached between Runs starts no
// goroutine and does not run; the next Run hands it to a worker — and it
// has finished when that Run returns, even with no event to join it.
func TestDetachBeforeRunWaitsForRun(t *testing.T) {
	s := New()
	ranOn := 0
	task := Task{Fn: func() { ranOn = goid() }}
	before := runtime.NumGoroutine()
	s.Detach(&task)
	if ranOn != 0 {
		t.Fatal("a task detached before Run ran at Detach")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Errorf("Detach outside Run started goroutines: %d -> %d", before, after)
	}
	s.Run(10)
	if ranOn == 0 {
		t.Fatal("the held task never ran")
	}
	if ranOn == goid() {
		t.Errorf("the held task ran on the loop, not on a worker")
	}
	task.Join()
}

// TestJoinBeforeRunSteals: joining a held task before any Run runs it on
// the caller, and the next Run does not run it again.
func TestJoinBeforeRunSteals(t *testing.T) {
	s := New()
	n, ranOn := 0, 0
	task := Task{Fn: func() { n++; ranOn = goid() }}
	s.Detach(&task)
	task.Join()
	if n != 1 || ranOn != goid() {
		t.Fatalf("Join before Run: ran %d times, on goroutine %d (caller %d)", n, ranOn, goid())
	}
	s.Detach(&task) // held twice over, once joined
	s.Run(10)
	task.Join()
	if n != 2 {
		t.Errorf("ran %d times, want 2", n)
	}
}

func TestDetachOfAnUnjoinedTaskPanics(t *testing.T) {
	inEvent(func(s *Sim) {
		release := occupyWorkers(s)
		defer release()
		task := Task{Fn: func() {}}
		s.Detach(&task)
		defer task.Join()
		defer func() {
			if recover() == nil {
				t.Error("second Detach without a Join did not panic")
			}
		}()
		s.Detach(&task)
	})
}

// TestTaskIsReusable runs 10^4 cycles on one Task. The counter is plain:
// every cycle's increment must be ordered after the previous one whichever
// side ran it, or -race reports it.
func TestTaskIsReusable(t *testing.T) {
	const cycles = 10000
	n := 0
	inEvent(func(s *Sim) {
		task := Task{Fn: func() { n++ }}
		for i := 0; i < cycles; i++ {
			s.Detach(&task)
			if i%3 == 0 {
				runtime.Gosched() // let a worker win some of the claims
			}
			task.Join()
			if n != i+1 {
				t.Fatalf("after cycle %d the task has run %d times", i, n)
			}
		}
	})
	if n != cycles {
		t.Errorf("task ran %d times, want %d", n, cycles)
	}
}

func TestUnjoinedTaskIsFinishedWhenRunReturns(t *testing.T) {
	s := New()
	done := make([]bool, 3*detachWorkers)
	tasks := make([]Task, len(done))
	s.Schedule(1, func() {
		for i := range tasks {
			tasks[i].Fn = func() {
				for k := 0; k < 1000; k++ {
					runtime.Gosched()
				}
				done[i] = true
			}
			s.Detach(&tasks[i])
		}
	})
	s.Run(10)
	for i, d := range done {
		if !d {
			t.Errorf("task %d had not finished when Run returned", i)
		}
	}
}

// TestFullQueueFallsBackToInline detaches more tasks from one event than
// the queue holds while no worker can take any: the overflow must have run
// on the loop by the time Detach returns.
func TestFullQueueFallsBackToInline(t *testing.T) {
	const extra = 10
	inEvent(func(s *Sim) {
		release := occupyWorkers(s)
		loop := goid()
		ranOn := make([]int, detachQueue+extra)
		tasks := make([]Task, len(ranOn))
		inline := 0
		for i := range tasks {
			tasks[i].Fn = func() { ranOn[i] = goid() }
			s.Detach(&tasks[i])
			if ranOn[i] == loop {
				inline++
			} else if ranOn[i] != 0 {
				t.Fatalf("task %d ran on goroutine %d with every worker occupied", i, ranOn[i])
			}
		}
		if inline != extra {
			t.Errorf("%d tasks ran inline at Detach, want the %d beyond the queue bound", inline, extra)
		}
		release()
		for i := range tasks {
			tasks[i].Join()
			if ranOn[i] == 0 {
				t.Fatalf("task %d never ran", i)
			}
		}
	})
}

func TestStopMidRunThenResume(t *testing.T) {
	s := New()
	a, b := 0, 0
	taskA := Task{Fn: func() { a = 1 }}
	taskB := Task{Fn: func() { b = a + 1 }}
	s.Schedule(1, func() {
		s.Detach(&taskA)
		s.Stop()
	})
	s.Schedule(2, func() {
		taskA.Join()
		s.Detach(&taskB) // the second Run brings up a pool of its own
	})
	s.Schedule(3, func() { taskB.Join() })
	if end := s.Run(10); end != 1 {
		t.Fatalf("stopped run ended at %v, want 1", end)
	}
	if a != 1 {
		t.Error("task detached before Stop had not finished when Run returned")
	}
	s.Run(10)
	if b != 2 {
		t.Errorf("resumed run: b = %d, want 2", b)
	}
}

func TestRunLeavesNoGoroutineBehind(t *testing.T) {
	before := runtime.NumGoroutine()
	s := New()
	n := 0
	task := Task{Fn: func() { n++ }}
	for i := 0; i < 1000; i++ {
		s.Schedule(1, func() { s.Detach(&task) })
		s.Schedule(2, func() { task.Join() })
		s.Run(math.Inf(1))
	}
	// Run waits for its workers' last statement, not for the runtime to
	// retire them: a goroutine past its WaitGroup.Done may be counted for
	// a few more microseconds. A worker still in its loop never goes away.
	after := runtime.NumGoroutine()
	for spin := 0; after != before && spin < 1e6; spin++ {
		runtime.Gosched()
		after = runtime.NumGoroutine()
	}
	if after != before {
		t.Errorf("%d goroutines after 1000 Run calls, %d before the first", after, before)
	}
	if n != 1000 {
		t.Errorf("task ran %d times, want 1000", n)
	}
}

func TestDetachJoinAllocatesNothing(t *testing.T) {
	inEvent(func(s *Sim) {
		n := 0
		task := Task{Fn: func() { n++ }}
		if allocs := testing.AllocsPerRun(1000, func() {
			s.Detach(&task)
			task.Join()
		}); allocs != 0 {
			t.Errorf("a detach+join cycle allocates %v times, want 0", allocs)
		}
	})
}

// TestRunToInfinityKeepsTheClockUsable: Run(+Inf) drains the queue and
// leaves the clock at the last event, not at +Inf where every later
// Schedule would land on the same instant.
func TestRunToInfinityKeepsTheClockUsable(t *testing.T) {
	s := New()
	for _, d := range []float64{1, 2.5, 4} {
		s.Schedule(d, func() {})
	}
	if end := s.Run(math.Inf(1)); end != 4 || s.Now() != 4 {
		t.Fatalf("Run(+Inf) returned %v with Now() = %v, want 4", end, s.Now())
	}
	var at float64
	s.Schedule(1, func() { at = s.Now() })
	if end := s.Run(math.Inf(1)); at != 5 || end != 5 {
		t.Errorf("event scheduled 1 s after the drain fired at %v (Run returned %v), want 5", at, end)
	}
}

// BenchmarkDetachJoin is one detach+join cycle of an empty task from
// inside an event: the price the loop pays per update for training off it.
func BenchmarkDetachJoin(b *testing.B) {
	inEvent(func(s *Sim) {
		task := Task{Fn: func() {}}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Detach(&task)
			task.Join()
		}
	})
}
