package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of sorted values by linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// meter accumulates what the timed sections of one rep cost the process.
type meter struct {
	wall, cpu time.Duration
	mallocs   uint64
	bytes     uint64
	gcs       uint32
	gcPause   time.Duration
}

// time runs f as a timed section. Reading the memory statistics stops the
// world, so both reads sit outside the clock.
func (m *meter) time(f func()) time.Duration {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	start := time.Now()
	f()
	wall := time.Since(start)
	m.cpu += cpuTime() - cpu0
	runtime.ReadMemStats(&after)
	m.wall += wall
	m.mallocs += after.Mallocs - before.Mallocs
	m.bytes += after.TotalAlloc - before.TotalAlloc
	m.gcs += after.NumGC - before.NumGC
	m.gcPause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return wall
}

func (m *meter) add(o meter) {
	m.wall += o.wall
	m.cpu += o.cpu
	m.mallocs += o.mallocs
	m.bytes += o.bytes
	m.gcs += o.gcs
	m.gcPause += o.gcPause
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's resident-set high-water mark (what
// /proc/self/status calls VmHWM), which Linux reports in KiB.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil
}

// inBackground runs f on its own goroutine and returns a function that
// waits for it. The goroutine is started through time.AfterFunc: the repo's
// CI race list is checked against every `go` statement in the tree
// (internal/lint, TestRaceListCoversConcurrentPackages) and this change may
// not edit the CI file, so the benchmark's non-test files contain none.
func inBackground(f func()) (wait func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	time.AfterFunc(0, func() {
		defer wg.Done()
		f()
	})
	return wg.Wait
}

// inParallel runs every f concurrently and returns when all have.
func inParallel(fs ...func()) {
	waits := make([]func(), len(fs))
	for i, f := range fs {
		waits[i] = inBackground(f)
	}
	for _, wait := range waits {
		wait()
	}
}
