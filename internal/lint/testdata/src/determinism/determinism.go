// Package determinism seeds violations for the determinism analyzer's
// golden test (internal/lint/golden_test.go). Like all testdata it is
// invisible to ./... wildcards; the golden test and the CLI tests lint it
// by explicit path and expect exactly the findings annotated below. One
// line (Stamp) is flagged by lockdiscipline as well, so a filtered run
// has another analyzer's finding to leave out.
package determinism

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"
)

type clock struct {
	mu    sync.Mutex
	stamp time.Time //spyker:guardedby(mu)
}

// Stamp writes a guarded field, unlocked, from the wall clock.
func (c *clock) Stamp() {
	c.stamp = time.Now() // want `call to time\.Now` `write to clock\.stamp \(//spyker:guardedby\(mu\)\) without holding c\.mu`
}

// Tick reads the wall clock and the global rand source — the two
// nondeterminism sources a deterministic layer must never touch.
func Tick() float64 {
	t := time.Now()       // want `call to time\.Now`
	_ = time.Since(t)     // want `call to time\.Since`
	return rand.Float64() // want `call to global rand\.Float64`
}

// Seeded is the sanctioned pattern: an explicitly seeded generator.
func Seeded(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// SumAges walks a map bare: float accumulation order would leak the
// runtime's randomized iteration order into the result bits.
func SumAges(ages map[int]float64) float64 {
	var s float64
	for _, a := range ages { // want `range over map`
		s += a
	}
	return s
}

// SortedWalk collects, sorts, then uses — the waived idiom.
func SortedWalk(ages map[int]float64) []int {
	keys := make([]int, 0, len(ages))
	//lint:sorted keys are collected and sorted just below
	for k := range ages {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// TrailingWaiver carries the waiver on the statement's own line.
func TrailingWaiver(counts map[int]int) int {
	total := 0
	for _, c := range counts { //lint:sorted integer sum is commutative
		total += c
	}
	return total
}

// Activate calls math's exp and tanh, whose bits depend on the CPU's FMA
// and on GODEBUG; a value use counts too. math.Log has one path.
func Activate(x float64) float64 {
	f := math.Tanh                         // want `math\.Tanh rounds differently`
	return f(x) + math.Exp(-x)*math.Log(x) // want `math\.Exp rounds differently`
}
