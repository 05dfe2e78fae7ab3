// Package metrics records everything the paper's evaluation reports:
// accuracy/perplexity traces indexed by virtual time and by processed
// client updates (Figs. 3-8), per-server queue-length traces (Fig. 9),
// per-client update counts and their kernel density estimate (Fig. 10),
// and time/updates-to-target-accuracy readouts (Tabs. 5-7).
package metrics

import (
	"math"
	"sort"
)

// Point is one evaluation sample of a training run.
type Point struct {
	Time    float64 // virtual seconds
	Updates int     // client updates processed so far
	Loss    float64 // average held-out loss
	Acc     float64 // held-out accuracy in [0,1]
}

// Perplexity converts the point's loss to perplexity (language models).
func (p Point) Perplexity() float64 { return math.Exp(p.Loss) }

// Trace is a time-ordered series of evaluation points.
type Trace []Point

// TimeToAcc returns the first virtual time at which the trace reaches the
// target accuracy, and whether it ever does.
func (t Trace) TimeToAcc(target float64) (float64, bool) {
	for _, p := range t {
		if p.Acc >= target {
			return p.Time, true
		}
	}
	return 0, false
}

// UpdatesToAcc returns the number of processed updates at the first point
// reaching the target accuracy, and whether it is ever reached.
func (t Trace) UpdatesToAcc(target float64) (int, bool) {
	for _, p := range t {
		if p.Acc >= target {
			return p.Updates, true
		}
	}
	return 0, false
}

// TimeToPerplexity returns the first virtual time at which perplexity
// drops to the target or below.
func (t Trace) TimeToPerplexity(target float64) (float64, bool) {
	for _, p := range t {
		if p.Perplexity() <= target {
			return p.Time, true
		}
	}
	return 0, false
}

// Final returns the last point, or a zero Point for an empty trace.
func (t Trace) Final() Point {
	if len(t) == 0 {
		return Point{}
	}
	return t[len(t)-1]
}

// BestAcc returns the maximum accuracy seen.
func (t Trace) BestAcc() float64 {
	best := 0.0
	for _, p := range t {
		if p.Acc > best {
			best = p.Acc
		}
	}
	return best
}

// BestPerplexity returns the minimum perplexity seen, or +Inf for an empty
// trace.
func (t Trace) BestPerplexity() float64 {
	best := math.Inf(1)
	for _, p := range t {
		if pp := p.Perplexity(); pp < best {
			best = pp
		}
	}
	return best
}

// QueuePoint is one sample of a server's jobs-in-system count.
type QueuePoint struct {
	Time   float64
	Length int
}

// QueueTrace is a time-ordered queue-length series for one server.
type QueueTrace []QueuePoint

// Max returns the maximum observed queue length.
func (q QueueTrace) Max() int {
	best := 0
	for _, p := range q {
		if p.Length > best {
			best = p.Length
		}
	}
	return best
}

// MeanAbove returns the time-weighted mean queue length after time t0,
// integrating the piecewise-constant series.
func (q QueueTrace) MeanAbove(t0 float64) float64 {
	var area, span float64
	for i := 0; i < len(q)-1; i++ {
		a, b := q[i], q[i+1]
		lo := math.Max(a.Time, t0)
		if b.Time <= lo {
			continue
		}
		dt := b.Time - lo
		area += float64(a.Length) * dt
		span += dt
	}
	if span == 0 {
		return 0
	}
	return area / span
}

// KDE computes a Gaussian kernel density estimate of samples on a uniform
// grid of n points spanning [min(samples), max(samples)] padded by one
// bandwidth on each side; the bandwidth is Silverman's rule of thumb (1
// for samples with no spread). It returns the grid and the density values
// (integrating to ~1).
func KDE(samples []float64, n int) (grid, density []float64) {
	if len(samples) == 0 || n <= 1 {
		return nil, nil
	}
	lo, hi := samples[0], samples[0]
	for _, s := range samples {
		lo = math.Min(lo, s)
		hi = math.Max(hi, s)
	}
	bandwidth := silverman(samples)
	if bandwidth <= 0 {
		bandwidth = 1
	}
	lo -= bandwidth
	hi += bandwidth
	grid = make([]float64, n)
	density = make([]float64, n)
	step := (hi - lo) / float64(n-1)
	norm := 1 / (float64(len(samples)) * bandwidth * math.Sqrt(2*math.Pi))
	for i := range grid {
		x := lo + float64(i)*step
		grid[i] = x
		var d float64
		for _, s := range samples {
			z := (x - s) / bandwidth
			d += math.Exp(-0.5 * z * z)
		}
		density[i] = d * norm
	}
	return grid, density
}

// silverman returns Silverman's rule-of-thumb bandwidth.
func silverman(samples []float64) float64 {
	n := float64(len(samples))
	mean := 0.0
	for _, s := range samples {
		mean += s
	}
	mean /= n
	var varSum float64
	for _, s := range samples {
		varSum += (s - mean) * (s - mean)
	}
	sd := math.Sqrt(varSum / n)
	return 1.06 * sd * math.Pow(n, -0.2)
}

// Peaks returns the grid locations of local maxima of density that exceed
// frac times the global maximum; the paper reads the KDE plot through its
// peaks (slow-client mass vs fast-client mass).
func Peaks(grid, density []float64, frac float64) []float64 {
	if len(grid) != len(density) || len(grid) < 3 {
		return nil
	}
	globalMax := 0.0
	for _, d := range density {
		globalMax = math.Max(globalMax, d)
	}
	var out []float64
	for i := 1; i < len(density)-1; i++ {
		if density[i] >= density[i-1] && density[i] > density[i+1] && density[i] >= frac*globalMax {
			out = append(out, grid[i])
		}
	}
	return out
}

// Quantile returns the q-quantile (0..1) of samples using linear
// interpolation; it copies and sorts internally.
func Quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i]*(1-frac) + s[i+1]*frac
}
