package paramvec

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestKernels(t *testing.T) {
	v := Vec{1, 2, 3}
	v.AxpyInto(2, []float64{1, 1, 1})
	if v[0] != 3 || v[1] != 4 || v[2] != 5 {
		t.Fatalf("AxpyInto: %v", v)
	}

	v = Vec{0, 0}
	v.WeightedMergeInto(0.25, []float64{4, 8})
	if v[0] != 1 || v[1] != 2 {
		t.Fatalf("WeightedMergeInto: %v", v)
	}
	v.WeightedMergeInto(1, []float64{7, 7})
	if v[0] != 7 || v[1] != 7 {
		t.Fatalf("WeightedMergeInto w=1 must replace: %v", v)
	}

	v = Vec{1, 1}
	v.AddScaledDiff(0.5, []float64{5, 3}, []float64{1, 1})
	if v[0] != 3 || v[1] != 2 {
		t.Fatalf("AddScaledDiff: %v", v)
	}

	v = Vec{0, 0}
	v.DiffInto([]float64{5, 1}, []float64{2, 4})
	if v[0] != 3 || v[1] != -3 {
		t.Fatalf("DiffInto: %v", v)
	}

	v = Vec{3, 4}
	if n := v.L2Norm(); !almost(n, 5) {
		t.Fatalf("L2Norm = %v", n)
	}

	v = Vec{9, 9}
	v.CopyFrom([]float64{1, 2})
	if v[0] != 1 || v[1] != 2 {
		t.Fatalf("CopyFrom: %v", v)
	}
	v.Zero()
	if v[0] != 0 || v[1] != 0 {
		t.Fatalf("Zero: %v", v)
	}
}

func TestKernelLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vec{1, 2}.AxpyInto(1, []float64{1})
}

func TestPoolRecycles(t *testing.T) {
	var p Pool
	v := p.Get(16)
	if len(v) != 16 {
		t.Fatalf("Get(16) len = %d", len(v))
	}
	if p.Live() != 1 {
		t.Fatalf("live = %d", p.Live())
	}
	v[0] = 42
	p.Put(v)
	if p.Live() != 0 {
		t.Fatalf("live after Put = %d", p.Live())
	}
	// sync.Pool may drop items (it always does so with some probability
	// under -race), so recycling is asserted over repeated round-trips.
	for i := 0; i < 100 && p.recycled.Load() == 0; i++ {
		p.Put(p.Get(16))
	}
	if p.recycled.Load() == 0 {
		t.Fatalf("no Get was ever served from the free-list")
	}
	// Different length -> different class, fresh allocation.
	u := p.Get(8)
	if len(u) != 8 {
		t.Fatalf("Get(8) len = %d", len(u))
	}
}

// TestPoolGetPutAllocatesNothing: a vector's round trip through a warm
// pool allocates nothing — in particular no box for Put to hand the vector
// over in (Get parks the one it emptied). AllocsPerRun reports whole
// allocations per run, so the puts sync.Pool drops at random under -race
// do not show.
func TestPoolGetPutAllocatesNothing(t *testing.T) {
	var p Pool
	p.Put(p.Get(16384))
	if allocs := testing.AllocsPerRun(100, func() { p.Put(p.Get(16384)) }); allocs != 0 {
		t.Fatalf("Get+Put: %.1f allocs/op, want 0", allocs)
	}
}

// TestPoolLiveAndRecycled checks the two occupancy counts a live server's
// telemetry reads: Live counts the vectors out, over every length, and
// Recycled only the Gets the free-list served, never a fresh allocation.
func TestPoolLiveAndRecycled(t *testing.T) {
	var p Pool
	a, b, c := p.Get(4), p.Get(4), p.Get(8)
	if p.Live() != 3 || p.Recycled() != 0 {
		t.Fatalf("three fresh Gets: live %d, recycled %d; want 3 and 0", p.Live(), p.Recycled())
	}
	p.Put(a)
	p.Put(b)
	p.Put(c)
	if p.Live() != 0 {
		t.Fatalf("live after every Put = %d", p.Live())
	}
	var gets int64
	for ; gets < 100 && p.Recycled() == 0; gets++ {
		p.Put(p.Get(4))
	}
	if r := p.Recycled(); r == 0 || r > gets {
		t.Fatalf("recycled = %d after %d round trips on a warm class", r, gets)
	}
	if p.Live() != 0 {
		t.Fatalf("live after round trips = %d", p.Live())
	}
}

// TestPoolConcurrent hammers the pool from many goroutines; run under
// -race this verifies handed-out buffers are never shared.
func TestPoolConcurrent(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := p.Get(256)
				for j := range v {
					v[j] = float64(id)
				}
				for j := range v {
					if v[j] != float64(id) {
						t.Errorf("buffer shared across goroutines")
						return
					}
				}
				p.Put(v)
			}
		}(g)
	}
	wg.Wait()
	if p.Live() != 0 {
		t.Fatalf("live after drain = %d", p.Live())
	}
}

func BenchmarkPoolGetPut(b *testing.B) {
	var p Pool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Put(p.Get(25000))
	}
}

// mergeReplyReference is the two-line loop MergeReplyInto must reproduce
// bit for bit: the merge of WeightedMergeInto, then the copy.
func mergeReplyReference(v []float64, w float64, x []float64) {
	for i := range v {
		v[i] += w * (x[i] - v[i])
		x[i] = v[i]
	}
}

// kernelOperands returns n values that cover what a sweep can meet: random
// magnitudes, ±0, denormals, the largest finite values, NaN and ±Inf.
func kernelOperands(rng *rand.Rand, n int) []float64 {
	special := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1040, -0x1p-1060, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), 1, -1,
	}
	out := make([]float64, n)
	for i := range out {
		switch rng.Intn(4) {
		case 0:
			out[i] = special[rng.Intn(len(special))]
		case 1:
			out[i] = rng.NormFloat64() * math.Pow(2, float64(rng.Intn(120)-60))
		default:
			out[i] = rng.NormFloat64()
		}
	}
	return out
}

// sameBits compares two vectors bit for bit, except that a NaN matches any
// NaN: which payload survives when two NaNs meet is the compiler's choice
// of operand order, not arithmetic.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.IsNaN(a[i]) && math.IsNaN(b[i]) {
			continue
		}
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestMergeReplyIntoMatchesMergeThenCopy: the fused kernel leaves in v the
// bits WeightedMergeInto leaves there and in x a copy of them, for every
// length around its four-quarter split (including the page-multiple
// quarters it shortens), every kind of operand and the weights 0 and 1.
func TestMergeReplyIntoMatchesMergeThenCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	// 2048 and 4102 split into quarters of one and two 512-word pages.
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 100, 1023,
		2048, 2049, 2047, 4102, 16384, 25000}
	weights := []float64{0, 1, 0.3, -0.5, 1.75, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1)}
	for _, n := range lengths {
		for _, w := range weights {
			v0, x0 := kernelOperands(rng, n), kernelOperands(rng, n)

			vRef, xRef := append([]float64(nil), v0...), append([]float64(nil), x0...)
			mergeReplyReference(vRef, w, xRef)

			vLib, xLib := append(Vec(nil), v0...), append([]float64(nil), x0...)
			vLib.WeightedMergeInto(w, xLib)
			copy(xLib, vLib)

			vGot, xGot := append(Vec(nil), v0...), append([]float64(nil), x0...)
			vGot.MergeReplyInto(w, xGot)

			if i, ok := sameBits(vGot, vRef); !ok {
				t.Fatalf("n=%d w=%v: v[%d] = %x, reference loop gives %x", n, w, i,
					math.Float64bits(vGot[i]), math.Float64bits(vRef[i]))
			}
			if i, ok := sameBits(xGot, xRef); !ok {
				t.Fatalf("n=%d w=%v: x[%d] = %x, reference loop gives %x", n, w, i,
					math.Float64bits(xGot[i]), math.Float64bits(xRef[i]))
			}
			if i, ok := sameBits(vGot, vLib); !ok {
				t.Fatalf("n=%d w=%v: v[%d] differs from WeightedMergeInto", n, w, i)
			}
			if i, ok := sameBits(xGot, xLib); !ok {
				t.Fatalf("n=%d w=%v: x[%d] differs from WeightedMergeInto then copy", n, w, i)
			}
		}
	}
}

// TestMergeReplyIntoEndpoints: w=0 keeps v and copies it out, w=1 adopts x
// (for finite operands; x - v + v is x only then).
func TestMergeReplyIntoEndpoints(t *testing.T) {
	v, x := Vec{1, 2, 3, 4, 5}, []float64{9, 8, 7, 6, 5}
	v.MergeReplyInto(0, x)
	for i, want := range []float64{1, 2, 3, 4, 5} {
		if v[i] != want || x[i] != want {
			t.Fatalf("w=0: v=%v x=%v", v, x)
		}
	}
	x = []float64{9, 8, 7, 6, 5}
	v.MergeReplyInto(1, x)
	for i, want := range []float64{9, 8, 7, 6, 5} {
		if v[i] != want || x[i] != want {
			t.Fatalf("w=1: v=%v x=%v", v, x)
		}
	}
}

func TestMergeReplyIntoLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vec{1, 2}.MergeReplyInto(1, []float64{1, 2, 3})
}

func TestMergeReplyIntoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's own allocations count against the bound")
	}
	v, x := New(16384), make([]float64, 16384)
	if allocs := testing.AllocsPerRun(50, func() { v.MergeReplyInto(0.3, x) }); allocs != 0 {
		t.Fatalf("MergeReplyInto: %.1f allocs/op, want 0", allocs)
	}
}

// TestKernelsAllocateNothing pins the other in-place kernels of the merge
// and aggregation paths at 0 allocs/op.
func TestKernelsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("a -race build's own allocations count against the bound")
	}
	v, x, y := New(16384), make([]float64, 16384), make([]float64, 16384)
	for _, k := range []struct {
		name string
		f    func()
	}{
		{"AxpyInto", func() { v.AxpyInto(0.3, x) }},
		{"WeightedMergeInto", func() { v.WeightedMergeInto(0.3, x) }},
		{"AddScaledDiff", func() { v.AddScaledDiff(0.3, x, y) }},
		{"DiffInto", func() { v.DiffInto(x, y) }},
	} {
		if allocs := testing.AllocsPerRun(50, k.f); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", k.name, allocs)
		}
	}
}
