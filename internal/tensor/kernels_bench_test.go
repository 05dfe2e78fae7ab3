package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// The benchmarks below time the five hot kernels and the CNN's layer
// sweeps at the shapes the models use, once per backend (backend=go,
// backend=avx2), so one run is a before/after table:
//
//	go test -run '^$' -bench Kernel -benchtime 200000x ./internal/tensor
//
// Shapes: the char-LSTM's input (64x8), recurrent (64x16) and output
// (32x16) matrices, the MNIST CNN's dense layers (32x150, 10x32), the
// convolution of its first layer over one plane (12x12 -> 10x10) and the
// 26x26 sweep of a full-size MNIST image, a step over 2400 parameters,
// and the MNIST CNN's first ReLU and pool (6x26x26) and bias fill (one
// 26x26 plane).

var modelShapes = [][2]int{{64, 8}, {64, 16}, {32, 16}, {32, 150}, {10, 32}}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// benchMatrix runs op on a rows x cols matrix and vectors of the two
// matching lengths, for every model shape and backend.
func benchMatrix(b *testing.B, op func(m *Matrix, byRows, byCols []float64)) {
	for _, s := range modelShapes {
		for _, be := range backends {
			b.Run(fmt.Sprintf("%dx%d/backend=%s", s[0], s[1], be.name), func(b *testing.B) {
				be.use(b)
				rng := rand.New(rand.NewSource(1))
				m := MatrixFrom(s[0], s[1], randVec(rng, s[0]*s[1]))
				byRows, byCols := randVec(rng, s[0]), randVec(rng, s[1])
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					op(m, byRows, byCols)
				}
			})
		}
	}
}

func BenchmarkKernelMatVec(b *testing.B) {
	benchMatrix(b, func(m *Matrix, byRows, byCols []float64) { m.MatVec(byRows, byCols) })
}

func BenchmarkKernelMatVecT(b *testing.B) {
	benchMatrix(b, func(m *Matrix, byRows, byCols []float64) { m.MatVecT(byCols, byRows) })
}

// AddOuter accumulates, so alpha alternates in sign to keep the matrix
// bounded over any b.N.
func BenchmarkKernelAddOuter(b *testing.B) {
	alpha := 1e-3
	benchMatrix(b, func(m *Matrix, byRows, byCols []float64) {
		alpha = -alpha
		m.AddOuter(alpha, byRows, byCols)
	})
}

func BenchmarkKernelConv3x3Add(b *testing.B) {
	for _, outW := range []int{10, 26} {
		for _, be := range backends {
			b.Run(fmt.Sprintf("%dx%d/backend=%s", outW, outW, be.name), func(b *testing.B) {
				be.use(b)
				rng := rand.New(rand.NewSource(1))
				inW := outW + 2
				out, x, w := make([]float64, outW*outW), randVec(rng, inW*inW), randVec(rng, 9)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if i%64 == 0 {
						Zero(out) // the sweep accumulates
					}
					Conv3x3Add(out, outW, x, inW, w)
				}
			})
		}
	}
}

func BenchmarkKernelSGDStep(b *testing.B) {
	for _, be := range backends {
		b.Run(fmt.Sprintf("2400/backend=%s", be.name), func(b *testing.B) {
			be.use(b)
			rng := rand.New(rand.NewSource(1))
			p, g := randVec(rng, 2400), randVec(rng, 2400)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g[i%2400] = 7 // the step zeroes the gradient; keep one clipped entry
				SGDStep(p, g, 1e-3, 0.1, 0.5)
			}
		})
	}
}

// The MNIST CNN's first activation: 6 planes of 26x26 after the
// convolution.
const mnistAct = 6 * 26 * 26

// mnistActivations is what the CNN's ReLU and pool see: a normal draw
// rectified, so about half of it +0.
func mnistActivations(rng *rand.Rand) []float64 {
	x := randVec(rng, mnistAct)
	ReLUTo(x, x)
	return x
}

func BenchmarkKernelReLU(b *testing.B) {
	for _, be := range backends {
		b.Run("forward/4056/backend="+be.name, func(b *testing.B) {
			be.use(b)
			x, out := randVec(rand.New(rand.NewSource(1)), mnistAct), make([]float64, mnistAct)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ReLUTo(out, x)
			}
		})
		b.Run("backward/4056/backend="+be.name, func(b *testing.B) {
			be.use(b)
			rng := rand.New(rand.NewSource(1))
			out, dy, dx := mnistActivations(rng), randVec(rng, mnistAct), make([]float64, mnistAct)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ReLUGradTo(dx, dy, out)
			}
		})
	}
}

func BenchmarkKernelMaxPool2x2(b *testing.B) {
	for _, be := range backends {
		b.Run("6x26x26/backend="+be.name, func(b *testing.B) {
			be.use(b)
			x := mnistActivations(rand.New(rand.NewSource(1)))
			out, arg := make([]float64, mnistAct/4), make([]int, mnistAct/4)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MaxPool2x2(out, arg, x, 6*13, 26)
			}
		})
	}
}

func BenchmarkKernelFill(b *testing.B) {
	for _, be := range backends {
		b.Run("676/backend="+be.name, func(b *testing.B) {
			be.use(b)
			a := make([]float64, 26*26)
			for i := 0; i < b.N; i++ {
				Fill(a, 0.25)
			}
		})
	}
}

// The protocol sweeps at the benchmark models' dimension, 16384. The merge
// runs on one update that stays in cache and on a set far larger than any
// cache, visited in an order the prefetchers cannot follow from one vector
// to the next — the state a server finds a client's update in:
//
//	go test -run '^$' -bench 'MergeReply|AllFinite|Average4' ./internal/tensor
const sweepDim = 16384

func benchmarkMergeReply(b *testing.B, vectors int) {
	for _, be := range backends {
		b.Run("backend="+be.name, func(b *testing.B) {
			be.use(b)
			rng := rand.New(rand.NewSource(1))
			xs := make([][]float64, vectors)
			for i := range xs {
				xs[i] = randVec(rng, sweepDim)
			}
			order := rng.Perm(vectors)
			v := make([]float64, sweepDim)
			b.SetBytes(8 * sweepDim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MergeReply(v, 0.3, xs[order[i%vectors]])
			}
		})
	}
}

func BenchmarkMergeReplyIntoCached(b *testing.B)   { benchmarkMergeReply(b, 1) }
func BenchmarkMergeReplyIntoUncached(b *testing.B) { benchmarkMergeReply(b, 1200) }

// A received model's finiteness test, on words that just arrived.
func BenchmarkAllFinite(b *testing.B) {
	for _, be := range backends {
		b.Run("backend="+be.name, func(b *testing.B) {
			be.use(b)
			v := randVec(rand.New(rand.NewSource(1)), sweepDim)
			b.SetBytes(8 * sweepDim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !AllFinite(v) {
					b.Fatal("finite vector refused")
				}
			}
		})
	}
}

// The Recorder's readout of four server models.
func BenchmarkAverage4(b *testing.B) {
	for _, be := range backends {
		b.Run("backend="+be.name, func(b *testing.B) {
			be.use(b)
			rng := rand.New(rand.NewSource(1))
			models := make([][]float64, 4)
			for i := range models {
				models[i] = randVec(rng, sweepDim)
			}
			avg := make([]float64, sweepDim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MeanInto(avg, models)
			}
		})
	}
}
