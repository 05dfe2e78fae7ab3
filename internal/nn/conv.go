package nn

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/spyker-fl/spyker/internal/tensor"
)

// Conv2D is a 2-D convolution with stride 1 and no padding ("valid"
// convolution). Inputs and outputs are flat CHW-ordered vectors: channel
// major, then rows, then columns.
type Conv2D struct {
	inC, inH, inW    int
	outC, outH, outW int
	k                int

	// w holds outC filters, each inC*k*k long, stored contiguously.
	w  []float64
	b  []float64
	gw []float64
	gb []float64

	lastX []float64
	outV  []float64
	dx    []float64

	// nzG/nzOff are backward's packing scratch (one output plane's
	// non-zero dy and their input offsets), built on the first backward
	// pass: models that only evaluate never need them.
	nzG   []float64
	nzOff []int32
}

// NewConv2D creates a convolution layer mapping (inC,inH,inW) to
// (outC,inH-k+1,inW-k+1) feature maps with k x k kernels.
func NewConv2D(inC, inH, inW, outC, k int, rng *rand.Rand) *Conv2D {
	if k > inH || k > inW {
		panic(fmt.Sprintf("nn: kernel %d larger than input %dx%d", k, inH, inW))
	}
	outH, outW := inH-k+1, inW-k+1
	c := &Conv2D{
		inC: inC, inH: inH, inW: inW,
		outC: outC, outH: outH, outW: outW,
		k:  k,
		w:  make([]float64, outC*inC*k*k),
		b:  make([]float64, outC),
		gw: make([]float64, outC*inC*k*k),
		gb: make([]float64, outC),

		lastX: make([]float64, inC*inH*inW),
		outV:  make([]float64, outC*outH*outW),
		dx:    make([]float64, inC*inH*inW),
	}
	fanIn := inC * k * k
	fanOut := outC * k * k
	m := tensor.MatrixFrom(1, len(c.w), c.w)
	m.XavierInit(rng, fanIn, fanOut)
	return c
}

// Forward implements Layer.
//
// Every output element is one accumulator: it starts at the bias and adds
// x*w over (ic, ky, kx) in that order. The loops below keep that order per
// accumulator but sweep a whole output plane for one (oc, ic) pair at a
// time, so the filter taps sit in registers and neighbouring outputs'
// chains overlap instead of one k*k-add chain running alone.
func (c *Conv2D) Forward(x []float64) []float64 {
	copy(c.lastX, x)
	k, inW, outW := c.k, c.inW, c.outW
	plane := c.inH * inW
	for oc := 0; oc < c.outC; oc++ {
		out := c.outV[oc*c.outH*outW:][:c.outH*outW]
		tensor.Fill(out, c.b[oc])
		for ic := 0; ic < c.inC; ic++ {
			w := c.w[(oc*c.inC+ic)*k*k:][:k*k]
			xp := x[ic*plane:][:plane]
			if k == 3 {
				tensor.Conv3x3Add(out, outW, xp, inW, w)
				continue
			}
			for oy := 0; oy < c.outH; oy++ {
				row := out[oy*outW:][:outW]
				for ky := 0; ky < k; ky++ {
					for kx := 0; kx < k; kx++ {
						wv := w[ky*k+kx]
						xr := xp[(oy+ky)*inW+kx:][:outW]
						for i, xv := range xr {
							row[i] += float64(xv * wv)
						}
					}
				}
			}
		}
	}
	return c.outV
}

// Backward implements Layer.
func (c *Conv2D) Backward(dy []float64) []float64 {
	tensor.Zero(c.dx)
	c.backward(dy, true)
	return c.dx
}

// backwardParams implements paramBackwarder.
func (c *Conv2D) backwardParams(dy []float64) { c.backward(dy, false) }

// backward accumulates the parameter gradients and, when needDX is set,
// the input gradient into a zeroed c.dx.
//
// The accumulators and the order each one is fed in: gb[oc] adds the
// non-zero dy of its channel in (oy, ox) order; gw[oc][ic][ky][kx] adds
// g*x over the same outputs in the same order; dx[ic][y][x] adds g*w over
// oc, then (oy, ox). An output with dy == 0 is skipped, not added (adding
// a signed zero can flip the sign of a zero sum). Two things are arranged
// differently from the textbook loop, neither of which reorders any
// accumulator's additions:
//
//   - The ic loop sits outside (oy, ox) — no accumulator is shared between
//     two input channels — so the k*k weight gradients of one (oc, ic)
//     pair stay in registers for a whole sweep of the output plane.
//   - The skip is taken once per output channel, not once per visit: the
//     non-zero dy of the plane are first packed, in order, into c.nzG with
//     the input offset of each in c.nzOff. After a ReLU about half of dy is
//     zero with no pattern, and a data-dependent branch in the inner loop
//     costs more than the multiply-adds it guards; packing needs none.
func (c *Conv2D) backward(dy []float64, needDX bool) {
	k, inW, outW := c.k, c.inW, c.outW
	plane := c.inH * inW
	if c.nzG == nil {
		c.nzG, c.nzOff = make([]float64, c.outH*outW), make([]int32, c.outH*outW)
	}
	for oc := 0; oc < c.outC; oc++ {
		n := 0
		for oy := 0; oy < c.outH; oy++ {
			for ox, g := range dy[(oc*c.outH+oy)*outW:][:outW] {
				c.nzG[n], c.nzOff[n] = g, int32(oy*inW+ox)
				b := math.Float64bits(g) << 1 // drops the sign: zero iff g is +0 or -0
				n += int((b | -b) >> 63)
			}
		}
		gs, offs := c.nzG[:n], c.nzOff[:n]
		gb := c.gb[oc]
		for _, g := range gs {
			gb += g
		}
		c.gb[oc] = gb
		for ic := 0; ic < c.inC; ic++ {
			wOff := (oc*c.inC + ic) * k * k
			w, gw := c.w[wOff:][:k*k], c.gw[wOff:][:k*k]
			x, dx := c.lastX[ic*plane:][:plane], c.dx[ic*plane:][:plane]
			if k == 3 {
				conv3Backward(gs, offs, inW, x, dx, w, gw, needDX)
				continue
			}
			for j, g := range gs {
				for ky := 0; ky < k; ky++ {
					xi, wi := int(offs[j])+ky*inW, ky*k
					for kx := 0; kx < k; kx++ {
						gw[wi+kx] += float64(g * x[xi+kx])
						if needDX {
							dx[xi+kx] += float64(g * w[wi+kx])
						}
					}
				}
			}
		}
	}
}

// conv3Backward is backward's sweep of one output plane for one (oc, ic)
// pair with a 3x3 kernel: the nine weight-gradient accumulators live in
// locals and are written back once.
func conv3Backward(gs []float64, offs []int32, inW int, x, dx, w, gw []float64, needDX bool) {
	w0, w1, w2, w3, w4, w5, w6, w7, w8 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7], w[8]
	g0, g1, g2, g3, g4, g5, g6, g7, g8 := gw[0], gw[1], gw[2], gw[3], gw[4], gw[5], gw[6], gw[7], gw[8]
	offs = offs[:len(gs)]
	for j, g := range gs {
		o := int(offs[j])
		x0, x1, x2 := x[o:][:3], x[o+inW:][:3], x[o+2*inW:][:3]
		g0 += float64(g * x0[0])
		g1 += float64(g * x0[1])
		g2 += float64(g * x0[2])
		g3 += float64(g * x1[0])
		g4 += float64(g * x1[1])
		g5 += float64(g * x1[2])
		g6 += float64(g * x2[0])
		g7 += float64(g * x2[1])
		g8 += float64(g * x2[2])
		if needDX {
			d0, d1, d2 := dx[o:][:3], dx[o+inW:][:3], dx[o+2*inW:][:3]
			d0[0] += float64(g * w0)
			d0[1] += float64(g * w1)
			d0[2] += float64(g * w2)
			d1[0] += float64(g * w3)
			d1[1] += float64(g * w4)
			d1[2] += float64(g * w5)
			d2[0] += float64(g * w6)
			d2[1] += float64(g * w7)
			d2[2] += float64(g * w8)
		}
	}
	gw[0], gw[1], gw[2], gw[3], gw[4], gw[5], gw[6], gw[7], gw[8] = g0, g1, g2, g3, g4, g5, g6, g7, g8
}

// replica implements replicator. The copy keeps w and b (aliases of the
// shared parameter plane) and drops everything Backward needs: with a nil
// lastX, Forward's copy into it copies nothing.
func (c *Conv2D) replica() Layer {
	r := *c
	r.gw, r.gb, r.lastX, r.dx, r.nzG, r.nzOff = nil, nil, nil, nil, nil, nil
	r.outV = isolated(len(c.outV))
	return &r
}

// rebind implements rebinder: filter and bias storage move into the
// network-owned contiguous planes.
func (c *Conv2D) rebind(claim func(int) ([]float64, []float64)) {
	c.w, c.gw = adopt(claim, c.w, c.gw)
	c.b, c.gb = adopt(claim, c.b, c.gb)
}

// ParamBlocks implements Layer.
func (c *Conv2D) ParamBlocks() [][]float64 { return [][]float64{c.w, c.b} }

// GradBlocks implements Layer.
func (c *Conv2D) GradBlocks() [][]float64 { return [][]float64{c.gw, c.gb} }

// OutSize implements Layer.
func (c *Conv2D) OutSize() int { return c.outC * c.outH * c.outW }

// MaxPool2D is a non-overlapping 2x2 max-pooling layer over CHW input.
// Input height and width must be even.
type MaxPool2D struct {
	ch, inH, inW int
	outH, outW   int

	argmax []int
	outV   []float64
	dx     []float64
}

// NewMaxPool2D creates a 2x2 max pool over (ch,inH,inW) feature maps.
func NewMaxPool2D(ch, inH, inW int) *MaxPool2D {
	if inH%2 != 0 || inW%2 != 0 {
		panic(fmt.Sprintf("nn: MaxPool2D input %dx%d not even", inH, inW))
	}
	outH, outW := inH/2, inW/2
	n := ch * outH * outW
	return &MaxPool2D{
		ch: ch, inH: inH, inW: inW, outH: outH, outW: outW,
		argmax: make([]int, n),
		outV:   make([]float64, n),
		dx:     make([]float64, ch*inH*inW),
	}
}

// Forward implements Layer. Within a window the candidates are visited
// top-left, top-right, bottom-left, bottom-right and a later one wins only
// if strictly greater, so ties (and NaNs) resolve to the earliest.
// Channel planes are contiguous and inH is even, so the whole stack is
// ch*outH output rows, row r pooling input rows 2r and 2r+1: one
// tensor.MaxPool2x2 call.
func (p *MaxPool2D) Forward(x []float64) []float64 {
	tensor.MaxPool2x2(p.outV, p.argmax, x, p.ch*p.outH, p.inW)
	return p.outV
}

// replica implements replicator.
func (p *MaxPool2D) replica() Layer {
	r := *p
	r.argmax, r.outV, r.dx = make([]int, len(p.argmax)), isolated(len(p.outV)), nil
	return &r
}

// Backward implements Layer: a zeroed plane and one += per window, so a
// window's winner gets 0 + dy[o] (a -0 gradient becomes +0, a NaN comes
// out quieted) and its three losers +0. Writing each window once instead
// measured slower: the zeroing is one vectorized clear and the scatter a
// few instructions per window, while a one-pass loop makes five scalar
// stores per window.
func (p *MaxPool2D) Backward(dy []float64) []float64 {
	tensor.Zero(p.dx)
	for o, idx := range p.argmax {
		p.dx[idx] += dy[o]
	}
	return p.dx
}

// ParamBlocks implements Layer.
func (p *MaxPool2D) ParamBlocks() [][]float64 { return nil }

// GradBlocks implements Layer.
func (p *MaxPool2D) GradBlocks() [][]float64 { return nil }

// OutSize implements Layer.
func (p *MaxPool2D) OutSize() int { return p.ch * p.outH * p.outW }
