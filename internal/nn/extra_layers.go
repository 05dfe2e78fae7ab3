package nn

import (
	"fmt"
	"math/rand"

	"github.com/spyker-fl/spyker/internal/tensor"
)

// Dropout randomly zeroes a fraction of activations during training and
// scales the survivors by 1/(1-rate) (inverted dropout), so inference
// needs no rescaling. Call SetTraining(false) for evaluation.
type Dropout struct {
	size     int
	rate     float64
	training bool
	rng      *rand.Rand

	mask []bool
	outV []float64
	dx   []float64
}

// NewDropout creates a dropout layer. rate must lie in [0, 1).
func NewDropout(size int, rate float64, rng *rand.Rand) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate))
	}
	return &Dropout{
		size: size, rate: rate, training: true, rng: rng,
		mask: make([]bool, size),
		outV: make([]float64, size),
		dx:   make([]float64, size),
	}
}

// SetTraining toggles between training (random masking) and inference
// (identity) behavior.
func (d *Dropout) SetTraining(training bool) { d.training = training }

// Forward implements Layer.
func (d *Dropout) Forward(x []float64) []float64 {
	if !d.training || d.rate == 0 {
		copy(d.outV, x)
		for i := range d.mask {
			d.mask[i] = true
		}
		return d.outV
	}
	scale := 1 / (1 - d.rate)
	for i, v := range x {
		if d.rng.Float64() < d.rate {
			d.mask[i] = false
			d.outV[i] = 0
		} else {
			d.mask[i] = true
			d.outV[i] = v * scale
		}
	}
	return d.outV
}

// Backward implements Layer.
func (d *Dropout) Backward(dy []float64) []float64 {
	scale := 1.0
	if d.training && d.rate > 0 {
		scale = 1 / (1 - d.rate)
	}
	for i := range dy {
		if d.mask[i] {
			d.dx[i] = dy[i] * scale
		} else {
			d.dx[i] = 0
		}
	}
	return d.dx
}

// ParamBlocks implements Layer.
func (d *Dropout) ParamBlocks() [][]float64 { return nil }

// GradBlocks implements Layer.
func (d *Dropout) GradBlocks() [][]float64 { return nil }

// OutSize implements Layer.
func (d *Dropout) OutSize() int { return d.size }

// AvgPool2D is a non-overlapping 2x2 average-pooling layer over CHW
// input. Input height and width must be even.
type AvgPool2D struct {
	ch, inH, inW int
	outH, outW   int

	outV []float64
	dx   []float64
}

// NewAvgPool2D creates a 2x2 average pool over (ch,inH,inW) feature maps.
func NewAvgPool2D(ch, inH, inW int) *AvgPool2D {
	if inH%2 != 0 || inW%2 != 0 {
		panic(fmt.Sprintf("nn: AvgPool2D input %dx%d not even", inH, inW))
	}
	outH, outW := inH/2, inW/2
	return &AvgPool2D{
		ch: ch, inH: inH, inW: inW, outH: outH, outW: outW,
		outV: make([]float64, ch*outH*outW),
		dx:   make([]float64, ch*inH*inW),
	}
}

// Forward implements Layer.
func (p *AvgPool2D) Forward(x []float64) []float64 {
	for c := 0; c < p.ch; c++ {
		for oy := 0; oy < p.outH; oy++ {
			for ox := 0; ox < p.outW; ox++ {
				base := c*p.inH*p.inW + 2*oy*p.inW + 2*ox
				sum := x[base] + x[base+1] + x[base+p.inW] + x[base+p.inW+1]
				p.outV[c*p.outH*p.outW+oy*p.outW+ox] = sum / 4
			}
		}
	}
	return p.outV
}

// Backward implements Layer.
func (p *AvgPool2D) Backward(dy []float64) []float64 {
	tensor.Zero(p.dx)
	for c := 0; c < p.ch; c++ {
		for oy := 0; oy < p.outH; oy++ {
			for ox := 0; ox < p.outW; ox++ {
				g := dy[c*p.outH*p.outW+oy*p.outW+ox] / 4
				base := c*p.inH*p.inW + 2*oy*p.inW + 2*ox
				p.dx[base] += g
				p.dx[base+1] += g
				p.dx[base+p.inW] += g
				p.dx[base+p.inW+1] += g
			}
		}
	}
	return p.dx
}

// replica implements replicator.
func (p *AvgPool2D) replica() Layer {
	r := *p
	r.outV, r.dx = isolated(len(p.outV)), nil
	return &r
}

// ParamBlocks implements Layer.
func (p *AvgPool2D) ParamBlocks() [][]float64 { return nil }

// GradBlocks implements Layer.
func (p *AvgPool2D) GradBlocks() [][]float64 { return nil }

// OutSize implements Layer.
func (p *AvgPool2D) OutSize() int { return p.ch * p.outH * p.outW }

// OutShape reports the (channels, height, width) of the pooled output.
func (p *AvgPool2D) OutShape() (ch, h, w int) { return p.ch, p.outH, p.outW }

// Sigmoid is the logistic activation.
type Sigmoid struct {
	size int
	outV []float64
	dx   []float64
}

// NewSigmoid creates a Sigmoid over vectors of the given size.
func NewSigmoid(size int) *Sigmoid {
	return &Sigmoid{size: size, outV: make([]float64, size), dx: make([]float64, size)}
}

// Forward implements Layer.
func (s *Sigmoid) Forward(x []float64) []float64 {
	for i, v := range x {
		s.outV[i] = sigmoid(v)
	}
	return s.outV
}

// Backward implements Layer.
func (s *Sigmoid) Backward(dy []float64) []float64 {
	for i, y := range s.outV {
		s.dx[i] = dy[i] * y * (1 - y)
	}
	return s.dx
}

// replica implements replicator.
func (s *Sigmoid) replica() Layer { return &Sigmoid{size: s.size, outV: isolated(s.size)} }

// ParamBlocks implements Layer.
func (s *Sigmoid) ParamBlocks() [][]float64 { return nil }

// GradBlocks implements Layer.
func (s *Sigmoid) GradBlocks() [][]float64 { return nil }

// OutSize implements Layer.
func (s *Sigmoid) OutSize() int { return s.size }
