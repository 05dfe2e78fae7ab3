// Package compress implements the two standard federated-learning
// update-compression techniques — uniform 8-bit quantization and top-k
// delta sparsification — as an extension to the paper's system. Spyker is
// the most bandwidth-hungry algorithm of the paper's comparison
// (Fig. 12), which makes update compression the natural lever; the
// compression experiment measures how much traffic quantization saves at
// what accuracy cost.
//
// Simulated study only — not a wire encoding: a Codec is applied to the
// payload inside the DES and its WireBytes feed the simulated byte
// accounting; internal/transport and the live runtime always send raw
// float64 words.
package compress

import (
	"fmt"
	"math"
	"sort"
)

// Codec lossily encodes a model parameter vector for the wire. Roundtrip
// returns what the receiver would decode — simulations apply it to the
// payload so the accuracy impact of the compression is real — and
// WireBytes reports the encoded size used for bandwidth accounting.
type Codec interface {
	// Roundtrip encodes and immediately decodes params, returning the
	// lossy reconstruction. The input is not modified.
	Roundtrip(params []float64) []float64
	// WireBytes reports the encoded size of an n-parameter vector.
	WireBytes(n int) int
	// Name identifies the codec in experiment output.
	Name() string
}

// Raw is the identity codec: 8 bytes per parameter, no loss.
type Raw struct{}

var _ Codec = Raw{}

// Roundtrip implements Codec.
func (Raw) Roundtrip(params []float64) []float64 {
	return append([]float64(nil), params...)
}

// WireBytes implements Codec.
func (Raw) WireBytes(n int) int { return 8*n + 64 }

// Name implements Codec.
func (Raw) Name() string { return "raw" }

// Quantize8 is uniform 8-bit quantization: the vector's range [min,max]
// is split into 255 buckets; each parameter costs one byte plus a small
// header — an 8x reduction over raw float64.
type Quantize8 struct{}

var _ Codec = Quantize8{}

// Roundtrip implements Codec.
func (Quantize8) Roundtrip(params []float64) []float64 {
	q := QuantizeVector(params)
	return q.Dequantize()
}

// WireBytes implements Codec.
func (Quantize8) WireBytes(n int) int { return n + 80 }

// Name implements Codec.
func (Quantize8) Name() string { return "q8" }

// Quantized is an explicitly encoded 8-bit vector, exposed so tests and
// the live runtime can hold the encoded form.
type Quantized struct {
	Min   float64
	Scale float64 // (max-min)/255; 0 for a constant vector
	Data  []uint8
}

// QuantizeVector encodes params with uniform 8-bit quantization.
func QuantizeVector(params []float64) *Quantized {
	q := &Quantized{}
	q.EncodeFrom(params)
	return q
}

// EncodeFrom re-encodes params into q, reusing q.Data when its capacity
// suffices — the allocation-free path for a long-lived encoder fed from a
// parameter view. params is only read.
func (q *Quantized) EncodeFrom(params []float64) {
	if cap(q.Data) < len(params) {
		q.Data = make([]uint8, len(params))
	}
	q.Data = q.Data[:len(params)]
	q.Min, q.Scale = 0, 0
	if len(params) == 0 {
		return
	}
	minV, maxV := params[0], params[0]
	for _, v := range params[1:] {
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	q.Min = minV
	q.Scale = (maxV - minV) / 255
	if q.Scale == 0 {
		for i := range q.Data {
			q.Data[i] = 0 // constant vector: all zeros decode to Min
		}
		return
	}
	inv := 1 / q.Scale
	for i, v := range params {
		b := math.Round((v - minV) * inv)
		if b < 0 {
			b = 0
		}
		if b > 255 {
			b = 255
		}
		q.Data[i] = uint8(b)
	}
}

// Dequantize reconstructs the float vector.
func (q *Quantized) Dequantize() []float64 {
	return q.DequantizeInto(make([]float64, len(q.Data)))
}

// DequantizeInto reconstructs the float vector into dst (typically a
// pooled buffer), which must have the encoded length, and returns it.
func (q *Quantized) DequantizeInto(dst []float64) []float64 {
	if len(dst) != len(q.Data) {
		panic(fmt.Sprintf("compress: dst length %d != encoded %d", len(dst), len(q.Data)))
	}
	for i, b := range q.Data {
		dst[i] = q.Min + float64(b)*q.Scale
	}
	return dst
}

// TopK sends only the K largest-magnitude *deltas* against a reference
// vector the receiver already has (the model the client received); all
// other coordinates are treated as unchanged. Fraction selects K as a
// share of the vector length.
type TopK struct {
	Fraction float64 // in (0, 1]
}

var _ Codec = TopK{}

// Name implements Codec.
func (t TopK) Name() string { return fmt.Sprintf("top%.0f%%", t.Fraction*100) }

// WireBytes implements Codec: 4-byte index + 8-byte value per kept
// coordinate.
func (t TopK) WireBytes(n int) int {
	k := t.k(n)
	return 12*k + 64
}

func (t TopK) k(n int) int {
	f := t.Fraction
	if f <= 0 || f > 1 {
		f = 1
	}
	k := int(float64(n) * f)
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// Roundtrip implements Codec. Without the reference vector the codec
// cannot sparsify deltas, so the plain Roundtrip keeps the top-K
// magnitudes of the vector itself and zeroes the rest; prefer
// RoundtripDelta where the reference is available.
func (t TopK) Roundtrip(params []float64) []float64 {
	zero := make([]float64, len(params))
	return t.RoundtripDelta(zero, params)
}

// RoundtripDelta reconstructs what the receiver holding base would
// decode: base plus the K largest-magnitude components of params-base.
func (t TopK) RoundtripDelta(base, params []float64) []float64 {
	return t.RoundtripDeltaInto(make([]float64, len(params)), base, params)
}

// RoundtripDeltaInto is RoundtripDelta writing the reconstruction into
// dst (typically a pooled buffer) and returning it. dst must have the
// params length and may alias base but not params.
func (t TopK) RoundtripDeltaInto(dst, base, params []float64) []float64 {
	if len(base) != len(params) {
		panic(fmt.Sprintf("compress: base length %d != params %d", len(base), len(params)))
	}
	if len(dst) != len(params) {
		panic(fmt.Sprintf("compress: dst length %d != params %d", len(dst), len(params)))
	}
	n := len(params)
	k := t.k(n)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	mag := func(i int) float64 { return math.Abs(params[i] - base[i]) }
	sort.Slice(idx, func(a, b int) bool {
		ma, mb := mag(idx[a]), mag(idx[b])
		if ma != mb {
			return ma > mb
		}
		return idx[a] < idx[b]
	})
	copy(dst, base)
	for _, i := range idx[:k] {
		dst[i] = params[i]
	}
	return dst
}
