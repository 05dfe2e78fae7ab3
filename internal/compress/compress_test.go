package compress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRawIsIdentity(t *testing.T) {
	in := []float64{1.5, -2.25, 0}
	out := (Raw{}).Roundtrip(in)
	for i := range in {
		if out[i] != in[i] {
			t.Fatal("raw codec is lossy")
		}
	}
	if (Raw{}).WireBytes(100) != 864 {
		t.Errorf("raw wire bytes = %d", (Raw{}).WireBytes(100))
	}
	in[0] = 99
	if out[0] == 99 {
		t.Error("raw roundtrip aliases the input")
	}
}

func TestQuantize8ErrorBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		in := make([]float64, n)
		for i := range in {
			in[i] = rng.NormFloat64() * 10
		}
		q := QuantizeVector(in)
		out := q.Dequantize()
		bound := q.Scale/2 + 1e-12 // half a bucket
		for i := range in {
			if math.Abs(out[i]-in[i]) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantize8ConstantVector(t *testing.T) {
	in := []float64{3.25, 3.25, 3.25}
	out := (Quantize8{}).Roundtrip(in)
	for _, v := range out {
		if v != 3.25 {
			t.Fatalf("constant vector decoded to %v", out)
		}
	}
}

func TestQuantize8Empty(t *testing.T) {
	if out := (Quantize8{}).Roundtrip(nil); len(out) != 0 {
		t.Error("empty roundtrip broken")
	}
}

func TestQuantize8WireBytesIs8x(t *testing.T) {
	raw := (Raw{}).WireBytes(10000)
	q := (Quantize8{}).WireBytes(10000)
	ratio := float64(raw) / float64(q)
	if ratio < 7.5 || ratio > 8.5 {
		t.Errorf("compression ratio %v, want ~8", ratio)
	}
}

func TestQuantize8EndpointsExact(t *testing.T) {
	in := []float64{-5, 0, 5}
	out := (Quantize8{}).Roundtrip(in)
	// Min and max quantize exactly to buckets 0 and 255.
	if out[0] != -5 || math.Abs(out[2]-5) > 1e-9 {
		t.Errorf("endpoints decoded to %v", out)
	}
}

func TestTopKDeltaKeepsLargest(t *testing.T) {
	base := []float64{0, 0, 0, 0}
	params := []float64{0.1, -5, 0.2, 3}
	out := (TopK{Fraction: 0.5}).RoundtripDelta(base, params)
	want := []float64{0, -5, 0, 3} // two largest deltas kept
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("top-k = %v, want %v", out, want)
		}
	}
}

func TestTopKFullFractionIsLossless(t *testing.T) {
	base := []float64{1, 2, 3}
	params := []float64{4, 5, 6}
	out := (TopK{Fraction: 1}).RoundtripDelta(base, params)
	for i := range params {
		if out[i] != params[i] {
			t.Fatal("fraction 1 should be lossless")
		}
	}
}

func TestTopKWireBytesScale(t *testing.T) {
	full := (TopK{Fraction: 1}).WireBytes(1000)
	tenth := (TopK{Fraction: 0.1}).WireBytes(1000)
	if tenth >= full/5 {
		t.Errorf("top-10%% bytes %d not much smaller than full %d", tenth, full)
	}
}

func TestTopKMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	(TopK{Fraction: 0.5}).RoundtripDelta([]float64{1}, []float64{1, 2})
}

func TestCodecNames(t *testing.T) {
	if (Raw{}).Name() != "raw" || (Quantize8{}).Name() != "q8" {
		t.Error("codec names wrong")
	}
	if (TopK{Fraction: 0.1}).Name() != "top10%" {
		t.Errorf("topk name = %q", (TopK{Fraction: 0.1}).Name())
	}
}
