package data

import (
	"fmt"
	"math/rand"

	"github.com/spyker-fl/spyker/internal/tensor"
)

// ImageConfig describes a synthetic image-classification dataset.
type ImageConfig struct {
	Classes  int     // number of labels
	Channels int     // 1 for MNIST-like, 3 for CIFAR-like
	Height   int     // image height
	Width    int     // image width
	Train    int     // number of training examples
	Test     int     // number of held-out test examples
	Noise    float64 // per-pixel Gaussian noise stddev
	Warp     float64 // per-example random shift intensity (structure noise)
	Seed     int64
}

// MNISTLike returns the configuration used throughout the experiments as a
// stand-in for MNIST: single-channel 12x12 images, 10 classes. The reduced
// resolution keeps the emulation fast while preserving the learning
// dynamics the paper studies.
func MNISTLike(train, test int, seed int64) ImageConfig {
	return ImageConfig{
		Classes: 10, Channels: 1, Height: 12, Width: 12,
		Train: train, Test: test, Noise: 0.25, Warp: 0.6, Seed: seed,
	}
}

// CIFARLike returns a 3-channel, 12x12, 10-class configuration standing in
// for CIFAR-10. It uses more noise than MNISTLike, making the task harder,
// mirroring the relative difficulty of CIFAR-10 vs MNIST.
func CIFARLike(train, test int, seed int64) ImageConfig {
	return ImageConfig{
		Classes: 10, Channels: 3, Height: 12, Width: 12,
		Train: train, Test: test, Noise: 0.45, Warp: 1.0, Seed: seed,
	}
}

// Images is a synthetic image dataset: each class is defined by a smooth
// random template; an example is its class template randomly shifted and
// perturbed with Gaussian pixel noise. A small CNN separates the classes
// after a modest number of SGD updates, which is exactly the regime the
// paper's emulation operates in.
type Images struct {
	cfg       ImageConfig
	templates [][]float64
	inputs    [][]float64
	labels    []int
	testStart int
}

var _ Classification = (*Images)(nil)

// GenerateImages materializes the dataset described by cfg.
func GenerateImages(cfg ImageConfig) *Images {
	if cfg.Classes < 2 || cfg.Train < cfg.Classes || cfg.Test < 0 {
		panic(fmt.Sprintf("data: invalid image config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := &Images{cfg: cfg, testStart: cfg.Train}
	dim := cfg.Channels * cfg.Height * cfg.Width

	d.templates = make([][]float64, cfg.Classes)
	for c := range d.templates {
		d.templates[c] = smoothTemplate(rng, cfg.Channels, cfg.Height, cfg.Width)
	}

	total := cfg.Train + cfg.Test
	d.inputs = make([][]float64, total)
	d.labels = make([]int, total)
	for i := 0; i < total; i++ {
		label := i % cfg.Classes
		d.labels[i] = label
		x := make([]float64, dim)
		shiftY := int(rng.NormFloat64() * cfg.Warp)
		shiftX := int(rng.NormFloat64() * cfg.Warp)
		shifted(x, d.templates[label], cfg.Channels, cfg.Height, cfg.Width, shiftY, shiftX)
		for j := range x {
			x[j] += float64(rng.NormFloat64() * cfg.Noise)
		}
		d.inputs[i] = x
	}
	return d
}

// smoothTemplate builds a class prototype by summing a few random low
// frequency bumps, so nearby pixels correlate the way real images do.
func smoothTemplate(rng *rand.Rand, ch, h, w int) []float64 {
	t := make([]float64, ch*h*w)
	for c := 0; c < ch; c++ {
		for b := 0; b < 4; b++ {
			cy := rng.Float64() * float64(h)
			cx := rng.Float64() * float64(w)
			amp := rng.NormFloat64() * 1.5
			sigma := 1.5 + float64(rng.Float64())*2
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					dy := float64(y) - float64(cy)
					dx := float64(x) - float64(cx)
					t[c*h*w+y*w+x] += float64(amp * gauss2(dy, dx, sigma))
				}
			}
		}
	}
	return t
}

func gauss2(dy, dx, sigma float64) float64 {
	return tensor.Exp(-(float64(dy*dy) + float64(dx*dx)) / (2 * sigma * sigma))
}

// shifted writes src translated by (dy,dx) into dst, zero-padding exposed
// borders, per channel.
func shifted(dst, src []float64, ch, h, w, dy, dx int) {
	for c := 0; c < ch; c++ {
		for y := 0; y < h; y++ {
			sy := y - dy
			if sy < 0 || sy >= h {
				continue
			}
			for x := 0; x < w; x++ {
				sx := x - dx
				if sx < 0 || sx >= w {
					continue
				}
				dst[c*h*w+y*w+x] = src[c*h*w+sy*w+sx]
			}
		}
	}
}

// Len implements Classification over the training split.
func (d *Images) Len() int { return d.cfg.Train }

// Input implements Classification.
func (d *Images) Input(i int) []float64 { return d.inputs[i] }

// Label implements Classification.
func (d *Images) Label(i int) int { return d.labels[i] }

// NumClasses implements Classification.
func (d *Images) NumClasses() int { return d.cfg.Classes }

// TestSet returns the held-out split as its own Classification view.
func (d *Images) TestSet() Classification {
	return &imageTestView{d}
}

// Shape returns (channels, height, width).
func (d *Images) Shape() (ch, h, w int) { return d.cfg.Channels, d.cfg.Height, d.cfg.Width }

type imageTestView struct{ d *Images }

func (v *imageTestView) Len() int              { return v.d.cfg.Test }
func (v *imageTestView) Input(i int) []float64 { return v.d.inputs[v.d.testStart+i] }
func (v *imageTestView) Label(i int) int       { return v.d.labels[v.d.testStart+i] }
func (v *imageTestView) NumClasses() int       { return v.d.cfg.Classes }
