package tensor

import "math"

// Exp returns e**x with the bits math.Exp gives on an amd64 CPU with FMA:
// it is archExp ($GOROOT/src/math/exp_amd64.s) on its fused path, one
// instruction at a time, with math.FMA where archExp fuses and a float64()
// around every other rounding. math.FMA is exact with or without the
// instruction, so unlike math.Exp, which rounds differently on a CPU
// without FMA or under GODEBUG=cpu.fma=off, Exp depends on neither. Every
// seeded path calls it, and the exp kernels of kernels_amd64.s are it on
// four lanes. Like archExp it overflows to +Inf once k = round(x*log2(e))
// reaches 1024 (x > 709.436…), short of its Overflow threshold.
func Exp(x float64) float64 {
	const (
		log2e    = 1.4426950408889634073599246810018920
		ln2u     = 0.69314718055966295651160180568695068359375
		ln2l     = 0.28235290563031577122588448175013436025525412068e-12
		overflow = 7.09782712893384e+02
	)
	switch {
	case math.IsNaN(x):
		return x
	case x > overflow: // +Inf too
		return math.Inf(1)
	}
	t := float64(log2e * x)
	if t < -1076 { // so k < -1075 (x = -Inf too): archExp's underflow exit
		return 0
	}
	k := math.RoundToEven(t) // CVTSD2SL, CVTSL2SD
	r := math.FMA(-k, ln2u, x)
	r = math.FMA(-k, ln2l, r)
	r = float64(r * 0.0625)
	// The Taylor polynomial, exprodata<>'s coefficients from 1/8! down.
	p := math.FMA(2.4801587301587301587e-5, r, 1.9841269841269841270e-4)
	p = math.FMA(p, r, 1.3888888888888888889e-3)
	p = math.FMA(p, r, 8.3333333333333333333e-3)
	p = math.FMA(p, r, 4.1666666666666666667e-2)
	p = math.FMA(p, r, 1.6666666666666666667e-1)
	p = math.FMA(p, r, 0.5)
	p = math.FMA(p, r, 1.0)
	r = float64(r * p)
	r = float64(r * float64(r+2))
	r = float64(r * float64(r+2))
	r = float64(r * float64(r+2))
	r = math.FMA(float64(r+2), r, 1)
	switch e := int(k) + 1023; { // the biased exponent of 2**k
	case e >= 0x7FF:
		return math.Inf(1)
	case e >= 1:
		return float64(r * math.Float64frombits(uint64(e)<<52))
	case e >= -52:
		r = float64(r * math.Float64frombits(uint64(e+0x3FE)<<52))
		return float64(r * 0x1p-1022)
	}
	return 0
}

// maxLog is log(2**127), math.tanh's MAXLOG: above half of it tanh is ±1.
const maxLog = 8.8029691931113054295988e+01

var tanhP = [...]float64{
	-9.64399179425052238628e-1,
	-9.92877231001918586564e1,
	-1.61468768441708447952e3,
}

var tanhQ = [...]float64{
	1.12811678491632931402e2,
	2.23548839060100448583e3,
	4.84406305325125486048e3,
}

// Tanh returns the hyperbolic tangent of x with the bits math.Tanh gives
// on an amd64 CPU with FMA. On amd64 math.Tanh is the pure Go of
// math/tanh.go (the Cephes rational approximation), whose one
// transcendental call is math.Exp; this is that code calling Exp.
func Tanh(x float64) float64 {
	z := math.Abs(x)
	switch {
	case z > 0.5*maxLog:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := Exp(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
	default:
		if x == 0 {
			return x
		}
		s := x * x
		z = x + x*s*((tanhP[0]*s+tanhP[1])*s+tanhP[2])/(((s+tanhQ[0])*s+tanhQ[1])*s+tanhQ[2])
	}
	return z
}
