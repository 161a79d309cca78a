package baseline

import (
	"math"
	"sort"
	"testing"

	"dsmc/internal/rng"
)

// This file holds the goodness-of-fit helpers the ablation tests judge
// relaxation by: Pearson pair correlation and the Kolmogorov–Smirnov
// test against the Maxwell speed distribution.

// meanVar returns the sample mean and population variance.
func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		variance += d * d
	}
	return mean, variance / float64(len(xs))
}

// pairCorrelation returns the Pearson correlation of paired samples.
func pairCorrelation(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0
	}
	mx, vx := meanVar(xs)
	my, vy := meanVar(ys)
	if vx == 0 || vy == 0 {
		return 0
	}
	var acc float64
	for i := range xs {
		acc += (xs[i] - mx) * (ys[i] - my)
	}
	return acc / float64(n) / math.Sqrt(vx*vy)
}

// maxwellSpeedCDF returns the cdf of the 3D Maxwell speed distribution
// with most probable speed cm: F(c) = erf(x) − (2/√π)·x·exp(−x²), x=c/cm.
func maxwellSpeedCDF(cm float64) func(float64) float64 {
	return func(c float64) float64 {
		if c <= 0 {
			return 0
		}
		x := c / cm
		return math.Erf(x) - 2/math.SqrtPi*x*math.Exp(-x*x)
	}
}

// kolmogorovSmirnov returns the KS statistic D = sup|F_n − F| of the
// sample against the reference cdf. The sample is sorted in place.
func kolmogorovSmirnov(xs []float64, cdf func(float64) float64) float64 {
	sort.Float64s(xs)
	n := float64(len(xs))
	var d float64
	for i, x := range xs {
		f := cdf(x)
		if hi := float64(i+1)/n - f; hi > d {
			d = hi
		}
		if lo := f - float64(i)/n; lo > d {
			d = lo
		}
	}
	return d
}

// ksCritical999 returns the asymptotic p=0.001 KS critical value for a
// sample of size n: 1.95/√n.
func ksCritical999(n int) float64 { return 1.95 / math.Sqrt(float64(n)) }

// normalCDF is the standard normal cumulative distribution.
func normalCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

func gaussianSample(n int, mean, sigma float64, seed uint64) []float64 {
	r := rng.NewStream(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Gaussian(mean, sigma)
	}
	return xs
}

func TestMaxwellSpeedCDF(t *testing.T) {
	cdf := maxwellSpeedCDF(1)
	if cdf(0) != 0 {
		t.Errorf("F(0) must be 0")
	}
	if got := cdf(10); math.Abs(got-1) > 1e-9 {
		t.Errorf("F(inf) = %v", got)
	}
	// Median of the Maxwell speed distribution is ≈ 1.0876·cm.
	if got := cdf(1.0876); math.Abs(got-0.5) > 1e-3 {
		t.Errorf("F(median) = %v", got)
	}
	// Monotone.
	prev := -1.0
	for c := 0.0; c < 5; c += 0.1 {
		if v := cdf(c); v < prev {
			t.Fatalf("cdf not monotone at %v", c)
		} else {
			prev = v
		}
	}
}

func TestKolmogorovSmirnovAccepts(t *testing.T) {
	xs := gaussianSample(20000, 0, 1, 4)
	d := kolmogorovSmirnov(xs, normalCDF)
	if d > ksCritical999(len(xs)) {
		t.Errorf("KS %v exceeds critical %v", d, ksCritical999(len(xs)))
	}
}

func TestKolmogorovSmirnovRejects(t *testing.T) {
	xs := gaussianSample(20000, 0.3, 1, 5) // shifted mean
	d := kolmogorovSmirnov(xs, normalCDF)
	if d < 2*ksCritical999(len(xs)) {
		t.Errorf("KS %v should reject the shifted sample", d)
	}
}

func TestKSAgainstMaxwellSpeeds(t *testing.T) {
	// Speeds of 3D Gaussian velocities follow the Maxwell distribution.
	r := rng.NewStream(6)
	const cm = 0.8
	sigma := cm / math.Sqrt2
	xs := make([]float64, 30000)
	for i := range xs {
		u, v, w := r.Gaussian(0, sigma), r.Gaussian(0, sigma), r.Gaussian(0, sigma)
		xs[i] = math.Sqrt(u*u + v*v + w*w)
	}
	d := kolmogorovSmirnov(xs, maxwellSpeedCDF(cm))
	if d > ksCritical999(len(xs)) {
		t.Errorf("Maxwell speed KS %v exceeds critical %v", d, ksCritical999(len(xs)))
	}
}

func TestPairCorrelation(t *testing.T) {
	xs := gaussianSample(20000, 0, 1, 8)
	ys := make([]float64, len(xs))
	copy(ys, xs)
	if got := pairCorrelation(xs, ys); math.Abs(got-1) > 1e-9 {
		t.Errorf("identical series correlation = %v", got)
	}
	ys = gaussianSample(20000, 0, 1, 9)
	if got := pairCorrelation(xs, ys); math.Abs(got) > 0.03 {
		t.Errorf("independent series correlation = %v", got)
	}
	if pairCorrelation(xs, ys[:5]) != 0 {
		t.Errorf("mismatched lengths must return 0")
	}
}
