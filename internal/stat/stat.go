// Package stat provides the statistics substrate for the SAP reproduction:
// descriptive moments, quantiles, histograms, covariance/correlation, and
// streaming accumulators: the scalar Welford accumulator and the vector
// rank-1 covariance accumulator (CovAccumulator) that lets internal/stream
// watch a data stream's geometry without revisiting past records. The privacy
// guarantee of the paper's §2.2 is a statistic too (the standard deviation
// of the best attacker's estimation error), so the attack suite leans on
// this package throughout. All randomized helpers take an explicit
// *rand.Rand so every experiment is reproducible from a seed.
package stat

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty input.
var ErrEmpty = errors.New("stat: empty input")

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs (0 for fewer than 2 values).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the smallest value; it returns ErrEmpty for empty input.
func Min(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m, nil
}

// Max returns the largest value; it returns ErrEmpty for empty input.
func Max(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m, nil
}

// Range returns max-min (0 for empty input).
func Range(xs []float64) float64 {
	mn, err := Min(xs)
	if err != nil {
		return 0
	}
	mx, _ := Max(xs)
	return mx - mn
}

// Quantile returns the q-quantile (0 <= q <= 1) using linear interpolation
// between order statistics. It returns ErrEmpty for empty input.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stat: quantile %v out of [0,1]", q)
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], nil
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo], nil
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac, nil
}

// Median returns the 0.5 quantile.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Covariance returns the population covariance of two equal-length samples.
func Covariance(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stat: covariance length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, nil
	}
	mx, my := Mean(xs), Mean(ys)
	var s float64
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(len(xs)), nil
}

// Correlation returns the Pearson correlation coefficient, or 0 when either
// sample is constant.
func Correlation(xs, ys []float64) (float64, error) {
	cov, err := Covariance(xs, ys)
	if err != nil {
		return 0, err
	}
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0, nil
	}
	return cov / (sx * sy), nil
}

// Welford is a streaming mean/variance accumulator. The zero value is ready
// to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add folds x into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Summary bundles the descriptive statistics the experiment harness reports.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs; it returns ErrEmpty for empty input.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	mn, _ := Min(xs)
	mx, _ := Max(xs)
	med, _ := Median(xs)
	return Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		StdDev: StdDev(xs),
		Min:    mn,
		Max:    mx,
		Median: med,
	}, nil
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f sd=%.4f min=%.4f med=%.4f max=%.4f",
		s.N, s.Mean, s.StdDev, s.Min, s.Median, s.Max)
}
