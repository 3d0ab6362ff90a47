package stat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{1, 3}, 2},
		{"negatives", []float64{-1, -3, 4}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance(single) = %v, want 0", got)
	}
}

func TestMinMaxRange(t *testing.T) {
	xs := []float64{3, -2, 7, 0}
	mn, err := Min(xs)
	if err != nil || mn != -2 {
		t.Errorf("Min = %v, %v; want -2, nil", mn, err)
	}
	mx, err := Max(xs)
	if err != nil || mx != 7 {
		t.Errorf("Max = %v, %v; want 7, nil", mx, err)
	}
	if got := Range(xs); got != 9 {
		t.Errorf("Range = %v, want 9", got)
	}
	if _, err := Min(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Min(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Max(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Max(nil) err = %v, want ErrEmpty", err)
	}
	if got := Range(nil); got != 0 {
		t.Errorf("Range(nil) = %v, want 0", got)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	tests := []struct {
		q, want float64
	}{
		{0, 1}, {1, 4}, {0.5, 2.5}, {0.25, 1.75},
	}
	for _, tt := range tests {
		got, err := Quantile(xs, tt.q)
		if err != nil {
			t.Fatalf("Quantile(%v): %v", tt.q, err)
		}
		if !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", tt.q, got, tt.want)
		}
	}
	if _, err := Quantile(nil, 0.5); !errors.Is(err, ErrEmpty) {
		t.Errorf("Quantile(nil) err = %v, want ErrEmpty", err)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Error("Quantile(1.5) succeeded, want error")
	}
	single, err := Quantile([]float64{7}, 0.9)
	if err != nil || single != 7 {
		t.Errorf("Quantile(single) = %v, %v", single, err)
	}
}

func TestMedian(t *testing.T) {
	got, err := Median([]float64{5, 1, 3})
	if err != nil || got != 3 {
		t.Errorf("Median = %v, %v; want 3, nil", got, err)
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	cov, err := Covariance(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(cov, 2.5, 1e-12) {
		t.Errorf("Covariance = %v, want 2.5", cov)
	}
	r, err := Correlation(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("Correlation = %v, want 1", r)
	}
	neg, _ := Correlation(xs, []float64{8, 6, 4, 2})
	if !almostEqual(neg, -1, 1e-12) {
		t.Errorf("Correlation = %v, want -1", neg)
	}
	if _, err := Covariance(xs, ys[:2]); err == nil {
		t.Error("length mismatch accepted")
	}
	constCorr, _ := Correlation(xs, []float64{5, 5, 5, 5})
	if constCorr != 0 {
		t.Errorf("Correlation(const) = %v, want 0", constCorr)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 1
		w.Add(xs[i])
	}
	if w.N() != 500 {
		t.Fatalf("N = %d, want 500", w.N())
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-10) {
		t.Errorf("Welford mean %v != batch %v", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), Variance(xs), 1e-10) {
		t.Errorf("Welford var %v != batch %v", w.Variance(), Variance(xs))
	}
	if !almostEqual(w.StdDev(), StdDev(xs), 1e-10) {
		t.Errorf("Welford sd %v != batch %v", w.StdDev(), StdDev(xs))
	}
}

func TestWelfordZeroValue(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.Mean() != 0 || w.N() != 0 {
		t.Error("zero-value Welford not usable")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("Summary.String empty")
	}
	if _, err := Summarize(nil); !errors.Is(err, ErrEmpty) {
		t.Errorf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
}

func TestPropVarianceNonNegative(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // skip pathological float inputs
			}
		}
		return Variance(xs) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropMeanWithinMinMax(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+rng.Intn(50))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		mn, _ := Min(xs)
		mx, _ := Max(xs)
		m := Mean(xs)
		return m >= mn-1e-12 && m <= mx+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPropQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 2+rng.Intn(40))
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		q1, err1 := Quantile(xs, 0.25)
		q2, err2 := Quantile(xs, 0.75)
		return err1 == nil && err2 == nil && q1 <= q2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
