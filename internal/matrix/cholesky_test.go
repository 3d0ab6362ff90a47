package matrix

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnown(t *testing.T) {
	a := NewFromRows([][]float64{
		{4, 12, -16},
		{12, 37, -43},
		{-16, -43, 98},
	})
	l, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := NewFromRows([][]float64{
		{2, 0, 0},
		{6, 1, 0},
		{-8, 5, 3},
	})
	if !l.EqualApprox(want, 1e-10) {
		t.Fatalf("L = %v, want %v", l, want)
	}
	if !l.Mul(l.T()).EqualApprox(a, 1e-10) {
		t.Fatal("L·Lᵀ != A")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 1}}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("err = %v, want ErrNotPositiveDefinite", err)
	}
	zero := New(2, 2)
	if _, err := Cholesky(zero); !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("zero err = %v", err)
	}
}

func TestCholeskyNonSquarePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-square input")
		}
	}()
	_, _ = Cholesky(New(2, 3))
}

func TestPropCholeskyReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		g := genMatrix(rng, n, n)
		// G·Gᵀ + εI is symmetric positive definite.
		a := g.Mul(g.T()).Add(Identity(n).Scale(0.5))
		l, err := Cholesky(a)
		if err != nil {
			return false
		}
		// L lower triangular with positive diagonal.
		for i := 0; i < n; i++ {
			if l.At(i, i) <= 0 {
				return false
			}
			for j := i + 1; j < n; j++ {
				if l.At(i, j) != 0 {
					return false
				}
			}
		}
		return l.Mul(l.T()).EqualApprox(a, 1e-8)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
