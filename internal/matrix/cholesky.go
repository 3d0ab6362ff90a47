package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotPositiveDefinite is returned when Cholesky factorization meets a
// non-positive pivot.
var ErrNotPositiveDefinite = errors.New("matrix: not positive definite")

// Cholesky computes the lower-triangular L with A = L·Lᵀ for a symmetric
// positive-definite matrix. It is used to sample correlated Gaussians from
// a target covariance and to sanity-check covariance estimates.
func Cholesky(a *Dense) (*Dense, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("matrix: Cholesky of non-square %dx%d", a.rows, a.cols))
	}
	n := a.rows
	l := New(n, n)
	for j := 0; j < n; j++ {
		var diag float64
		for k := 0; k < j; k++ {
			diag += l.data[j*n+k] * l.data[j*n+k]
		}
		d := a.data[j*n+j] - diag
		if d <= 0 {
			return nil, fmt.Errorf("pivot %d: %w", j, ErrNotPositiveDefinite)
		}
		l.data[j*n+j] = math.Sqrt(d)
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += l.data[i*n+k] * l.data[j*n+k]
			}
			l.data[i*n+j] = (a.data[i*n+j] - s) / l.data[j*n+j]
		}
	}
	return l, nil
}
