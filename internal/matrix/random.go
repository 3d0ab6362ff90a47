package matrix

import "math/rand"

// RandomGaussian returns an r-by-c matrix with i.i.d. N(0, sigma²) entries
// drawn from rng.
func RandomGaussian(rng *rand.Rand, r, c int, sigma float64) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = rng.NormFloat64() * sigma
	}
	return m
}

// RandomUniform returns an r-by-c matrix with i.i.d. U[lo, hi) entries.
func RandomUniform(rng *rand.Rand, r, c int, lo, hi float64) *Dense {
	m := New(r, c)
	span := hi - lo
	for i := range m.data {
		m.data[i] = lo + span*rng.Float64()
	}
	return m
}

// RandomOrthogonal returns an n-by-n orthogonal matrix drawn from the Haar
// distribution, produced by QR-decomposing a Gaussian matrix and fixing the
// signs so that R's diagonal is positive (which makes the distribution
// exactly Haar rather than QR-implementation dependent).
func RandomOrthogonal(rng *rand.Rand, n int) *Dense {
	g := RandomGaussian(rng, n, n, 1)
	qr := QRDecompose(g)
	q := qr.Q
	for j := 0; j < n; j++ {
		if qr.R.At(j, j) < 0 {
			for i := 0; i < n; i++ {
				q.Set(i, j, -q.At(i, j))
			}
		}
	}
	return q
}
