package matrix

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims() = (%d,%d), want (3,4)", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Errorf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestNewFromSlice(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := NewFromSlice(2, 3, data)
	if got := m.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %v, want 6", got)
	}
	// Backing copy: mutating the source must not affect the matrix.
	data[0] = 99
	if got := m.At(0, 0); got != 1 {
		t.Fatalf("NewFromSlice aliased its input: At(0,0) = %v, want 1", got)
	}
}

func TestNewFromSliceWrongLenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong data length")
		}
	}()
	NewFromSlice(2, 3, []float64{1, 2})
}

func TestNewFromRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if r, c := m.Dims(); r != 3 || c != 2 {
		t.Fatalf("Dims = (%d,%d), want (3,2)", r, c)
	}
	if m.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %v, want 6", m.At(2, 1))
	}
	empty := NewFromRows(nil)
	if r, c := empty.Dims(); r != 0 || c != 0 {
		t.Fatalf("empty Dims = (%d,%d), want (0,0)", r, c)
	}
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for ragged rows")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("I(%d,%d) = %v, want %v", i, j, id.At(i, j), want)
			}
		}
	}
}

func TestDiagonal(t *testing.T) {
	d := Diagonal([]float64{2, 3})
	want := NewFromRows([][]float64{{2, 0}, {0, 3}})
	if !d.Equal(want) {
		t.Fatalf("Diagonal = %v, want %v", d, want)
	}
}

func TestRowColAccessors(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	row := m.Row(1)
	if row[0] != 4 || row[2] != 6 {
		t.Fatalf("Row(1) = %v", row)
	}
	row[0] = 100 // must be a copy
	if m.At(1, 0) != 4 {
		t.Fatal("Row returned aliased data")
	}
	col := m.Col(2)
	if col[0] != 3 || col[1] != 6 {
		t.Fatalf("Col(2) = %v", col)
	}
	m.SetRow(0, []float64{7, 8, 9})
	if m.At(0, 1) != 8 {
		t.Fatalf("SetRow failed: %v", m)
	}
	m.SetCol(0, []float64{10, 11})
	if m.At(1, 0) != 11 {
		t.Fatalf("SetCol failed: %v", m)
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b := NewFromRows([][]float64{{5, 6}, {7, 8}})
	if got, want := a.Add(b), NewFromRows([][]float64{{6, 8}, {10, 12}}); !got.Equal(want) {
		t.Errorf("Add = %v, want %v", got, want)
	}
	if got, want := b.Sub(a), NewFromRows([][]float64{{4, 4}, {4, 4}}); !got.Equal(want) {
		t.Errorf("Sub = %v, want %v", got, want)
	}
	if got, want := a.Scale(2), NewFromRows([][]float64{{2, 4}, {6, 8}}); !got.Equal(want) {
		t.Errorf("Scale = %v, want %v", got, want)
	}
	if got, want := a.AddScaled(10, b), NewFromRows([][]float64{{51, 62}, {73, 84}}); !got.Equal(want) {
		t.Errorf("AddScaled = %v, want %v", got, want)
	}
	if got, want := a.Hadamard(b), NewFromRows([][]float64{{5, 12}, {21, 32}}); !got.Equal(want) {
		t.Errorf("Hadamard = %v, want %v", got, want)
	}
}

func TestAddShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for shape mismatch")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestMul(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := NewFromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := a.Mul(b)
	want := NewFromRows([][]float64{{58, 64}, {139, 154}})
	if !got.Equal(want) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandomGaussian(rng, 5, 5, 1)
	if !a.Mul(Identity(5)).EqualApprox(a, 1e-14) {
		t.Fatal("A*I != A")
	}
	if !Identity(5).Mul(a).EqualApprox(a, 1e-14) {
		t.Fatal("I*A != A")
	}
}

func TestMulVec(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{5, 6})
	if got[0] != 17 || got[1] != 39 {
		t.Fatalf("MulVec = %v, want [17 39]", got)
	}
}

func TestTranspose(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.Transpose()
	want := NewFromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !got.Equal(want) {
		t.Fatalf("Transpose = %v, want %v", got, want)
	}
	if !a.T().T().Equal(a) {
		t.Fatal("double transpose is not identity")
	}
}

func TestTraceNorms(t *testing.T) {
	a := NewFromRows([][]float64{{3, -4}, {0, 5}})
	if a.Trace() != 8 {
		t.Fatalf("Trace = %v, want 8", a.Trace())
	}
	if got := a.FrobeniusNorm(); math.Abs(got-math.Sqrt(50)) > 1e-12 {
		t.Fatalf("FrobeniusNorm = %v, want sqrt(50)", got)
	}
	if a.MaxAbs() != 5 {
		t.Fatalf("MaxAbs = %v, want 5", a.MaxAbs())
	}
}

func TestSliceAugmentStack(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := a.Slice(1, 3, 0, 2)
	want := NewFromRows([][]float64{{4, 5}, {7, 8}})
	if !s.Equal(want) {
		t.Fatalf("Slice = %v, want %v", s, want)
	}
	aug := want.Augment(NewFromRows([][]float64{{1}, {2}}))
	if aug.Cols() != 3 || aug.At(1, 2) != 2 {
		t.Fatalf("Augment = %v", aug)
	}
	st := want.Stack(NewFromRows([][]float64{{0, 0}}))
	if st.Rows() != 3 || st.At(2, 0) != 0 {
		t.Fatalf("Stack = %v", st)
	}
}

func TestInverse(t *testing.T) {
	a := NewFromRows([][]float64{{4, 7}, {2, 6}})
	inv, err := a.Inverse()
	if err != nil {
		t.Fatalf("Inverse: %v", err)
	}
	want := NewFromRows([][]float64{{0.6, -0.7}, {-0.2, 0.4}})
	if !inv.EqualApprox(want, 1e-12) {
		t.Fatalf("Inverse = %v, want %v", inv, want)
	}
	if !a.Mul(inv).EqualApprox(Identity(2), 1e-12) {
		t.Fatal("A * A⁻¹ != I")
	}
}

func TestInverseSingular(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := a.Inverse(); !errors.Is(err, ErrSingular) {
		t.Fatalf("Inverse(singular) err = %v, want ErrSingular", err)
	}
}

func TestDet(t *testing.T) {
	tests := []struct {
		name string
		m    *Dense
		want float64
	}{
		{"identity", Identity(3), 1},
		{"2x2", NewFromRows([][]float64{{1, 2}, {3, 4}}), -2},
		{"singular", NewFromRows([][]float64{{1, 2}, {2, 4}}), 0},
		{"3x3", NewFromRows([][]float64{{6, 1, 1}, {4, -2, 5}, {2, 8, 7}}), -306},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.m.Det(); math.Abs(got-tt.want) > 1e-9 {
				t.Errorf("Det = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSolve(t *testing.T) {
	a := NewFromRows([][]float64{{3, 2, -1}, {2, -2, 4}, {-1, 0.5, -1}})
	b := ColumnVector([]float64{1, -2, 0})
	x, err := a.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := ColumnVector([]float64{1, -2, -2})
	if !x.EqualApprox(want, 1e-10) {
		t.Fatalf("Solve = %v, want %v", x, want)
	}
}

func TestLUDet(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := RandomGaussian(rng, 6, 6, 1)
	f, err := LUDecompose(a)
	if err != nil {
		t.Fatalf("LUDecompose: %v", err)
	}
	// Verify PA = LU by solving A x = b and checking the residual.
	b := RandomGaussian(rng, 6, 1, 1)
	x, err := f.Solve(b)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if resid := a.Mul(x).Sub(b).MaxAbs(); resid > 1e-10 {
		t.Fatalf("residual %v too large", resid)
	}
}

func TestQRDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range [][2]int{{4, 4}, {6, 3}, {8, 8}} {
		a := RandomGaussian(rng, dims[0], dims[1], 1)
		qr := QRDecompose(a)
		if !qr.Q.IsOrthogonal(1e-10) {
			t.Errorf("%v: Q not orthogonal", dims)
		}
		if !qr.Q.Mul(qr.R).EqualApprox(a, 1e-10) {
			t.Errorf("%v: QR != A", dims)
		}
		// R upper triangular.
		for i := 0; i < qr.R.Rows(); i++ {
			for j := 0; j < qr.R.Cols() && j < i; j++ {
				if qr.R.At(i, j) != 0 {
					t.Errorf("%v: R(%d,%d) = %v, want 0", dims, i, j, qr.R.At(i, j))
				}
			}
		}
	}
}

func TestEigenSym(t *testing.T) {
	// Known symmetric matrix: eigenvalues of {{2,1},{1,2}} are 3 and 1.
	a := NewFromRows([][]float64{{2, 1}, {1, 2}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatalf("EigenSym: %v", err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues = %v, want [3 1]", vals)
	}
	// Reconstruct A = V diag(λ) Vᵀ.
	recon := vecs.Mul(Diagonal(vals)).Mul(vecs.T())
	if !recon.EqualApprox(a, 1e-10) {
		t.Fatalf("V Λ Vᵀ = %v, want %v", recon, a)
	}
}

func TestEigenSymRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomGaussian(rng, 7, 7, 1)
	a := g.Mul(g.T()) // symmetric PSD
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatalf("EigenSym: %v", err)
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", vals)
		}
	}
	if !vecs.IsOrthogonal(1e-8) {
		t.Fatal("eigenvectors not orthogonal")
	}
	if !vecs.Mul(Diagonal(vals)).Mul(vecs.T()).EqualApprox(a, 1e-8) {
		t.Fatal("eigendecomposition does not reconstruct A")
	}
}

func TestSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{5, 3}, {4, 4}, {3, 5}} {
		a := RandomGaussian(rng, dims[0], dims[1], 1)
		res, err := SVD(a)
		if err != nil {
			t.Fatalf("%v: SVD: %v", dims, err)
		}
		for i := 1; i < len(res.Sigma); i++ {
			if res.Sigma[i] > res.Sigma[i-1]+1e-12 {
				t.Errorf("%v: singular values not sorted: %v", dims, res.Sigma)
			}
			if res.Sigma[i] < 0 {
				t.Errorf("%v: negative singular value %v", dims, res.Sigma[i])
			}
		}
		recon := res.U.Mul(Diagonal(res.Sigma)).Mul(res.V.T())
		if !recon.EqualApprox(a, 1e-9) {
			t.Errorf("%v: U Σ Vᵀ does not reconstruct A", dims)
		}
	}
}

func TestRandomOrthogonal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{2, 5, 16} {
		q := RandomOrthogonal(rng, n)
		if !q.IsOrthogonal(1e-10) {
			t.Errorf("n=%d: not orthogonal", n)
		}
		if d := math.Abs(math.Abs(q.Det()) - 1); d > 1e-8 {
			t.Errorf("n=%d: |det| = %v, want 1", n, math.Abs(q.Det()))
		}
	}
}

func TestApplyGivensLeftPreservesOrthogonality(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	q := RandomOrthogonal(rng, 5)
	q.ApplyGivensLeft(1, 3, 0.7)
	if !q.IsOrthogonal(1e-10) {
		t.Fatal("Givens rotation broke orthogonality")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := RandomGaussian(rng, 4, 7, 3)
	buf, err := a.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary: %v", err)
	}
	var b Dense
	if err := b.UnmarshalBinary(buf); err != nil {
		t.Fatalf("UnmarshalBinary: %v", err)
	}
	if !a.Equal(&b) {
		t.Fatal("round trip changed the matrix")
	}
}

func TestUnmarshalBad(t *testing.T) {
	tests := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short", []byte{1, 2, 3}},
		{"bad magic", make([]byte, 16)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var m Dense
			if err := m.UnmarshalBinary(tt.data); !errors.Is(err, ErrBadEncoding) {
				t.Errorf("err = %v, want ErrBadEncoding", err)
			}
		})
	}
}

func TestUnmarshalTruncatedPayload(t *testing.T) {
	a := Identity(3)
	buf, _ := a.MarshalBinary()
	var m Dense
	if err := m.UnmarshalBinary(buf[:len(buf)-5]); !errors.Is(err, ErrBadEncoding) {
		t.Fatalf("err = %v, want ErrBadEncoding", err)
	}
}

func TestStringFormat(t *testing.T) {
	s := NewFromRows([][]float64{{1, 2}}).String()
	if s == "" {
		t.Fatal("String returned empty")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Identity(2)
	b := a.Clone()
	b.Set(0, 0, 9)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone aliased storage")
	}
}

func TestRawDataCopy(t *testing.T) {
	a := Identity(2)
	d := a.RawData()
	d[0] = 42
	if a.At(0, 0) != 1 {
		t.Fatal("RawData aliased storage")
	}
}
