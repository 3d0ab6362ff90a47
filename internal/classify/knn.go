package classify

import (
	"fmt"

	"repro/internal/dataset"
)

// KNN is a K-nearest-neighbours classifier with majority voting (ties break
// to the smaller class index for determinism). Search is one flat scan over
// the row-major training matrix into a bounded top-k, which beats a kd-tree
// at every dataset size the service hosts and allocates nothing per query.
type KNN struct {
	// K is the neighbourhood size (default 5).
	K int

	train *dataset.Dataset // rows alias flat
	flat  []float64        // the training records row-major, Dim values each
}

// NewKNN returns an unfitted KNN classifier with the given K (0 selects the
// default of 5).
func NewKNN(k int) *KNN {
	if k <= 0 {
		k = 5
	}
	return &KNN{K: k}
}

var _ Cloner = (*KNN)(nil)

// Clone implements Cloner: a fresh unfitted KNN with the same K.
func (k *KNN) Clone() Classifier { return &KNN{K: k.K} }

// Fit implements Classifier.
func (k *KNN) Fit(d *dataset.Dataset) error {
	if d == nil || d.Len() == 0 {
		return ErrEmptyTrain
	}
	if k.K > d.Len() {
		return fmt.Errorf("%w: K=%d exceeds training size %d", ErrBadConfig, k.K, d.Len())
	}
	// Copy the records into one row-major block; the training set's rows
	// alias it, so the model holds each value once.
	dim := d.Dim()
	k.flat = make([]float64, 0, d.Len()*dim)
	x := make([][]float64, d.Len())
	for i, row := range d.X {
		k.flat = append(k.flat, row...)
		x[i] = k.flat[i*dim : (i+1)*dim : (i+1)*dim]
	}
	k.train = &dataset.Dataset{Name: d.Name, FeatureNames: append([]string(nil), d.FeatureNames...),
		X: x, Y: append([]int(nil), d.Y...)}
	return nil
}

// neighbor is one candidate of the top-k: a training record index and its
// squared distance to the query.
type neighbor struct {
	index int
	dist2 float64
}

// knnStackK is the largest K whose top-k lives on the stack; larger K
// allocates its buffer once per query.
const knnStackK = 16

// Predict implements Classifier.
func (k *KNN) Predict(x []float64) (int, error) {
	if k.train == nil {
		return 0, ErrNotFitted
	}
	dim := k.train.Dim()
	if len(x) != dim {
		return 0, fmt.Errorf("%w: got %d features, want %d", ErrDimMismatch, len(x), dim)
	}
	var buf [knnStackK]neighbor
	top := buf[:0]
	if k.K > knnStackK {
		top = make([]neighbor, 0, k.K)
	}
	// top stays sorted by (dist2, index). Records arrive in index order, so
	// a candidate tying the current worst distance has the larger index and
	// never displaces it.
	for i, off := 0, 0; off < len(k.flat); i, off = i+1, off+dim {
		d := euclidean2(x, k.flat[off:off+dim])
		if len(top) == k.K {
			if d >= top[k.K-1].dist2 {
				continue
			}
			top = top[:k.K-1]
		}
		j := len(top)
		top = append(top, neighbor{})
		for ; j > 0 && top[j-1].dist2 > d; j-- {
			top[j] = top[j-1]
		}
		top[j] = neighbor{index: i, dist2: d}
	}
	return k.vote(top), nil
}

// vote returns the majority class of the neighbours, ties to the smaller
// class. K is small, so counting by rescanning beats a map.
func (k *KNN) vote(top []neighbor) int {
	best, bestVotes := -1, -1
	for a, nb := range top {
		class := k.train.Y[nb.index]
		votes, seen := 0, false
		for b, other := range top {
			if k.train.Y[other.index] != class {
				continue
			}
			if b < a {
				seen = true // counted at its first occurrence
				break
			}
			votes++
		}
		if !seen && (votes > bestVotes || (votes == bestVotes && class < best)) {
			best, bestVotes = class, votes
		}
	}
	return best
}
