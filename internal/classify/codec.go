package classify

// Wire codec for fitted classifiers. The cluster layer replicates each
// successful refit's swapped-in model from a group's leader node to its read
// replicas, so every built-in classifier must round-trip through an explicit
// byte encoding — not just its configuration (Cloner covers that) but its
// full fitted state, reconstructed so that the decoded instance's predictions
// are identical to the original's on every input.
//
// The format is one kind byte naming the concrete type followed by a gob
// encoding of an exported wire struct. Wire structs exist because the fitted
// state lives in unexported fields by design; they also pin the replication
// format independently of internal field layout.

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/matrix"
)

// ErrBadModelBlob flags a model payload that cannot be decoded: unknown
// model kind, truncated or corrupted body, or inconsistent fitted state.
var ErrBadModelBlob = errors.New("classify: malformed model encoding")

// Model kind bytes. One byte per concrete classifier type; the value is the
// first payload byte so foreign blobs fail fast.
const (
	modelKindKNN      byte = 'K'
	modelKindSVM      byte = 'S'
	modelKindCentroid byte = 'C'
)

// knnWire is the replication form of a fitted KNN: configuration plus the
// training records. Decoding re-runs Fit on the same records in the same
// order, so the decoded instance finds the same neighbours as the original.
type knnWire struct {
	K    int
	Name string
	X    [][]float64
	Y    []int
	// X32/Dim is the packed-float32 alternative to X (EncodeModelFloat32):
	// little-endian float32 records, Dim features each, at under half X's
	// gob footprint. Exactly one of X and X32 is populated.
	X32 []byte
	Dim int
}

// centroidWire is the replication form of a fitted NearestCentroid: the
// fitted centroids and their class labels, restored verbatim.
type centroidWire struct {
	Centroids [][]float64
	Classes   []int
	// C32/Dim is the packed-float32 alternative to Centroids.
	C32 []byte
	Dim int
}

// kernelWire names an SVM kernel on the wire. Only the built-in kernels are
// encodable; a custom Kernel implementation cannot be reconstructed remotely.
type kernelWire struct {
	Name  string // "linear" or "rbf"
	Gamma float64
}

// binaryWire is one fitted ±1 machine of a one-vs-one SVM: support records,
// their ±1 labels, the trained multipliers and the bias, restored verbatim so
// the decision function evaluates to the exact same floats.
type binaryWire struct {
	X     [][]float64
	Y     []float64
	Alpha []float64
	B     float64
	// X32 is the packed-float32 alternative to X (svmWire.Dim features per
	// record). The trained multipliers, labels and bias stay float64 — they
	// are one value per record, so packing them saves little, while the
	// support records dominate the payload.
	X32 []byte
}

// svmWire is the replication form of a fitted SVM.
type svmWire struct {
	Kernel    kernelWire
	C         float64
	Tol       float64
	MaxPasses int
	MaxIter   int
	Seed      int64
	Dim       int
	Pairs     [][2]int
	Binary    []binaryWire
}

// EncodeModel serializes a fitted built-in classifier (KNN, SVM or
// NearestCentroid) for replication. The encoding captures the full fitted
// state: DecodeModel returns an instance whose predictions are identical to
// c's on every input. Unfitted models and classifier types outside the
// built-in set are rejected.
func EncodeModel(c Classifier) ([]byte, error) {
	return encodeModel(c, false)
}

// EncodeModelFloat32 is EncodeModel with the model's record matrices packed
// as little-endian float32 — under half the gob bytes of the float64 form.
// The precision contract narrows accordingly: DecodeModel returns a model
// whose state is the float32 rounding of the original's (~7 significant
// digits), so predictions may differ on inputs near decision boundaries.
// DecodeModel handles both forms transparently.
func EncodeModelFloat32(c Classifier) ([]byte, error) {
	return encodeModel(c, true)
}

func encodeModel(c Classifier, f32 bool) ([]byte, error) {
	var kind byte
	var wire any
	switch m := c.(type) {
	case *KNN:
		if m.train == nil {
			return nil, fmt.Errorf("%w: cannot encode an unfitted KNN", ErrNotFitted)
		}
		kind = modelKindKNN
		w := knnWire{K: m.K, Name: m.train.Name, X: m.train.X, Y: m.train.Y}
		if f32 {
			if b, dim := matrix.PackFloat32Rows(w.X); dim > 0 {
				w.X32, w.Dim, w.X = b, dim, nil
			}
		}
		wire = w
	case *NearestCentroid:
		if len(m.centroids) == 0 {
			return nil, fmt.Errorf("%w: cannot encode an unfitted NearestCentroid", ErrNotFitted)
		}
		kind = modelKindCentroid
		w := centroidWire{Centroids: m.centroids, Classes: m.classes}
		if f32 {
			if b, dim := matrix.PackFloat32Rows(w.Centroids); dim > 0 {
				w.C32, w.Dim, w.Centroids = b, dim, nil
			}
		}
		wire = w
	case *SVM:
		if len(m.binary) == 0 {
			return nil, fmt.Errorf("%w: cannot encode an unfitted SVM", ErrNotFitted)
		}
		kw, err := encodeKernel(m.cfg.Kernel)
		if err != nil {
			return nil, err
		}
		w := svmWire{
			Kernel:    kw,
			C:         m.cfg.C,
			Tol:       m.cfg.Tol,
			MaxPasses: m.cfg.MaxPasses,
			MaxIter:   m.cfg.MaxIter,
			Seed:      m.cfg.Seed,
			Dim:       m.dim,
			Pairs:     m.pairs,
			Binary:    make([]binaryWire, len(m.binary)),
		}
		for i, bin := range m.binary {
			bw := binaryWire{X: bin.x, Y: bin.y, Alpha: bin.alpha, B: bin.b}
			if f32 {
				if b, dim := matrix.PackFloat32Rows(bw.X); dim == m.dim {
					bw.X32, bw.X = b, nil
				}
			}
			w.Binary[i] = bw
		}
		kind = modelKindSVM
		wire = w
	default:
		return nil, fmt.Errorf("%w: unencodable classifier type %T", ErrBadConfig, c)
	}
	var buf bytes.Buffer
	buf.WriteByte(kind)
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		return nil, fmt.Errorf("classify: encode model: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeModel reconstructs a classifier encoded with EncodeModel. The
// returned instance is fitted and independent of the encoder's: its
// predictions are identical to the source model's on every input.
func DecodeModel(payload []byte) (Classifier, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadModelBlob, len(payload))
	}
	dec := gob.NewDecoder(bytes.NewReader(payload[1:]))
	switch payload[0] {
	case modelKindKNN:
		var w knnWire
		if err := dec.Decode(&w); err != nil {
			return nil, fmt.Errorf("%w: knn body: %v", ErrBadModelBlob, err)
		}
		if len(w.X) == 0 && len(w.X32) > 0 {
			x, err := matrix.UnpackFloat32Rows(w.X32, w.Dim)
			if err != nil {
				return nil, fmt.Errorf("%w: knn float32 records: %v", ErrBadModelBlob, err)
			}
			w.X = x
		}
		train, err := dataset.New(w.Name, w.X, w.Y)
		if err != nil {
			return nil, fmt.Errorf("%w: knn training set: %v", ErrBadModelBlob, err)
		}
		knn := &KNN{K: w.K}
		if err := knn.Fit(train); err != nil {
			return nil, fmt.Errorf("%w: knn refit: %v", ErrBadModelBlob, err)
		}
		return knn, nil
	case modelKindCentroid:
		var w centroidWire
		if err := dec.Decode(&w); err != nil {
			return nil, fmt.Errorf("%w: centroid body: %v", ErrBadModelBlob, err)
		}
		if len(w.Centroids) == 0 && len(w.C32) > 0 {
			c, err := matrix.UnpackFloat32Rows(w.C32, w.Dim)
			if err != nil {
				return nil, fmt.Errorf("%w: centroid float32 records: %v", ErrBadModelBlob, err)
			}
			w.Centroids = c
		}
		if len(w.Centroids) == 0 || len(w.Centroids) != len(w.Classes) {
			return nil, fmt.Errorf("%w: %d centroids for %d classes", ErrBadModelBlob, len(w.Centroids), len(w.Classes))
		}
		return &NearestCentroid{centroids: w.Centroids, classes: w.Classes}, nil
	case modelKindSVM:
		var w svmWire
		if err := dec.Decode(&w); err != nil {
			return nil, fmt.Errorf("%w: svm body: %v", ErrBadModelBlob, err)
		}
		kernel, err := decodeKernel(w.Kernel)
		if err != nil {
			return nil, err
		}
		if len(w.Binary) == 0 || len(w.Binary) != len(w.Pairs) {
			return nil, fmt.Errorf("%w: %d machines for %d pairs", ErrBadModelBlob, len(w.Binary), len(w.Pairs))
		}
		cfg := SVMConfig{Kernel: kernel, C: w.C, Tol: w.Tol, MaxPasses: w.MaxPasses, MaxIter: w.MaxIter, Seed: w.Seed}
		svm := &SVM{cfg: cfg, dim: w.Dim, pairs: w.Pairs, binary: make([]*binarySVM, len(w.Binary))}
		for i, bw := range w.Binary {
			if len(bw.X) == 0 && len(bw.X32) > 0 {
				x, err := matrix.UnpackFloat32Rows(bw.X32, w.Dim)
				if err != nil {
					return nil, fmt.Errorf("%w: machine %d float32 records: %v", ErrBadModelBlob, i, err)
				}
				bw.X = x
			}
			if len(bw.X) != len(bw.Y) || len(bw.X) != len(bw.Alpha) {
				return nil, fmt.Errorf("%w: machine %d has inconsistent state", ErrBadModelBlob, i)
			}
			svm.binary[i] = &binarySVM{cfg: cfg, x: bw.X, y: bw.Y, alpha: bw.Alpha, b: bw.B}
		}
		return svm, nil
	default:
		return nil, fmt.Errorf("%w: unknown model kind 0x%02x", ErrBadModelBlob, payload[0])
	}
}

// encodeKernel maps a built-in kernel to its wire form.
func encodeKernel(k Kernel) (kernelWire, error) {
	switch kk := k.(type) {
	case LinearKernel:
		return kernelWire{Name: "linear"}, nil
	case RBFKernel:
		return kernelWire{Name: "rbf", Gamma: kk.Gamma}, nil
	default:
		return kernelWire{}, fmt.Errorf("%w: unencodable kernel type %T (built-in kernels only)", ErrBadConfig, k)
	}
}

// decodeKernel reconstructs a wire-form kernel.
func decodeKernel(w kernelWire) (Kernel, error) {
	switch w.Name {
	case "linear":
		return LinearKernel{}, nil
	case "rbf":
		if w.Gamma <= 0 {
			return nil, fmt.Errorf("%w: rbf kernel with gamma %v", ErrBadModelBlob, w.Gamma)
		}
		return RBFKernel{Gamma: w.Gamma}, nil
	default:
		return nil, fmt.Errorf("%w: unknown kernel %q", ErrBadModelBlob, w.Name)
	}
}
