package classify

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// codecTrainSet builds a deterministic 3-class training set of n records.
func codecTrainSet(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		class := i % 3
		x[i] = []float64{
			float64(class) + 0.3*rng.NormFloat64(),
			float64(class)*0.5 + 0.3*rng.NormFloat64(),
			rng.Float64(),
		}
		y[i] = class
	}
	d, err := dataset.New("codec", x, y)
	if err != nil {
		t.Fatalf("dataset.New: %v", err)
	}
	return d
}

// codecProbes returns query points spread across the training range,
// including points equidistant-ish between classes to exercise tie paths.
func codecProbes(n int) [][]float64 {
	rng := rand.New(rand.NewSource(7))
	probes := make([][]float64, n)
	for i := range probes {
		probes[i] = []float64{3 * rng.Float64(), 2 * rng.Float64(), rng.Float64()}
	}
	return probes
}

// assertIdenticalPredictions asserts the decoded model predicts exactly the
// same class as the original on every probe — the replication contract: a
// replica built from the wire blob must be indistinguishable from the leader.
func assertIdenticalPredictions(t *testing.T, original, decoded Classifier, probes [][]float64) {
	t.Helper()
	for i, p := range probes {
		want, err := original.Predict(p)
		if err != nil {
			t.Fatalf("original predict %d: %v", i, err)
		}
		got, err := decoded.Predict(p)
		if err != nil {
			t.Fatalf("decoded predict %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("probe %d: decoded predicted %d, original %d", i, got, want)
		}
	}
}

// roundTrip encodes, decodes, and returns the reconstructed classifier.
func roundTrip(t *testing.T, c Classifier) Classifier {
	t.Helper()
	blob, err := EncodeModel(c)
	if err != nil {
		t.Fatalf("EncodeModel: %v", err)
	}
	decoded, err := DecodeModel(blob)
	if err != nil {
		t.Fatalf("DecodeModel: %v", err)
	}
	return decoded
}

// TestModelCodecRoundTrip is the contract test for every Cloner
// implementation: round-tripping a fitted model through the wire codec must
// yield byte-identical predictions. Mirrors the PR 5 refit regression: every
// classifier the serving layer can swap in must also be replicable.
func TestModelCodecRoundTrip(t *testing.T) {
	train := codecTrainSet(t, 120)
	small := codecTrainSet(t, 30)
	probes := codecProbes(200)

	cases := []struct {
		name  string
		model Cloner
		train *dataset.Dataset
	}{
		{"knn-large", NewKNN(5), train},
		{"knn-brute-small", NewKNN(3), small},
		{"knn-k-above-stack", NewKNN(knnStackK + 1), train},
		{"svm-rbf-default", NewSVM(SVMConfig{}), small},
		{"svm-linear", NewSVM(SVMConfig{Kernel: LinearKernel{}, C: 2, Seed: 9}), small},
		{"svm-rbf-tuned", NewSVM(SVMConfig{Kernel: RBFKernel{Gamma: 0.7}, MaxIter: 50}), small},
		{"nearest-centroid", NewNearestCentroid(), train},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.model.Fit(tc.train); err != nil {
				t.Fatalf("fit: %v", err)
			}
			decoded := roundTrip(t, tc.model)
			assertIdenticalPredictions(t, tc.model, decoded, probes)
		})
	}
}

// TestModelCodecDeterministic asserts the encoding itself is stable: two
// encodings of the same fitted model are byte-identical, so replicas can
// dedupe retransmissions by comparing blobs.
func TestModelCodecDeterministic(t *testing.T) {
	knn := NewKNN(5)
	if err := knn.Fit(codecTrainSet(t, 90)); err != nil {
		t.Fatalf("fit: %v", err)
	}
	a, err := EncodeModel(knn)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b, err := EncodeModel(knn)
	if err != nil {
		t.Fatalf("encode again: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of the same model differ")
	}
}

// TestModelCodecDecodedIndependence asserts mutating the decoded instance
// (refitting it) never perturbs the original — replicas must not share state
// with the leader even in-process.
func TestModelCodecDecodedIndependence(t *testing.T) {
	train := codecTrainSet(t, 90)
	probes := codecProbes(50)
	knn := NewKNN(5)
	if err := knn.Fit(train); err != nil {
		t.Fatalf("fit: %v", err)
	}
	want := make([]int, len(probes))
	for i, p := range probes {
		want[i], _ = knn.Predict(p)
	}
	decoded := roundTrip(t, knn)
	// Refit the decoded copy on shifted data; the original must not move.
	shifted := codecTrainSet(t, 90).Clone()
	for _, row := range shifted.X {
		for j := range row {
			row[j] += 10
		}
	}
	if err := decoded.Fit(shifted); err != nil {
		t.Fatalf("refit decoded: %v", err)
	}
	for i, p := range probes {
		got, err := knn.Predict(p)
		if err != nil {
			t.Fatalf("original predict after decoded refit: %v", err)
		}
		if got != want[i] {
			t.Fatalf("probe %d: original's prediction changed after refitting the decoded copy", i)
		}
	}
}

// TestEncodeModelRejects covers the unencodable cases.
func TestEncodeModelRejects(t *testing.T) {
	t.Run("unfitted-knn", func(t *testing.T) {
		if _, err := EncodeModel(NewKNN(3)); !errors.Is(err, ErrNotFitted) {
			t.Fatalf("got %v, want ErrNotFitted", err)
		}
	})
	t.Run("unfitted-svm", func(t *testing.T) {
		if _, err := EncodeModel(NewSVM(SVMConfig{})); !errors.Is(err, ErrNotFitted) {
			t.Fatalf("got %v, want ErrNotFitted", err)
		}
	})
	t.Run("unfitted-centroid", func(t *testing.T) {
		if _, err := EncodeModel(NewNearestCentroid()); !errors.Is(err, ErrNotFitted) {
			t.Fatalf("got %v, want ErrNotFitted", err)
		}
	})
	t.Run("foreign-type", func(t *testing.T) {
		if _, err := EncodeModel(stubClassifier{}); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("got %v, want ErrBadConfig", err)
		}
	})
	t.Run("custom-kernel", func(t *testing.T) {
		svm := NewSVM(SVMConfig{Kernel: customKernel{}})
		if err := svm.Fit(codecTrainSet(t, 30)); err != nil {
			t.Fatalf("fit: %v", err)
		}
		if _, err := EncodeModel(svm); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("got %v, want ErrBadConfig", err)
		}
	})
}

// TestDecodeModelRejects covers malformed payloads.
func TestDecodeModelRejects(t *testing.T) {
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"one-byte", []byte{modelKindKNN}},
		{"unknown-kind", []byte{0xFF, 1, 2, 3}},
		{"garbage-knn-body", []byte{modelKindKNN, 0xDE, 0xAD}},
		{"garbage-svm-body", []byte{modelKindSVM, 0xDE, 0xAD}},
		{"garbage-centroid-body", []byte{modelKindCentroid, 0xDE, 0xAD}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeModel(tc.payload); !errors.Is(err, ErrBadModelBlob) {
				t.Fatalf("got %v, want ErrBadModelBlob", err)
			}
		})
	}
}

// stubClassifier is a non-built-in Classifier used to exercise the
// unencodable-type path.
type stubClassifier struct{}

func (stubClassifier) Fit(*dataset.Dataset) error     { return nil }
func (stubClassifier) Predict([]float64) (int, error) { return 0, nil }

// customKernel is a Kernel the wire format cannot name.
type customKernel struct{}

func (customKernel) Name() string                { return "custom" }
func (customKernel) Eval(a, b []float64) float64 { return LinearKernel{}.Eval(a, b) }
