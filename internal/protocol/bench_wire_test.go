package protocol

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/classify"
	"repro/internal/dataset"
)

// benchWireBatch builds a realistic perturbed batch: full-entropy mantissas,
// as the perturbation layer produces (gob's trailing-zero-byte float
// compression flatters synthetic round numbers).
func benchWireBatch(records, dim int) ([][]float64, []int) {
	rng := rand.New(rand.NewSource(11))
	x := make([][]float64, records)
	y := make([]int, records)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
		y[i] = i % 3
	}
	return x, y
}

// wireVariants are the two payload widths a sender may choose.
var wireVariants = []struct {
	name string
	f32  bool
}{
	{"plain", false},
	{"float32", true},
}

// BenchmarkWireBytes measures the encoded size of the hot-path frames —
// stream-ingest chunks and model-sync replication — in each payload width:
// classic float64 and packed float32. The headline metric is bytes/frame
// (ns/op tracks the encode cost of the saved bytes).
func BenchmarkWireBytes(b *testing.B) {
	batch, labels := benchWireBatch(256, 8)
	train, err := dataset.New("bench", batch, labels)
	if err != nil {
		b.Fatal(err)
	}
	knn := classify.NewKNN(3)
	if err := knn.Fit(train); err != nil {
		b.Fatal(err)
	}
	plainModel, err := classify.EncodeModel(knn)
	if err != nil {
		b.Fatal(err)
	}
	packedModel, err := classify.EncodeModelFloat32(knn)
	if err != nil {
		b.Fatal(err)
	}

	for _, v := range wireVariants {
		ingest := &serviceWire{ID: 1, Kind: kindIngest, Group: "alpha",
			Batch: batch, Labels: labels}
		b.Run(fmt.Sprintf("ingest/%s", v.name), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				payload, err := encodeServiceFrame(ingest, v.f32)
				if err != nil {
					b.Fatal(err)
				}
				size = len(payload)
			}
			b.ReportMetric(float64(size), "bytes/frame")
		})
	}

	for _, v := range wireVariants {
		// Model sync: float32 selects the packed model blob (what the
		// cluster publisher sends for float32 groups); the frame-level
		// packing has no batch to act on.
		model := plainModel
		if v.f32 {
			model = packedModel
		}
		sync := &serviceWire{Kind: kindModelSync, Group: "alpha", Seq: 3,
			Covered: 256, Models: [][]byte{model}}
		b.Run(fmt.Sprintf("modelsync/%s", v.name), func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				payload, err := encodeServiceFrame(sync, v.f32)
				if err != nil {
					b.Fatal(err)
				}
				size = len(payload)
			}
			b.ReportMetric(float64(size), "bytes/frame")
		})
	}
}

// BenchmarkFrameDecode measures the decode side of each payload width on the
// same ingest frame, float32 expansion included.
func BenchmarkFrameDecode(b *testing.B) {
	batch, labels := benchWireBatch(256, 8)
	for _, v := range wireVariants {
		payload, err := encodeServiceFrame(&serviceWire{ID: 1, Kind: kindIngest,
			Group: "alpha", Batch: batch, Labels: labels}, v.f32)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := decodeServiceWire(payload)
				if err != nil {
					b.Fatal(err)
				}
				if len(w.Batch) != len(batch) {
					b.Fatalf("decoded %d records, want %d", len(w.Batch), len(batch))
				}
			}
		})
	}
}
