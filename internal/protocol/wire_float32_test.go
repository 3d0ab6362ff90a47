package protocol

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/transport"
)

// sniffConn wraps a transport endpoint and records a copy of every payload
// it sends, so tests can assert which frame bytes actually hit the wire.
type sniffConn struct {
	transport.Conn
	mu   sync.Mutex
	sent [][]byte
}

func (c *sniffConn) Send(ctx context.Context, to string, payload []byte) error {
	c.mu.Lock()
	c.sent = append(c.sent, append([]byte(nil), payload...))
	c.mu.Unlock()
	return c.Conn.Send(ctx, to, payload)
}

// TestFloat32BatchNegotiation checks the float32 payload mode end to end:
// with no handshake, every batch — the first included — rides packed as
// float32, and classification still attributes every record correctly.
func TestFloat32BatchNegotiation(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	raw, _ := net.Endpoint("client")
	clientConn := &sniffConn{Conn: raw}
	defer clientConn.Close()

	// Wide records with full-entropy mantissas, as perturbed data has: gob
	// suppresses trailing zero bytes of a float64, so only realistic values
	// show the packed form's halved width through the gob overhead.
	n, dim := 16, 8
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, dim)
		for j := range x[i] {
			x[i][j] = (float64(i) + 1) / (float64(j)*3.1415926535 + 1.7320508)
		}
		y[i] = i
	}
	wide, err := dataset.New("wide-line", x, y)
	if err != nil {
		t.Fatal(err)
	}
	_, stop := startGroupedService(t, svcConn, []GroupSpec{{
		ID: "alpha", Unified: wide, Model: classify.NewKNN(1)}},
		ServiceConfig{})
	defer stop()

	client, err := NewGroupServiceClient(clientConn, "svc", "alpha")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.SetWireOptions(WireOptions{Float32: true})

	ctx := testCtx(t)
	query := func(round int) {
		t.Helper()
		batch := make([][]float64, n)
		for i := range batch {
			batch[i] = append([]float64(nil), x[i]...)
		}
		labels, err := client.ClassifyBatch(ctx, batch)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, l := range labels {
			if l != i {
				t.Fatalf("round %d: record %d classified %d at float32 precision", round, i, l)
			}
		}
	}
	query(0)
	query(1)

	if len(clientConn.sent) != 2 {
		t.Fatalf("recorded %d frames, want 2", len(clientConn.sent))
	}
	for i, sent := range clientConn.sent {
		req := &serviceWire{ID: uint64(i + 1), Group: "alpha", Batch: x}
		packed, err := encodeServiceFrame(req, true)
		if err != nil {
			t.Fatal(err)
		}
		wide, err := encodeServiceWire(req)
		if err != nil {
			t.Fatal(err)
		}
		if sent[1] != ServiceWireVersion {
			t.Fatalf("frame %d is v%d, want v%d", i, sent[1], ServiceWireVersion)
		}
		if !bytes.Equal(sent, packed) {
			t.Fatalf("frame %d (%d bytes) is not the packed float32 encoding (%d bytes)",
				i, len(sent), len(packed))
		}
		if len(sent) >= len(wide) {
			t.Fatalf("float32 frame %d (%d bytes) is not smaller than the float64 frame (%d bytes)",
				i, len(sent), len(wide))
		}
	}
}

// float32SyncFrameBound is the size of TestModelSyncPayloadReduction's
// float32 model-sync frame under the negotiated float32 mode of wire v7/v8
// (the blob on a classic frame that also carried the sender's capability
// mask), measured on that code. The single-version frame must not be larger.
const float32SyncFrameBound = 11087

// TestModelSyncPayloadReduction pins the float32 replication bound: a
// model-sync frame carrying a float32 blob is no larger than the negotiated
// float32 frame it replaces and smaller than the float64 frame, and it
// still decodes into a model that classifies.
func TestModelSyncPayloadReduction(t *testing.T) {
	d := labelledLine(t, 512)
	// Widen the records so the payload is dominated by feature floats, as
	// real perturbed datasets are.
	wide := make([][]float64, d.Len())
	for i := range wide {
		wide[i] = []float64{d.X[i][0], d.X[i][0] * 0.7311, d.X[i][0] * 1.618, d.X[i][0] * 2.718}
	}
	wd, err := dataset.New("wide", wide, d.Y)
	if err != nil {
		t.Fatal(err)
	}
	model := classify.NewKNN(1)
	if err := model.Fit(wd); err != nil {
		t.Fatal(err)
	}

	plainBlob, err := classify.EncodeModel(model)
	if err != nil {
		t.Fatal(err)
	}
	packedBlob, err := classify.EncodeModelFloat32(model)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := encodeServiceWire(&serviceWire{
		Kind: kindModelSync, Group: "alpha", Seq: 1, Models: [][]byte{plainBlob}})
	if err != nil {
		t.Fatal(err)
	}
	packed, err := encodeServiceWire(&serviceWire{
		Kind: kindModelSync, Group: "alpha", Seq: 1, Models: [][]byte{packedBlob}})
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) > float32SyncFrameBound {
		t.Fatalf("float32 sync frame is %d bytes, larger than the %d-byte negotiated float32 frame",
			len(packed), float32SyncFrameBound)
	}
	if len(packed) >= len(plain) {
		t.Fatalf("float32 sync frame is %d bytes vs %d plain — no reduction", len(packed), len(plain))
	}

	// The packed frame still round-trips into a model that classifies.
	w, err := decodeServiceWire(packed)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := classify.DecodeModel(w.Models[0])
	if err != nil {
		t.Fatal(err)
	}
	got, err := decoded.Predict(wide[3])
	if err != nil {
		t.Fatal(err)
	}
	if got != wd.Y[3] {
		t.Fatalf("decoded float32 model classified record 3 as %d, want %d", got, wd.Y[3])
	}
}

// TestEncodeServiceFrameRetrySafe checks the float32 packer never mutates
// the caller's frame: retry loops re-encode the same *serviceWire, so the
// original Batch must survive an earlier packed encoding.
func TestEncodeServiceFrameRetrySafe(t *testing.T) {
	w := &serviceWire{ID: 1, Group: "alpha", Batch: [][]float64{{0.25, 0.5}, {0.75, 1.0}}}
	first, err := encodeServiceFrame(w, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Batch) != 2 || w.Batch32 != nil {
		t.Fatalf("encode mutated the caller's frame: %+v", w)
	}
	second, err := encodeServiceFrame(w, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("re-encoding the same frame produced different bytes")
	}
}
