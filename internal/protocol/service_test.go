package protocol

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/transport"
)

// startService trains a KNN(1) service on d and serves it until cleanup.
func startService(t *testing.T, conn transport.Conn, d *dataset.Dataset, cfg ServiceConfig) func() {
	t.Helper()
	svc, err := NewMiningService(conn, &MinerResult{Unified: d}, classify.NewKNN(1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := svc.Serve(ctx); err != nil {
			t.Error(err)
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// labelledLine builds an n-record 1-D dataset where record i sits at i/n and
// carries the unique label i, so KNN(1) answers queries with perfect
// attribution — exactly what response-correlation tests need.
func labelledLine(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{float64(i) / float64(n)}
		y[i] = i
	}
	d, err := dataset.New("line", x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// runServiceSession runs a SAP session and stands up the mining service on
// top of its result, returning a ready client and the target-space test
// data.
func runServiceSession(t *testing.T) (*ServiceClient, *dataset.Dataset, func()) {
	t.Helper()
	parties, _ := buildParties(t, 4, 41, 0.05)
	sess, err := RunLocal(testCtx(t), SessionConfig{Parties: parties, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	net := transport.NewMemNetwork()
	minerConn, err := net.Endpoint("mining-service")
	if err != nil {
		t.Fatal(err)
	}
	clientConn, err := net.Endpoint("client")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewMiningService(minerConn, &MinerResult{Unified: sess.Unified}, classify.NewKNN(5), ServiceConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := svc.Serve(ctx); err != nil {
			t.Error(err)
		}
	}()
	client, err := NewServiceClient(clientConn, "mining-service")
	if err != nil {
		t.Fatal(err)
	}

	// Build target-space queries from one party's data.
	query := parties[0].Data.Clone()
	yq, err := sess.Target.ApplyNoiseless(parties[0].Data.FeaturesT())
	if err != nil {
		t.Fatal(err)
	}
	if err := query.ReplaceFeaturesT(yq); err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		client.Close()
		cancel()
		<-done
		minerConn.Close()
		clientConn.Close()
	}
	return client, query, cleanup
}

func TestMiningServiceClassifies(t *testing.T) {
	client, query, cleanup := runServiceSession(t)
	defer cleanup()
	ctx := testCtx(t)

	correct := 0
	const n = 30
	for i := 0; i < n; i++ {
		label, err := client.Classify(ctx, query.X[i])
		if err != nil {
			t.Fatal(err)
		}
		if label == query.Y[i] {
			correct++
		}
	}
	// The training set contains these very records (in target space), so
	// KNN should classify the overwhelming majority correctly.
	if correct < n*7/10 {
		t.Fatalf("service classified %d/%d correctly", correct, n)
	}
}

func TestMiningServiceBatchMatchesSingle(t *testing.T) {
	client, query, cleanup := runServiceSession(t)
	defer cleanup()
	ctx := testCtx(t)

	const n = 20
	labels, err := client.ClassifyBatch(ctx, query.X[:n])
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != n {
		t.Fatalf("%d labels for %d records", len(labels), n)
	}
	for i := 0; i < n; i++ {
		single, err := client.Classify(ctx, query.X[i])
		if err != nil {
			t.Fatal(err)
		}
		if single != labels[i] {
			t.Fatalf("record %d: batch label %d vs single label %d", i, labels[i], single)
		}
	}
}

func TestMiningServiceRejectsBadQuery(t *testing.T) {
	client, query, cleanup := runServiceSession(t)
	defer cleanup()
	ctx := testCtx(t)

	if _, err := client.Classify(ctx, []float64{1}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("short query err = %v, want ErrBadQuery", err)
	}
	// The service must keep serving after a bad request, and the client
	// must remain usable after a typed rejection.
	if _, err := client.Classify(ctx, query.X[0]); err != nil {
		t.Fatalf("query after rejection failed: %v", err)
	}
	if _, err := client.ClassifyBatch(ctx, nil); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("empty batch err = %v, want ErrBadQuery", err)
	}
}

// TestServiceClientConcurrentClassify is the regression test for the old
// mux-less client, whose shared recv loop swallowed other callers' responses
// and whose ID allocation was unsynchronized. 32 goroutines share one client
// over one connection; every caller must get its own label back.
func TestServiceClientConcurrentClassify(t *testing.T) {
	const callers = 32
	net := transport.NewMemNetwork()
	svcConn, err := net.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer svcConn.Close()
	cliConn, err := net.Endpoint("cli")
	if err != nil {
		t.Fatal(err)
	}
	defer cliConn.Close()

	d := labelledLine(t, callers)
	stop := startService(t, svcConn, d, ServiceConfig{Workers: 4})
	defer stop()

	client, err := NewServiceClient(cliConn, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := testCtx(t)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			label, err := client.Classify(ctx, d.X[i])
			if err != nil {
				errs <- fmt.Errorf("caller %d: %w", i, err)
				return
			}
			if label != i {
				errs <- fmt.Errorf("caller %d got label %d (response misrouted)", i, label)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// countingConn counts outbound frames so tests can assert round-trip counts.
type countingConn struct {
	transport.Conn
	sends atomic.Int64
}

func (c *countingConn) Send(ctx context.Context, to string, payload []byte) error {
	c.sends.Add(1)
	return c.Conn.Send(ctx, to, payload)
}

// TestClassifyBatchSingleRoundTrip asserts the acceptance criterion that an
// N-record batch costs exactly one request frame (and one response frame).
func TestClassifyBatchSingleRoundTrip(t *testing.T) {
	const n = 48
	net := transport.NewMemNetwork()
	svcConn, err := net.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer svcConn.Close()
	rawCli, err := net.Endpoint("cli")
	if err != nil {
		t.Fatal(err)
	}
	defer rawCli.Close()
	cliConn := &countingConn{Conn: rawCli}
	svcCount := &countingConn{Conn: svcConn}

	d := labelledLine(t, n)
	stop := startService(t, svcCount, d, ServiceConfig{})
	defer stop()

	client, err := NewServiceClient(cliConn, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	labels, err := client.ClassifyBatch(testCtx(t), d.X)
	if err != nil {
		t.Fatal(err)
	}
	for i, label := range labels {
		if label != i {
			t.Fatalf("record %d labelled %d", i, label)
		}
	}
	if got := cliConn.sends.Load(); got != 1 {
		t.Errorf("client sent %d frames for one batch, want 1", got)
	}
	if got := svcCount.sends.Load(); got != 1 {
		t.Errorf("service sent %d frames for one batch, want 1", got)
	}
}

// TestClassifyBatchOverTCPWithAES round-trips the batch wire path over the
// real TCP transport with AES-GCM-sealed frames, including the typed error
// responses for oversized batches and dimension mismatches.
func TestClassifyBatchOverTCPWithAES(t *testing.T) {
	codec, err := transport.NewAESCodec("service-test-key")
	if err != nil {
		t.Fatal(err)
	}
	svcNode, err := transport.NewTCPNode("svc", "127.0.0.1:0", codec)
	if err != nil {
		t.Fatal(err)
	}
	defer svcNode.Close()
	cliNode, err := transport.NewTCPNode("cli", "127.0.0.1:0", codec)
	if err != nil {
		t.Fatal(err)
	}
	defer cliNode.Close()
	svcNode.AddPeer("cli", cliNode.Addr())
	cliNode.AddPeer("svc", svcNode.Addr())

	const n = 16
	d := labelledLine(t, n)
	stop := startService(t, svcNode, d, ServiceConfig{Workers: 2, MaxBatch: n})
	defer stop()

	client, err := NewServiceClient(cliNode, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := testCtx(t)

	labels, err := client.ClassifyBatch(ctx, d.X)
	if err != nil {
		t.Fatal(err)
	}
	for i, label := range labels {
		if label != i {
			t.Fatalf("record %d labelled %d", i, label)
		}
	}

	oversized := make([][]float64, n+1)
	for i := range oversized {
		oversized[i] = []float64{0.5}
	}
	if _, err := client.ClassifyBatch(ctx, oversized); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("oversized batch err = %v, want ErrBatchTooLarge", err)
	}
	if _, err := client.ClassifyBatch(ctx, [][]float64{{1, 2, 3}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("dim mismatch err = %v, want ErrBadQuery", err)
	}
	// The service and client survive both rejections.
	if label, err := client.Classify(ctx, d.X[3]); err != nil || label != 3 {
		t.Fatalf("post-rejection query = %d, %v; want 3, nil", label, err)
	}
}

func TestMiningServiceOversizedBatchMemHub(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	d := labelledLine(t, 4)
	stop := startService(t, svcConn, d, ServiceConfig{MaxBatch: 2})
	defer stop()
	client, err := NewServiceClient(cliConn, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx := testCtx(t)
	if _, err := client.ClassifyBatch(ctx, d.X); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("err = %v, want ErrBatchTooLarge", err)
	}
	if _, err := client.ClassifyBatch(ctx, [][]float64{{0.1, 0.2}}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v, want ErrBadQuery", err)
	}
	if labels, err := client.ClassifyBatch(ctx, d.X[:2]); err != nil || len(labels) != 2 {
		t.Fatalf("in-cap batch = %v, %v", labels, err)
	}
}

// TestServiceWireVersionMismatch sends frames claiming a version other than
// ServiceWireVersion — every retired byte 1–10 and a future one — and
// expects a typed rejection echoing the request ID rather than silence, a
// crash or a frame read under different rules.
func TestServiceWireVersionMismatch(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	d := labelledLine(t, 4)
	stop := startService(t, svcConn, d, ServiceConfig{})
	defer stop()

	ctx := testCtx(t)
	for _, version := range []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 99} {
		id := 100 + uint64(version)
		payload, err := encodeServiceWire(&serviceWire{ID: id, Batch: [][]float64{{0.1}}})
		if err != nil {
			t.Fatal(err)
		}
		payload[1] = version
		if err := cliConn.Send(ctx, "svc", payload); err != nil {
			t.Fatal(err)
		}
		env, err := cliConn.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := decodeServiceWire(env.Payload)
		if err != nil || resp == nil {
			t.Fatalf("v%d: decode response: %v", version, err)
		}
		if !resp.Response || resp.ID != id || resp.Code != codeWireVersion {
			t.Fatalf("v%d: resp = %+v, want response to ID %d with codeWireVersion", version, resp, id)
		}
		if _, err := decodeServiceResponse(resp, 1); !errors.Is(err, ErrWireVersion) {
			t.Fatalf("v%d: mapped err = %v, want ErrWireVersion", version, err)
		}
	}
}

// TestClientReceivesVersionRejection simulates a future-version service
// answering with a typed version rejection: the client must surface
// ErrWireVersion to the caller instead of dropping the frame and hanging.
func TestClientReceivesVersionRejection(t *testing.T) {
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	ctx := testCtx(t)
	go func() {
		env, err := svcConn.Recv(ctx)
		if err != nil {
			return
		}
		req, err := decodeServiceWire(env.Payload)
		if err != nil || req == nil {
			return
		}
		resp := &serviceWire{ID: req.ID, Response: true, Code: codeWireVersion, Err: "speak v4"}
		payload, err := encodeServiceWire(resp)
		if err != nil {
			return
		}
		payload[1] = 4 // the rejecting peer stamps its own, newer version
		_ = svcConn.Send(ctx, env.From, payload)
	}()

	client, err := NewServiceClient(cliConn, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Classify(ctx, []float64{0.5}); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("err = %v, want ErrWireVersion", err)
	}
}

// TestClassifyContextCancel verifies per-request cancellation: a request to
// a service that never answers returns the caller's ctx error and leaves the
// client alive.
func TestClassifyContextCancel(t *testing.T) {
	net := transport.NewMemNetwork()
	// A registered endpoint that never serves: sends succeed, no responses.
	blackhole, _ := net.Endpoint("blackhole")
	defer blackhole.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	client, err := NewServiceClient(cliConn, "blackhole")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := client.Classify(ctx, []float64{0.5}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// The abandoned request must not leak a pending entry.
	client.mu.Lock()
	pending := len(client.pending)
	client.mu.Unlock()
	if pending != 0 {
		t.Fatalf("%d pending requests leaked after cancellation", pending)
	}
}

func TestServiceClientCloseFailsInflight(t *testing.T) {
	net := transport.NewMemNetwork()
	blackhole, _ := net.Endpoint("blackhole")
	defer blackhole.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	client, err := NewServiceClient(cliConn, "blackhole")
	if err != nil {
		t.Fatal(err)
	}
	inflight := make(chan error, 1)
	go func() {
		_, err := client.Classify(context.Background(), []float64{0.5})
		inflight <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the request register
	client.Close()
	if err := <-inflight; !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("in-flight err after Close = %v, want ErrServiceClosed", err)
	}
	if _, err := client.Classify(context.Background(), []float64{0.5}); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("post-Close err = %v, want ErrServiceClosed", err)
	}
}

func TestMiningServiceConfigValidation(t *testing.T) {
	net := transport.NewMemNetwork()
	conn, err := net.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := NewMiningService(conn, nil, classify.NewKNN(1), ServiceConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil result err = %v", err)
	}
	if _, err := NewMiningService(conn, &MinerResult{}, classify.NewKNN(1), ServiceConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty unified err = %v", err)
	}
	d, _ := dataset.New("d", [][]float64{{1}, {2}}, []int{0, 1})
	if _, err := NewMiningService(conn, &MinerResult{Unified: d}, nil, ServiceConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil model err = %v", err)
	}
	if _, err := NewServiceClient(conn, ""); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty miner err = %v", err)
	}
}

func TestMiningServiceContextCancel(t *testing.T) {
	net := transport.NewMemNetwork()
	conn, err := net.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	d, _ := dataset.New("d", [][]float64{{0}, {1}, {0.1}, {0.9}}, []int{0, 1, 0, 1})
	svc, err := NewMiningService(conn, &MinerResult{Unified: d}, classify.NewKNN(1), ServiceConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- svc.Serve(ctx) }()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Serve after cancel = %v, want nil", err)
	}
}

func TestServiceWireGarbageIgnored(t *testing.T) {
	// Garbage frames must not kill the service loop — neither non-service
	// payloads nor corrupted service frames.
	net := transport.NewMemNetwork()
	svcConn, _ := net.Endpoint("svc")
	defer svcConn.Close()
	cliConn, _ := net.Endpoint("cli")
	defer cliConn.Close()

	d, _ := dataset.New("d", [][]float64{{0}, {1}, {0.1}, {0.9}}, []int{0, 1, 0, 1})
	stop := startService(t, svcConn, d, ServiceConfig{})
	defer stop()
	ctx := testCtx(t)
	if err := cliConn.Send(ctx, "svc", []byte("garbage")); err != nil {
		t.Fatal(err)
	}
	if err := cliConn.Send(ctx, "svc", []byte{serviceMagic, ServiceWireVersion, 0xff, 0x01}); err != nil {
		t.Fatal(err)
	}
	client, err := NewServiceClient(cliConn, "svc")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	label, err := client.Classify(testCtx(t), []float64{0.95})
	if err != nil {
		t.Fatal(err)
	}
	if label != 1 {
		t.Fatalf("label = %d, want 1", label)
	}
}
