package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// serveBench is serve-b1 (KNN on Diabetes, single-record Classify, one
// client) and serve-b64 (KNN on Shuttle, 64-record ClassifyBatch, one
// client per CPU up to two): closed-loop clients against
// protocol.NewMiningService.
type serveBench struct {
	seed    int64
	batch   int
	reps    int
	data    *dataset.Dataset
	pools   [][][]float64 // per client: query rows, batch-aligned
	want    [][]int       // per client: the oracle's label for each row
	clients int
}

func newServe(seed int64, batch, clients int, sz sizes) (bench, error) {
	name := "Diabetes"
	if batch > 1 {
		name = "Shuttle"
	}
	rng := rand.New(rand.NewSource(seed))
	raw, err := dataset.GenerateByName(name, rand.New(rand.NewSource(datasetSeed)))
	if err != nil {
		return nil, err
	}
	data, _, err := dataset.Normalize(raw)
	if err != nil {
		return nil, err
	}
	// The oracle: a local KNN fitted on the same data.
	oracle := classify.NewKNN(5)
	if err := oracle.Fit(data); err != nil {
		return nil, err
	}
	b := &serveBench{seed: seed, batch: batch, reps: sz.setupReps, data: data, clients: clients}
	rows := max(batch, sz.queries/batch*batch)
	for c := 0; c < b.clients; c++ {
		pool := jitteredRows(rng, data, rows, 0.05)
		want := make([]int, rows)
		for i, r := range pool {
			if want[i], err = oracle.Predict(r); err != nil {
				return nil, err
			}
		}
		b.pools = append(b.pools, pool)
		b.want = append(b.want, want)
	}
	return b, nil
}

// jitteredRows draws n records of d with Gaussian jitter, so queries are
// new points near the data.
func jitteredRows(rng *rand.Rand, d *dataset.Dataset, n int, sigma float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		src := d.X[rng.Intn(d.Len())]
		row := make([]float64, len(src))
		for j, v := range src {
			row[j] = v + sigma*rng.NormFloat64()
		}
		out[i] = row
	}
	return out
}

// serveStack is one running service with its clients.
type serveStack struct {
	nodes  []*transport.TCPNode
	scs    []*protocol.ServiceClient
	model  *classify.KNN
	cancel context.CancelFunc
	served chan error
}

func (s *serveStack) close() error {
	for _, sc := range s.scs {
		sc.Close()
	}
	var err error
	if s.cancel != nil {
		s.cancel()
		err = <-s.served
	}
	for _, n := range s.nodes {
		n.Close()
	}
	return err
}

// openNode opens one TCP endpoint; with a tracer its codec and conn are
// wrapped in timing shims.
func openNode(name string, tr *tracer) (*transport.TCPNode, transport.Conn, error) {
	aes, err := transport.NewAESCodec(sessionKey)
	if err != nil {
		return nil, nil, err
	}
	var codec transport.Codec = aes
	idx := int16(-1)
	if tr != nil {
		idx = tr.index(name)
		codec = &tracedCodec{inner: aes, tr: tr, node: idx}
	}
	n, err := transport.NewTCPNode(name, "127.0.0.1:0", codec)
	if err != nil {
		return nil, nil, err
	}
	if tr != nil {
		return n, &tracedConn{Conn: n, tr: tr, node: idx}, nil
	}
	return n, n, nil
}

// mesh makes every node reachable from every other.
func mesh(nodes []*transport.TCPNode) {
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.AddPeer(b.Name(), b.Addr())
			}
		}
	}
}

func clientName(c int) string { return fmt.Sprintf("cli%d", c) }

func (b *serveBench) start(ctx context.Context, tr *tracer) (*serveStack, error) {
	if tr != nil {
		tr.endpoint("miner", false, "")
		for c := 0; c < b.clients; c++ {
			idx := tr.endpoint(clientName(c), true, "")
			for _, r := range b.pools[c] {
				tr.rows[rowKey(r)] = idx
			}
		}
	}
	st := &serveStack{served: make(chan error, 1)}
	fail := func(err error) (*serveStack, error) {
		st.close()
		return nil, err
	}
	srv, srvConn, err := openNode("miner", tr)
	if err != nil {
		return fail(err)
	}
	st.nodes = append(st.nodes, srv)
	conns := make([]transport.Conn, b.clients)
	for c := range conns {
		n, conn, err := openNode(clientName(c), tr)
		if err != nil {
			return fail(err)
		}
		st.nodes = append(st.nodes, n)
		conns[c] = conn
	}
	mesh(st.nodes)
	st.model = classify.NewKNN(5)
	var model classify.Classifier = st.model
	if tr != nil {
		model = &timedModel{inner: st.model, tr: tr, node: tr.index("miner")}
	}
	svc, err := protocol.NewMiningService(srvConn, &protocol.MinerResult{Unified: b.data.Clone()}, model,
		protocol.ServiceConfig{Workers: 2})
	if err != nil {
		return fail(err)
	}
	sctx, cancel := context.WithCancel(ctx)
	st.cancel = cancel
	go func() { st.served <- svc.Serve(sctx) }()
	for _, conn := range conns {
		sc, err := protocol.NewServiceClient(conn, "miner")
		if err != nil {
			return fail(err)
		}
		st.scs = append(st.scs, sc)
	}
	return st, nil
}

// call runs client c's query batch i and checks the answer.
func (b *serveBench) call(ctx context.Context, sc *protocol.ServiceClient, c, i int) error {
	rows := b.pools[c][i*b.batch : (i+1)*b.batch]
	var labels []int
	if b.batch == 1 {
		l, err := sc.Classify(ctx, rows[0])
		if err != nil {
			return err
		}
		labels = []int{l}
	} else {
		var err error
		if labels, err = sc.ClassifyBatch(ctx, rows); err != nil {
			return err
		}
	}
	for j, l := range labels {
		if want := b.want[c][i*b.batch+j]; l != want {
			return fmt.Errorf("record %d: served label %d, oracle %d", i*b.batch+j, l, want)
		}
	}
	return nil
}

func (b *serveBench) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	p := newPhase()
	reps := b.reps
	if tr != nil {
		reps = 1
	}
	var st *serveStack
	for r := 0; r < reps; r++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		if st, err = b.start(ctx, tr); err != nil {
			return nil, err
		}
		for c, sc := range st.scs {
			if err := b.call(ctx, sc, c, 0); err != nil {
				st.close()
				return nil, fmt.Errorf("first call: %w", err)
			}
		}
		p.setups = append(p.setups, time.Since(t0))
	}

	// Per-call samples are kept as float32 seconds and milliseconds, sized
	// up front, so the benchmark's own bookkeeping stays a small, flat part
	// of the heap it measures.
	type tallies struct {
		at, lat           []float32
		attempted, failed int64
		firstErr          error
		end               time.Time
	}
	res := make([]tallies, b.clients)
	for c := range res {
		n := int(d.Seconds()*2000)/b.batch + 64
		res[c].at, res[c].lat = make([]float32, 0, n), make([]float32, 0, n)
	}
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &res[c]
			rng := rand.New(rand.NewSource(b.seed*7919 + int64(c)))
			batches := len(b.pools[c]) / b.batch
			idx := int16(-1)
			if tr != nil {
				idx = tr.index(clientName(c))
			}
			for time.Now().Before(deadline) {
				i := rng.Intn(batches)
				var call int32
				if tr != nil {
					call = tr.beginCall(idx)
				}
				t0 := time.Now()
				err := b.call(ctx, st.scs[c], c, i)
				t1 := time.Now()
				if tr != nil {
					tr.endCall(call, b.batch)
				}
				t.attempted++
				if err != nil {
					t.failed++
					if t.firstErr == nil {
						t.firstErr = err
					}
					continue
				}
				t.at = append(t.at, float32(t1.Sub(start).Seconds()))
				t.lat = append(t.lat, float32(t1.Sub(t0).Seconds()*1e3))
			}
			t.end = time.Now()
		}(c)
	}
	wg.Wait()
	p.cpu = cpuTime() - cpu0
	total := 0
	for _, t := range res {
		total += len(t.lat)
	}
	p.reserve(total)
	for _, t := range res {
		for i := range t.lat {
			at, lat := time.Duration(float64(t.at[i])*1e9), time.Duration(float64(t.lat[i])*1e6)
			p.call(at, lat)
			p.moved(at-lat, at, b.batch)
		}
		p.attempted += t.attempted
		p.failed += t.failed
		if t.end.Sub(start) > p.wall {
			p.wall = t.end.Sub(start)
		}
		if t.firstErr != nil {
			p.notes = append(p.notes, "first failure: "+t.firstErr.Error())
		}
	}
	p.ops = int64(len(p.lat))
	p.work = p.records
	if tr != nil {
		if err := b.layers(p, tr, st); err != nil {
			st.close()
			return nil, err
		}
	}
	return p, st.close()
}

// layers derives the serve workloads' per-layer metrics from the spans.
func (b *serveBench) layers(p *phase, tr *tracer, st *serveStack) error {
	spans := tr.snapshot()
	for k, v := range transportMetrics(tr, spans, p.records) {
		p.layer[k] = v
	}
	clients := map[int16]bool{}
	for c := 0; c < b.clients; c++ {
		clients[tr.index(clientName(c))] = true
	}
	calls, skipped := breakdown(spans, clients)
	stageReport(p, "classify call stages", calls, skipped)
	for k, v := range protocolMetrics(calls) {
		p.layer[k] = v
	}
	var predict, fit []float64
	for _, s := range spans {
		switch s.kind {
		case kPredict:
			predict = append(predict, float64(s.end-s.start)/1e3)
		case kFit:
			fit = append(fit, float64(s.end-s.start)/1e6)
		}
	}
	p.layer["classify.predict_us"] = metric{mean(predict), "us"}
	p.layer["classify.fit_ms"] = metric{mean(fit), "ms"}
	if err := frameReplay(p, tr); err != nil {
		return err
	}
	return modelReplay(p, st.model)
}
