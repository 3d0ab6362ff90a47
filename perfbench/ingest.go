package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// ingestBench is ingest-replicate: a leader and one read replica
// (cluster.Node, static table) serving KNN(5) on Diabetes. One
// cluster.Client pushes a fixed count of 16-record chunks per episode while
// a second classifies one single record per push against the same group,
// beside the pushes. Each episode builds a fresh cluster, so every episode
// grows the training set (and with it refit cost and sync-frame size) over
// the same range.
type ingestBench struct {
	seed     int64
	initial  *dataset.Dataset
	reads    [][]float64
	chunks   int
	classes  int
	episodes int // episodes run so far, for per-episode input seeds
}

const (
	ingestGroup = "g"
	chunkSize   = 16
	refitEvery  = 1024
	// syncFrameMin tells model-sync frames apart from gossip on the
	// leader-to-replica link: a sync carries the whole training set (over
	// 50 kB for Diabetes), gossip frames are a few hundred bytes.
	syncFrameMin = 8 << 10
)

func newIngest(seed int64, sz sizes) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	raw, err := dataset.GenerateByName("Diabetes", rand.New(rand.NewSource(datasetSeed)))
	if err != nil {
		return nil, err
	}
	data, _, err := dataset.Normalize(raw)
	if err != nil {
		return nil, err
	}
	return &ingestBench{seed: seed, initial: data, reads: jitteredRows(rng, data, 1024, 0.05),
		chunks: sz.chunks, classes: data.NumClasses()}, nil
}

// ingestStack is one running two-node group with its two clients.
type ingestStack struct {
	tcp            []*transport.TCPNode
	nodes          map[string]*cluster.Node
	regs           map[string]*metrics.Registry // per endpoint: nodes and clients
	writer, reader *cluster.Client
	cancel         context.CancelFunc
	wg             sync.WaitGroup
}

func (s *ingestStack) close() {
	if s.writer != nil {
		s.writer.Close()
	}
	if s.reader != nil {
		s.reader.Close()
	}
	if s.cancel != nil {
		s.cancel()
	}
	s.wg.Wait()
	for _, n := range s.tcp {
		n.Close()
	}
}

func (b *ingestBench) start(ctx context.Context, tr *tracer) (*ingestStack, error) {
	names := []string{"n1", "n2", "writer", "reader"}
	if tr != nil {
		for i, n := range names {
			tr.endpoint(n, i >= 2, "")
		}
	}
	st := &ingestStack{nodes: map[string]*cluster.Node{}, regs: map[string]*metrics.Registry{}}
	conns := map[string]transport.Conn{}
	for _, n := range names {
		tcp, conn, err := openNode(n, tr)
		if err != nil {
			st.close()
			return nil, err
		}
		st.tcp = append(st.tcp, tcp)
		conns[n] = conn
		st.regs[n] = metrics.NewRegistry()
	}
	mesh(st.tcp)
	table, err := cluster.NewStaticTable([]protocol.RouteEntry{{Group: ingestGroup, Node: "n1", Replicas: []string{"n2"}}})
	if err != nil {
		st.close()
		return nil, err
	}
	nctx, cancel := context.WithCancel(ctx)
	st.cancel = cancel
	for _, n := range names[:2] {
		cfg := protocol.ServiceConfig{Workers: 2, RefitEvery: refitEvery, Metrics: st.regs[n]}
		if tr != nil {
			idx := tr.index(n)
			cfg.Metrics = eventSink{Registry: st.regs[n], tr: tr, node: idx}
			cfg.OnModelSwap = func(string, int, classify.Classifier) { tr.instant(kSwap, idx, 0) }
			cfg.OnModelSync = func(_, _ string, seq uint64) { tr.instant(kInstall, idx, int64(seq)) }
		}
		node, err := cluster.NewNode(cluster.NodeConfig{Name: n, Conn: conns[n], Table: table,
			Groups:  []protocol.GroupSpec{{ID: ingestGroup, Unified: b.initial.Clone(), Model: classify.NewKNN(5)}},
			Service: cfg})
		if err != nil {
			st.close()
			return nil, err
		}
		st.nodes[n] = node
		st.wg.Add(1)
		go func() {
			defer st.wg.Done()
			_ = node.Serve(nctx) // a serve error surfaces as failed calls and the oracle
		}()
	}
	for _, n := range names[2:] {
		c, err := cluster.NewClient(cluster.ClientConfig{Conn: conns[n], Seeds: []string{"n1", "n2"}, Metrics: st.regs[n]})
		if err != nil {
			st.close()
			return nil, err
		}
		if n == "writer" {
			st.writer = c
		} else {
			st.reader = c
		}
	}
	return st, nil
}

// episodeInputs draws one episode's chunks from the seed.
func (b *ingestBench) episodeInputs(e int) ([][][]float64, [][]int) {
	rng := rand.New(rand.NewSource(b.seed*1000003 + int64(e)))
	xs := make([][][]float64, b.chunks)
	ys := make([][]int, b.chunks)
	for i := range xs {
		xs[i] = make([][]float64, chunkSize)
		ys[i] = make([]int, chunkSize)
		for j := range xs[i] {
			k := rng.Intn(b.initial.Len())
			row := make([]float64, b.initial.Dim())
			for f, v := range b.initial.X[k] {
				row[f] = v + 0.05*rng.NormFloat64()
			}
			xs[i][j], ys[i][j] = row, b.initial.Y[k]
		}
	}
	return xs, ys
}

// episodeStats carries what the traced per-layer metrics need.
type episodeStats struct {
	from, to   int64 // tracer time range
	refits     int64
	refitNanos int64
	misses     int64
	failovers  int64
	model      classify.Classifier
}

func (b *ingestBench) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	p := newPhase()
	p.reserve(int(d.Seconds() * 1000))
	p.side["push_ms"] = make([]float64, 0, int(d.Seconds()*1000)+64)
	deadline := time.Now().Add(d)
	var eps []episodeStats
	for len(eps) == 0 || time.Now().Before(deadline) {
		es, err := b.episode(ctx, p, tr)
		if err != nil {
			return nil, err
		}
		eps = append(eps, es)
	}
	p.notes = append(p.notes, fmt.Sprintf("%d episodes of %d chunks x %d records", len(eps), b.chunks, chunkSize))
	if tr != nil {
		if err := b.layers(p, tr, eps); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// episode runs one fresh cluster through a fixed count of pushes with a
// concurrent reader, then checks the oracle.
func (b *ingestBench) episode(ctx context.Context, p *phase, tr *tracer) (episodeStats, error) {
	var es episodeStats
	xs, ys := b.episodeInputs(b.episodes)
	b.episodes++
	rng := rand.New(rand.NewSource(b.seed*7919 + int64(b.episodes)))
	if tr != nil {
		es.from = tr.now()
	}
	t0 := time.Now()
	st, err := b.start(ctx, tr)
	if err != nil {
		return es, err
	}
	defer st.close()
	size, err := st.writer.Push(ctx, ingestGroup, xs[0], ys[0])
	if err != nil {
		return es, fmt.Errorf("first push: %w", err)
	}
	if _, err := b.read(ctx, st.reader, b.reads[0]); err != nil {
		return es, fmt.Errorf("first read: %w", err)
	}
	p.setups = append(p.setups, time.Since(t0))
	acked := int64(chunkSize)

	// Calls land on the phase's measured axis: earlier episodes' measured
	// windows laid end to end.
	offset := p.wall
	cpu0 := cpuTime()
	wstart := time.Now()
	readAt := make([]time.Duration, 0, b.chunks)
	readLat := make([]time.Duration, 0, b.chunks)
	var readAttempted, readFailed int64
	var readErr error
	// The reader classifies one record per push, as the pushes go out: its
	// calls overlap the ingest and the refits, and every episode does the
	// same work however the host's speed shifts the two loops against each
	// other.
	ticks := make(chan struct{}, b.chunks)
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		idx := int16(-1)
		if tr != nil {
			idx = tr.index("reader")
		}
		for range ticks {
			row := b.reads[rng.Intn(len(b.reads))]
			var call int32
			if tr != nil {
				call = tr.beginCall(idx)
			}
			t := time.Now()
			_, err := b.read(ctx, st.reader, row)
			end := time.Now()
			if tr != nil {
				tr.endCall(call, 1)
			}
			readAttempted++
			if err != nil {
				readFailed++
				if readErr == nil {
					readErr = err
				}
				continue
			}
			readAt = append(readAt, offset+end.Sub(wstart))
			readLat = append(readLat, end.Sub(t))
		}
	}()

	widx := int16(-1)
	if tr != nil {
		widx = tr.index("writer")
	}
	var pushErr error
	for i := 1; i < len(xs); i++ {
		ticks <- struct{}{}
		var call int32
		if tr != nil {
			call = tr.beginCall(widx)
		}
		t := time.Now()
		n, err := st.writer.Push(ctx, ingestGroup, xs[i], ys[i])
		end := time.Now()
		if tr != nil {
			tr.endCall(call, chunkSize)
		}
		p.attempted++
		if err != nil {
			p.failed++
			if pushErr == nil {
				pushErr = err
			}
			continue
		}
		acked += chunkSize
		size = n
		p.moved(offset+t.Sub(wstart), offset+end.Sub(wstart), chunkSize)
		p.ops++
		p.side["push_ms"] = append(p.side["push_ms"], float64(end.Sub(t))/1e6)
	}
	close(ticks)
	rwg.Wait()
	p.cpu += cpuTime() - cpu0
	p.wall += time.Since(wstart)
	p.work += acked - chunkSize + int64(len(readLat)) // the first push belongs to the set-up
	for i := range readLat {
		p.call(readAt[i], readLat[i])
	}
	p.attempted += readAttempted
	p.failed += readFailed
	p.ops += int64(len(readLat))
	for _, err := range []error{pushErr, readErr} {
		if err != nil {
			p.notes = append(p.notes, "first failure: "+err.Error())
		}
	}

	// Oracle: the leader ingested every acknowledged record and its training
	// set is the initial set plus those records; the replica converges on
	// the leader's sequence and model.
	if n, err := st.nodes["n1"].Service().GroupIngested(ingestGroup); err != nil || int64(n) != acked {
		p.oracle = append(p.oracle, fmt.Sprintf("leader ingested %d (%v), want the %d acknowledged", n, err, acked))
	}
	if want := int64(b.initial.Len()) + acked; int64(size) != want {
		p.oracle = append(p.oracle, fmt.Sprintf("leader training set %d after the last push, want %d initial + %d acknowledged",
			size, b.initial.Len(), acked))
	}
	model, err := b.converge(ctx, st)
	if err != nil {
		p.oracle = append(p.oracle, err.Error())
	}
	if tr != nil {
		es.to = tr.now()
		lsnap := st.regs["n1"].Snapshot()
		es.refits = lsnap.Counters["service."+ingestGroup+".refit.count"]
		es.refitNanos = lsnap.Histograms["service."+ingestGroup+".refit.ns"].Sum
		for _, c := range []string{"writer", "reader"} {
			cs := st.regs[c].Snapshot()
			es.misses += cs.Counters["cluster.route_misses"]
			es.failovers += cs.Counters["cluster.failovers"]
		}
		es.model = model
	}
	return es, nil
}

// read classifies one record through the cluster and checks the label is
// one of the training set's classes. The served model changes under the
// reader with every refit, so no fixed oracle label exists.
func (b *ingestBench) read(ctx context.Context, c *cluster.Client, row []float64) (int, error) {
	l, err := c.Classify(ctx, ingestGroup, row)
	if err != nil {
		return 0, err
	}
	if l < 0 || l >= b.classes {
		return 0, fmt.Errorf("label %d outside the %d training classes", l, b.classes)
	}
	return l, nil
}

// converge waits until the replica has installed every sequence the leader
// published and serves a model identical to the leader's.
func (b *ingestBench) converge(ctx context.Context, st *ingestStack) (classify.Classifier, error) {
	leader, replica := st.nodes["n1"].Service(), st.nodes["n2"].Service()
	ns := "service." + ingestGroup + "."
	deadline := time.Now().Add(20 * time.Second)
	var why string
	for time.Now().Before(deadline) && ctx.Err() == nil {
		time.Sleep(10 * time.Millisecond)
		snap := st.regs["n1"].Snapshot()
		published := uint64(snap.Counters["cluster.sync_published"])
		seq, err := replica.GroupSyncSeq(ingestGroup)
		if err != nil {
			return nil, err
		}
		if snap.Gauges[ns+"refit.inflight"] != 0 || seq != published || published == 0 {
			why = fmt.Sprintf("replica seq %d, leader published %d", seq, published)
			continue
		}
		lm, err := leader.GroupModel(ingestGroup)
		if err != nil {
			return nil, err
		}
		rm, err := replica.GroupModel(ingestGroup)
		if err != nil {
			return nil, err
		}
		lb, lerr := classify.EncodeModel(lm)
		rb, rerr := classify.EncodeModel(rm)
		if lerr == nil && rerr == nil && bytes.Equal(lb, rb) {
			return lm, nil
		}
		why = fmt.Sprintf("replica seq %d matches but models differ (%v, %v)", seq, lerr, rerr)
	}
	return nil, fmt.Errorf("replica did not converge on the leader: %s", why)
}

// layers derives ingest-replicate's per-layer metrics.
func (b *ingestBench) layers(p *phase, tr *tracer, eps []episodeStats) error {
	spans := tr.snapshot()
	for k, v := range transportMetrics(tr, spans, p.records) {
		p.layer[k] = v
	}
	reads, skipped := breakdown(spans, map[int16]bool{tr.index("reader"): true})
	stageReport(p, "reader classify stages (service self includes predict)", reads, skipped)
	for k, v := range protocolMetrics(reads) {
		p.layer[k] = v
	}
	pushes, skipped := breakdown(spans, map[int16]bool{tr.index("writer"): true})
	stageReport(p, "writer push stages", pushes, skipped)

	n1, n2 := tr.index("n1"), tr.index("n2")
	var lags, syncBytes []float64
	var swaps, installs int
	var refits, refitNanos, misses, failovers int64
	for _, es := range eps {
		refits += es.refits
		refitNanos += es.refitNanos
		misses += es.misses
		failovers += es.failovers
		var swapT, pubT []int64
		type inst struct{ t, seq int64 }
		var ins []inst
		for _, s := range spans {
			if s.start < es.from || s.start > es.to {
				continue
			}
			switch {
			case s.kind == kSwap && s.node == n1:
				swapT = append(swapT, s.start)
			case s.kind == kPublish && s.node == n1:
				pubT = append(pubT, s.start)
			case s.kind == kInstall && s.node == n2:
				ins = append(ins, inst{s.start, s.bytes})
			case s.kind == kSend && s.node == n1 && s.peer == n2 && s.bytes >= syncFrameMin:
				syncBytes = append(syncBytes, float64(s.bytes))
			}
		}
		swaps += len(swapT)
		installs += len(ins)
		// The model published as seq s is the latest swap before the s-th
		// publish; its lag ends when the replica installs seq s.
		for _, in := range ins {
			if in.seq < 1 || int(in.seq) > len(pubT) {
				continue
			}
			pub := pubT[in.seq-1]
			i := sort.Search(len(swapT), func(i int) bool { return swapT[i] > pub }) - 1
			if i >= 0 {
				lags = append(lags, float64(in.t-swapT[i])/1e6)
			}
		}
	}
	n := float64(len(eps))
	p.layer["cluster.sync_lag_ms"] = metric{pctl(lags, 0.5), "ms"}
	if swaps > 0 {
		p.layer["cluster.installs_per_swap"] = metric{float64(installs) / float64(swaps), "ratio"}
	}
	p.layer["cluster.sync_frame_bytes"] = metric{mean(syncBytes), "B"}
	p.layer["cluster.route_misses"] = metric{float64(misses), "count"}
	p.layer["cluster.failovers"] = metric{float64(failovers), "count"}
	p.layer["classify.refits"] = metric{float64(refits) / n, "count"}
	if refits > 0 {
		p.layer["classify.fit_ms"] = metric{float64(refitNanos) / float64(refits) / 1e6, "ms"}
	}
	p.notes = append(p.notes, fmt.Sprintf("replication: %d swaps, %d installs, sync lag p50 %.2f ms p90 %.2f ms (n=%d), %d refits per episode",
		swaps, installs, pctl(lags, 0.5), pctl(lags, 0.9), len(lags), refits/int64(len(eps))))

	// Replays on the last episode's final model.
	final := eps[len(eps)-1].model
	if final == nil {
		return fmt.Errorf("no converged model to replay")
	}
	rows := b.reads[:64]
	pred := timeOp(20*time.Millisecond, func() {
		for _, r := range rows {
			_, _ = final.Predict(r)
		}
	}) / float64(len(rows))
	p.layer["classify.predict_us"] = metric{pred, "us"}
	p.notes = append(p.notes, fmt.Sprintf("predict replay on the final model: %.2f us per record", pred))
	if err := frameReplay(p, tr); err != nil {
		return err
	}
	return modelReplay(p, final)
}
