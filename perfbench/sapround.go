package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/perturb"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// sapBench is sap-round: full SAP rounds, one at a time, each over a fresh
// TCP mesh of two providers, the coordinating provider and the miner, on
// normalized Shuttle split uniformly across the three parties. Every party
// optimizes its perturbation at the paper's defaults, then runs its role.
type sapBench struct {
	seed   int64
	shards []*dataset.Dataset
	total  int
	dim    int
	labels map[int]int // label multiset of the union
	rounds int         // rounds run so far, for per-round seeds
}

var sapNames = []string{"dp1", "dp2", "coord", "miner"}

func newSAP(seed int64, sz sizes) (bench, error) {
	rng := rand.New(rand.NewSource(seed))
	raw, err := dataset.GenerateByName(sz.sapDataset, rand.New(rand.NewSource(datasetSeed)))
	if err != nil {
		return nil, err
	}
	data, _, err := dataset.Normalize(raw)
	if err != nil {
		return nil, err
	}
	shards, err := dataset.Partition(data, rng, 3, dataset.PartitionUniform)
	if err != nil {
		return nil, err
	}
	b := &sapBench{seed: seed, shards: shards, total: data.Len(), dim: data.Dim(), labels: map[int]int{}}
	for _, y := range data.Y {
		b.labels[y]++
	}
	return b, nil
}

// roundStats is one round's timing.
type roundStats struct {
	setup    time.Duration // opening the round's nodes and meshing them
	total    time.Duration
	optimize []time.Duration
	exchange time.Duration         // from the last party's optimize end to the union
	local    *perturb.Perturbation // the first provider's optimized perturbation
}

// round runs one SAP round over fresh nodes and checks the union.
func (b *sapBench) round(ctx context.Context, tr *tracer) (roundStats, error) {
	var rs roundStats
	r := int64(b.rounds)
	b.rounds++
	call := int32(-1)
	if tr != nil {
		ridx := tr.endpoint("round", true, "")
		for _, n := range sapNames {
			tr.endpoint(n, false, "round")
		}
		call = tr.beginCall(ridx)
	}
	t0 := time.Now()
	nodes := make([]*transport.TCPNode, 0, len(sapNames))
	conns := map[string]transport.Conn{}
	defer func() {
		for _, n := range nodes {
			n.Close()
		}
	}()
	for _, name := range sapNames {
		n, conn, err := openNode(name, tr)
		if err != nil {
			return rs, err
		}
		nodes = append(nodes, n)
		conns[name] = conn
	}
	mesh(nodes)
	rs.setup = time.Since(t0)

	rctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	errs := make(chan error, len(b.shards))
	rs.optimize = make([]time.Duration, len(b.shards))
	optEnd := make([]time.Time, len(b.shards))
	locals := make([]*perturb.Perturbation, len(b.shards))
	var wg sync.WaitGroup
	for i := range b.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := b.party(rctx, tr, call, i, r, conns, &rs.optimize[i], &optEnd[i], &locals[i])
			if err != nil {
				cancel()
				errs <- fmt.Errorf("%s: %w", sapNames[i], err)
			}
		}(i)
	}
	miner, err := protocol.NewMiner(conns["miner"], protocol.MinerConfig{Coordinator: "coord", Parties: len(b.shards)})
	if err != nil {
		cancel()
		wg.Wait()
		return rs, err
	}
	res, merr := miner.Run(rctx)
	if merr != nil {
		cancel()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		return rs, err
	}
	if merr != nil {
		return rs, fmt.Errorf("miner: %w", merr)
	}
	end := time.Now()
	rs.total = end.Sub(t0)
	last := optEnd[0]
	for _, t := range optEnd {
		if t.After(last) {
			last = t
		}
	}
	rs.exchange = end.Sub(last)
	rs.local = locals[0]
	if tr != nil {
		tr.endCall(call, res.Unified.Len())
	}
	return rs, b.check(res.Unified)
}

// party optimizes one provider's perturbation and runs its SAP role.
func (b *sapBench) party(ctx context.Context, tr *tracer, call int32, i int, r int64, conns map[string]transport.Conn,
	opt *time.Duration, optEnd *time.Time, local **perturb.Perturbation) error {
	rng := rand.New(rand.NewSource(b.seed*104729 + r*16 + int64(i)))
	s := time.Now()
	p, _, err := privacy.NewOptimizer(privacy.OptimizerConfig{}).Optimize(rng, b.shards[i].FeaturesT())
	*optEnd = time.Now()
	*opt = optEnd.Sub(s)
	if tr != nil {
		tr.add(span{start: int64(s.Sub(tr.epoch)), end: int64(optEnd.Sub(tr.epoch)), parent: call, frame: -1,
			kind: kOptimize, node: tr.index(sapNames[i]), peer: -1})
	}
	if err != nil {
		return err
	}
	*local = p
	if sapNames[i] == "coord" {
		c, err := protocol.NewCoordinator(conns["coord"], protocol.CoordinatorConfig{
			Providers: sapNames[:2], Miner: "miner", Data: b.shards[i], Perturbation: p, Rng: rng})
		if err != nil {
			return err
		}
		return c.Run(ctx)
	}
	pr, err := protocol.NewProvider(conns[sapNames[i]], protocol.ProviderConfig{
		Coordinator: "coord", Miner: "miner", Data: b.shards[i], Perturbation: p, Rng: rng})
	if err != nil {
		return err
	}
	return pr.Run(ctx)
}

// check is the union oracle: every record arrives, in the data's
// dimension, with the same label multiset.
func (b *sapBench) check(u *dataset.Dataset) error {
	if u.Len() != b.total || u.Dim() != b.dim {
		return fmt.Errorf("unified %d x %d, want %d x %d", u.Len(), u.Dim(), b.total, b.dim)
	}
	got := map[int]int{}
	for _, y := range u.Y {
		got[y]++
	}
	for y, n := range b.labels {
		if got[y] != n {
			return fmt.Errorf("unified label %d appears %d times, want %d", y, got[y], n)
		}
	}
	return nil
}

func (b *sapBench) run(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	p := newPhase()
	var opt, exch []float64
	var local *perturb.Perturbation
	cpu0 := cpuTime()
	start := time.Now()
	for len(p.lat) == 0 || time.Since(start) < d {
		rs, err := b.round(ctx, tr)
		p.attempted++
		if err != nil {
			p.failed++
			p.notes = append(p.notes, "round failure: "+err.Error())
			if len(p.notes) > 3 {
				return nil, fmt.Errorf("repeated round failures: %w", err)
			}
			continue
		}
		at := time.Since(start)
		p.setups = append(p.setups, rs.setup)
		p.call(at, rs.total)
		p.moved(at-rs.total, at, b.total)
		for _, o := range rs.optimize {
			opt = append(opt, float64(o)/1e6)
		}
		exch = append(exch, float64(rs.exchange)/1e6)
		local = rs.local
	}
	p.wall = time.Since(start)
	p.cpu = cpuTime() - cpu0
	p.ops = int64(len(p.lat))
	p.work = p.records
	p.side["optimize_ms"] = opt
	p.side["exchange_ms"] = exch
	if tr != nil {
		b.layers(p, tr, opt, exch, local)
	}
	return p, nil
}

// layers derives sap-round's per-layer metrics.
func (b *sapBench) layers(p *phase, tr *tracer, opt, exch []float64, local *perturb.Perturbation) {
	spans := tr.snapshot()
	for k, v := range transportMetrics(tr, spans, p.records) {
		p.layer[k] = v
	}
	var sent float64
	for _, s := range spans {
		if s.kind == kSend && s.parent >= 0 {
			sent += float64(s.bytes)
		}
	}
	p.layer["privacy.optimize_ms"] = metric{mean(opt), "ms"}
	p.layer["protocol.sap_exchange_ms"] = metric{mean(exch), "ms"}
	p.layer["protocol.sap_bytes"] = metric{sent / float64(p.ops), "B"}
	x := b.shards[0].FeaturesT()
	rng := rand.New(rand.NewSource(b.seed))
	apply := timeOp(20*time.Millisecond, func() { _, _, _ = local.Apply(rng, x) })
	p.layer["perturb.apply_ms"] = metric{apply / 1e3, "ms"}
	p.notes = append(p.notes, fmt.Sprintf("perturb.Apply replay on a %d x %d shard: %.3f ms", x.Cols(), x.Rows(), apply/1e3))
}
