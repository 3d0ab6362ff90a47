package cluster

import (
	"bytes"
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// viewGroup is a one-group fixture "g-v" on clusterLine(4) with one trust
// view per sigma, at levels 1, 2, ….
func viewGroup(t *testing.T, sigmas ...float64) []protocol.GroupSpec {
	views := make([]protocol.ViewSpec, len(sigmas))
	for i, sigma := range sigmas {
		views[i] = protocol.ViewSpec{Level: i + 1, NoiseSigma: sigma}
	}
	return []protocol.GroupSpec{{ID: "g-v", Unified: clusterLine(t, 4, 0), Model: classify.NewKNN(1), Views: views}}
}

// TestMultiViewReplication replicates a two-view trust group (levels 1 and
// 2, noise σ 0 and 0.1) from leader n1 to replica n2 over the TCP fixture:
// one refit installs both views as one sync under one sequence, the
// replica's per-view models answer exactly as the leader's do, and after a
// leader restart and its handshake floor the next refit lands both views
// again.
func TestMultiViewReplication(t *testing.T) {
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-v", Node: "n1", Replicas: []string{"n2"}}})
	if err != nil {
		t.Fatal(err)
	}
	specs := func() []protocol.GroupSpec { return viewGroup(t, 0, 0.1) }
	c := newChaos(t, table, []string{"n1", "n2"}, specs,
		func(reg *metrics.Registry) protocol.ServiceConfig {
			return protocol.ServiceConfig{RefitEvery: 4, Metrics: reg}
		}, 25*time.Millisecond, -1)
	cliConn := c.peer("cli")
	c.startAll()

	ctx := testCtx(t)
	cli, err := NewClient(ClientConfig{Conn: cliConn, Seeds: []string{"n1", "n2"},
		AttemptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	reg2 := c.nodes["n2"].registry()
	// bothViewsAt reports whether n2 installed exactly `installs` syncs, each
	// carrying both views, and returns the group's installed sequence.
	bothViewsAt := func(installs int64) (uint64, bool) {
		seq := gaugeOf(reg2, "service.g-v.sync.seq")
		return uint64(seq), counterOf(reg2, "service.g-v.sync.installs") == installs && seq > 0
	}
	// agree checks every view of n2 predicts as n1's does over a grid that
	// spans the seed and the pushed records; view 2's noisy fit is only
	// reproduced by installing the leader's blob.
	agree := func(stage string) {
		t.Helper()
		leader, err := c.nodes["n1"].current().Service().GroupViewModels("g-v")
		if err != nil {
			t.Fatal(err)
		}
		replica, err := c.nodes["n2"].current().Service().GroupViewModels("g-v")
		if err != nil {
			t.Fatal(err)
		}
		if len(leader) != 2 || len(replica) != 2 {
			t.Fatalf("%s: %d leader and %d replica views, want 2 each", stage, len(leader), len(replica))
		}
		for i := range leader {
			if leader[i].Level != replica[i].Level {
				t.Fatalf("%s: view %d levels %d vs %d", stage, i, leader[i].Level, replica[i].Level)
			}
			for x := -0.5; x < 10; x += 0.05 {
				want, err1 := leader[i].Model.Predict([]float64{x})
				got, err2 := replica[i].Model.Predict([]float64{x})
				if err1 != nil || err2 != nil || got != want {
					t.Fatalf("%s: view %d at x=%.2f: n2 = %d (%v), n1 = %d (%v)",
						stage, leader[i].Level, x, got, err2, want, err1)
				}
			}
		}
	}

	xs, ys := chunkAt(2, 50)
	if _, err := cli.Push(ctx, "g-v", xs, ys); err != nil {
		t.Fatal(err)
	}
	var first uint64
	waitFor(t, "first refit's views installed on n2 under one sequence", func() bool {
		var ok bool
		first, ok = bothViewsAt(1)
		return ok
	})
	agree("first refit")

	c.nodes["n1"].proc.Kill()
	if err := c.nodes["n1"].proc.Start(); err != nil {
		t.Fatal(err)
	}
	reg1b := c.nodes["n1"].registry()
	waitFor(t, "restarted leader handshake", func() bool {
		return counterOf(reg1b, "cluster.handshake_floors") >= 1
	})

	xs, ys = chunkAt(6, 60)
	if _, err := cli.Push(ctx, "g-v", xs, ys); err != nil {
		t.Fatal(err)
	}
	var second uint64
	waitFor(t, "post-restart refit's views installed on n2 under one sequence", func() bool {
		var ok bool
		second, ok = bothViewsAt(2)
		return ok
	})
	if second <= first {
		t.Fatalf("post-restart sequence %d, want above %d", second, first)
	}
	agree("post-restart refit")
}

// syncRig is a gossip-free in-memory cluster for one view group: leader n1
// sends through a syncSniffer, and each replica counts the sync frames its
// service accepted.
type syncRig struct {
	t        *testing.T
	sniff    *syncSniffer
	leader   *Node
	reg1     *metrics.Registry
	replicas map[string]*Node
	received map[string]*atomic.Int64
	cli      *Client

	mu     sync.Mutex
	rounds [][][]byte // the leader's fit rounds, one encoded blob per view
}

// newSyncRig starts leader n1 and the named replicas of group g-v with
// durability gossip off, so only publishes move models: a lost frame stays
// lost.
func newSyncRig(t *testing.T, replicas []string, sigmas ...float64) *syncRig {
	t.Helper()
	net := transport.NewMemNetwork()
	table, err := NewStaticTable([]protocol.RouteEntry{{Group: "g-v", Node: "n1", Replicas: replicas}})
	if err != nil {
		t.Fatal(err)
	}
	r := &syncRig{t: t, reg1: metrics.NewRegistry(),
		replicas: make(map[string]*Node), received: make(map[string]*atomic.Int64)}
	serve := func(name string, conn transport.Conn, svc protocol.ServiceConfig) *Node {
		node, err := NewNode(NodeConfig{Name: name, Conn: conn, Table: table,
			Groups: viewGroup(t, sigmas...), Service: svc, AntiEntropyEvery: -1})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := node.Serve(ctx); err != nil {
				t.Error(err)
			}
		}()
		t.Cleanup(func() {
			cancel()
			<-done
			_ = conn.Close()
		})
		return node
	}
	endpoint := func(name string) transport.Conn {
		conn, err := net.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		return conn
	}
	for _, name := range replicas {
		n := new(atomic.Int64)
		r.received[name] = n
		r.replicas[name] = serve(name, endpoint(name), protocol.ServiceConfig{RefitEvery: 4,
			OnModelSync: func(string, string, uint64) { n.Add(1) }})
	}
	r.sniff = &syncSniffer{Conn: endpoint("n1"), syncs: make(map[string][][]byte)}
	r.leader = serve("n1", r.sniff,
		protocol.ServiceConfig{RefitEvery: 4, Metrics: r.reg1, OnModelSwap: r.noteSwap})
	r.rounds = [][][]byte{r.encode(r.leader)}
	r.cli = startClient(t, net, "cli", []string{"n1"}, nil)
	return r
}

// noteSwap records the leader's refit rounds: the swap hook reports every
// view of a round in ascending level order, starting at level 1.
func (r *syncRig) noteSwap(_ string, level int, m classify.Classifier) {
	blob, err := classify.EncodeModel(m)
	if err != nil {
		r.t.Error(err)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if level == 1 {
		r.rounds = append(r.rounds, nil)
	}
	r.rounds[len(r.rounds)-1] = append(r.rounds[len(r.rounds)-1], blob)
}

// encode returns the encoded models a node serves for g-v, in level order.
func (r *syncRig) encode(n *Node) [][]byte {
	r.t.Helper()
	views, err := n.Service().GroupViewModels("g-v")
	if err != nil {
		r.t.Fatal(err)
	}
	blobs := make([][]byte, len(views))
	for i, v := range views {
		if blobs[i], err = classify.EncodeModel(v.Model); err != nil {
			r.t.Fatal(err)
		}
	}
	return blobs
}

// publish pushes one refit cadence's worth of records and waits until the
// leader has counted the refit's publish — the replica-lag gauge is back to
// zero only once every send of it has returned — and every replica has
// handled each sync frame the leader delivered to it.
func (r *syncRig) publish(base float64, label int) {
	r.t.Helper()
	xs, ys := chunkAt(base, label)
	if _, err := r.cli.Push(testCtx(r.t), "g-v", xs, ys); err != nil {
		r.t.Fatal(err)
	}
	waitFor(r.t, "publish counted and every delivered sync handled", func() bool {
		if gaugeOf(r.reg1, "cluster.replica_lag_records") != 0 {
			return false
		}
		for name, n := range r.received {
			if int(n.Load()) != len(r.sniff.sent(name)) {
				return false
			}
		}
		return true
	})
}

// servedRound returns the index of the leader fit round a replica serves
// every view of, or -1 when its views come from different rounds (or from
// no leader round at all).
func (r *syncRig) servedRound(replica string) int {
	r.t.Helper()
	got := r.encode(r.replicas[replica])
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, round := range r.rounds {
		match := len(round) == len(got)
		for v := 0; match && v < len(got); v++ {
			match = bytes.Equal(round[v], got[v])
		}
		if match {
			return i
		}
	}
	return -1
}

// TestLostSyncFrameKeepsOneFitRound loses the sync frame that carries the
// highest trust level's model for one publish, with gossip off so nothing
// repairs it. The replica must keep serving every view from one and the
// same leader fit round: a lost frame may leave it a round behind, never
// with views from two rounds.
func TestLostSyncFrameKeepsOneFitRound(t *testing.T) {
	r := newSyncRig(t, []string{"n2"}, 0, 0.1)

	r.publish(2, 50)
	if got := r.servedRound("n2"); got != 1 {
		t.Fatalf("after the first publish n2 serves round %d, want round 1", got)
	}

	// A frame naming view 1 alone does not carry view 2's model; every
	// other model-sync frame does.
	r.sniff.mu.Lock()
	r.sniff.drop = func(info protocol.FrameInfo) bool { return info.View != 1 }
	r.sniff.mu.Unlock()
	r.publish(6, 60)
	r.sniff.mu.Lock()
	dropped := r.sniff.dropped
	r.sniff.mu.Unlock()
	if dropped != 1 {
		t.Fatalf("%d sync frames dropped, want 1", dropped)
	}
	if got := r.servedRound("n2"); got < 0 {
		t.Fatalf("after a lost sync frame n2 serves its views from different fit rounds")
	}
}

// TestOneSyncFramePerReplica checks a publish of a three-view group costs
// one sync frame per replica, not one per view: two replicas, two frames,
// counted once each under cluster.sync_published, and each replica serves
// the leader's whole new round.
func TestOneSyncFramePerReplica(t *testing.T) {
	replicas := []string{"n2", "n3"}
	r := newSyncRig(t, replicas, 0, 0.1, 0.2)
	r.publish(2, 50)
	for _, name := range replicas {
		if n := len(r.sniff.sent(name)); n != 1 {
			t.Errorf("%d sync frames sent to %s for one publish, want 1", n, name)
		}
		if got := r.servedRound(name); got != 1 {
			t.Errorf("%s serves round %d, want round 1", name, got)
		}
	}
	if n := counterOf(r.reg1, "cluster.sync_published"); n != int64(len(replicas)) {
		t.Errorf("cluster.sync_published = %d, want %d", n, len(replicas))
	}
}
