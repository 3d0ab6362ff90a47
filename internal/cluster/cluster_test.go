package cluster

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
)

func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// clusterLine is a 1-D training set with one record per label, offset so
// groups answer from disjoint label ranges.
func clusterLine(t *testing.T, n, offset int) *dataset.Dataset {
	t.Helper()
	x := make([][]float64, n)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		x[i] = []float64{float64(i) / float64(n)}
		y[i] = offset + i
	}
	d, err := dataset.New("line", x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// twoGroupSpecs is the shared fixture group list: g-a answers labels 0..3,
// g-b answers 100..103.
func twoGroupSpecs(t *testing.T) []protocol.GroupSpec {
	t.Helper()
	return []protocol.GroupSpec{
		{ID: "g-a", Unified: clusterLine(t, 4, 0), Model: classify.NewKNN(1)},
		{ID: "g-b", Unified: clusterLine(t, 4, 100), Model: classify.NewKNN(1)},
	}
}

// startNode builds and serves one cluster node until the returned stop is
// called (which also closes the conn, simulating the process going away).
func startNode(t *testing.T, net *transport.MemNetwork, name string, table *Table,
	groups []protocol.GroupSpec, cfg protocol.ServiceConfig) (*Node, func()) {
	t.Helper()
	conn, err := net.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	node, err := NewNode(NodeConfig{Name: name, Conn: conn, Table: table, Groups: groups, Service: cfg})
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
	stopped := false
	stop := func() {
		if stopped {
			return
		}
		stopped = true
		cancel()
		<-done
		_ = conn.Close()
	}
	t.Cleanup(stop)
	return node, stop
}

// startClient connects a cluster client on its own endpoint.
func startClient(t *testing.T, net *transport.MemNetwork, name string, seeds []string,
	reg *metrics.Registry) *Client {
	t.Helper()
	conn, err := net.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	var m metrics.Metrics
	if reg != nil {
		m = reg
	}
	cli, err := NewClient(ClientConfig{Conn: conn, Seeds: seeds, Metrics: m,
		AttemptTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	return cli
}

// waitFor polls cond until it holds or the test deadline passes.
func waitFor(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", desc)
}

func counterOf(reg *metrics.Registry, name string) int64 { return reg.Snapshot().Counters[name] }

// TestNodeRoles checks NewNode partitions the shared group list by the
// table: leader rows host refitting shards, replica rows host following
// shards, and misconfigurations are refused.
func TestNodeRoles(t *testing.T) {
	net := transport.NewMemNetwork()
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2"}},
		{Group: "g-b", Node: "n2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	conn, _ := net.Endpoint("roles")

	n1, err := NewNode(NodeConfig{Name: "n1", Conn: conn, Table: table, Groups: twoGroupSpecs(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n1.Leads(), []string{"g-a"}) || len(n1.Follows()) != 0 {
		t.Fatalf("n1 leads %v follows %v, want [g-a] []", n1.Leads(), n1.Follows())
	}
	n2, err := NewNode(NodeConfig{Name: "n2", Conn: conn, Table: table, Groups: twoGroupSpecs(t)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(n2.Leads(), []string{"g-b"}) || !reflect.DeepEqual(n2.Follows(), []string{"g-a"}) {
		t.Fatalf("n2 leads %v follows %v, want [g-b] [g-a]", n2.Leads(), n2.Follows())
	}

	if _, err := NewNode(NodeConfig{Name: "n3", Conn: conn, Table: table, Groups: twoGroupSpecs(t)}); !errors.Is(err, ErrNoGroups) {
		t.Fatalf("unrouted node err = %v, want ErrNoGroups", err)
	}
	preset := twoGroupSpecs(t)
	preset[0].SyncFrom = "other"
	if _, err := NewNode(NodeConfig{Name: "n1", Conn: conn, Table: table, Groups: preset}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("preset SyncFrom err = %v, want ErrBadNode", err)
	}
	orphan := []protocol.GroupSpec{{ID: "g-x", Unified: clusterLine(t, 4, 0), Model: classify.NewKNN(1)}}
	if _, err := NewNode(NodeConfig{Name: "n1", Conn: conn, Table: table, Groups: orphan}); !errors.Is(err, ErrBadNode) {
		t.Fatalf("rowless group err = %v, want ErrBadNode", err)
	}
	for name, cfg := range map[string]NodeConfig{
		"no name":   {Conn: conn, Table: table, Groups: twoGroupSpecs(t)},
		"no conn":   {Name: "n1", Table: table, Groups: twoGroupSpecs(t)},
		"no table":  {Name: "n1", Conn: conn, Groups: twoGroupSpecs(t)},
		"no groups": {Name: "n1", Conn: conn, Table: table},
	} {
		if _, err := NewNode(cfg); !errors.Is(err, ErrBadNode) {
			t.Errorf("%s: err = %v, want ErrBadNode", name, err)
		}
	}
}

// TestClusterReplicationConvergence is the replication e2e: a leader refit
// reaches the follower within one replication round, after which both nodes
// answer with the same refreshed model, and the replica-lag gauge returns
// to zero.
func TestClusterReplicationConvergence(t *testing.T) {
	net := transport.NewMemNetwork()
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg1, reg2 := metrics.NewRegistry(), metrics.NewRegistry()
	specs := []protocol.GroupSpec{
		{ID: "g-a", Unified: clusterLine(t, 4, 0), Model: classify.NewKNN(1)}}
	startNode(t, net, "n1", table, specs, protocol.ServiceConfig{RefitEvery: 4, Metrics: reg1})
	startNode(t, net, "n2", table, specs, protocol.ServiceConfig{RefitEvery: 4, Metrics: reg2})

	probeConn, _ := net.Endpoint("probe")
	probe, err := protocol.NewServiceClient(probeConn, "n1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = probe.Close() })
	ctx := testCtx(t)

	// Both nodes serve the seed fit: the nearest record to x=10 is x=0.75,
	// label 3.
	for _, node := range []string{"n1", "n2"} {
		got, err := probe.ClassifyBatchAt(ctx, node, "g-a", [][]float64{{10}})
		if err != nil || got[0] != 3 {
			t.Fatalf("seed classify at %s = %v, %v; want [3]", node, got, err)
		}
	}

	// Push a refit cadence's worth of records to the right of the probe
	// point: after the refit, x=10 resolves to the new records' labels.
	cli := startClient(t, net, "cli", []string{"n1"}, nil)
	chunk := [][]float64{{2}, {3}, {4}, {5}}
	if _, err := cli.Push(ctx, "g-a", chunk, []int{50, 51, 52, 53}); err != nil {
		t.Fatal(err)
	}

	// One replication round: the leader refits, swaps, publishes; the
	// follower installs.
	waitFor(t, "follower model install", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") >= 1
	})
	for _, node := range []string{"n1", "n2"} {
		got, err := probe.ClassifyBatchAt(ctx, node, "g-a", [][]float64{{10}})
		if err != nil || got[0] != 53 {
			t.Fatalf("post-refit classify at %s = %v, %v; want [53]", node, got, err)
		}
	}
	// The follower can install the publish before the leader's send has
	// returned and counted it; wait for the count before checking it.
	waitFor(t, "leader counts the publish", func() bool {
		return counterOf(reg1, "cluster.sync_published")+counterOf(reg1, "cluster.sync_errors") >= 1
	})
	if n := counterOf(reg1, "cluster.sync_published"); n != 1 {
		t.Fatalf("cluster.sync_published = %d, want 1", n)
	}
	if n := counterOf(reg1, "cluster.sync_errors"); n != 0 {
		t.Fatalf("cluster.sync_errors = %d, want 0", n)
	}
	if lag := reg1.Snapshot().Gauges["cluster.replica_lag_records"]; lag != 0 {
		t.Fatalf("cluster.replica_lag_records = %d after convergence, want 0", lag)
	}
}

// TestClientRouting checks the cluster client sends each group's traffic to
// its assigned nodes: ingest to the leader only, reads rotating over leader
// and replica — and that a directly mis-addressed node still answers
// ErrUnknownGroup.
func TestClientRouting(t *testing.T) {
	net := transport.NewMemNetwork()
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2"}},
		{Group: "g-b", Node: "n2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	reg1, reg2 := metrics.NewRegistry(), metrics.NewRegistry()
	n1, _ := startNode(t, net, "n1", table, twoGroupSpecs(t), protocol.ServiceConfig{Metrics: reg1})
	n2, _ := startNode(t, net, "n2", table, twoGroupSpecs(t), protocol.ServiceConfig{Metrics: reg2})

	ctx := testCtx(t)
	cli := startClient(t, net, "cli", []string{"n1"}, nil)

	// Ingest follows leadership: g-b's leader is n2 even though the client
	// seeded from n1.
	if _, err := cli.Push(ctx, "g-b", [][]float64{{0.1}, {0.2}}, []int{100, 100}); err != nil {
		t.Fatal(err)
	}
	if got, _ := n2.Service().GroupIngested("g-b"); got != 2 {
		t.Fatalf("g-b ingest landed on %d records at n2, want 2", got)
	}
	if got, _ := n1.Service().GroupIngested("g-a"); got != 0 {
		t.Fatalf("n1 g-a ingested %d before any push", got)
	}

	// Reads rotate: two classifies of g-a land one on the leader, one on the
	// replica.
	for i := 0; i < 2; i++ {
		got, err := cli.ClassifyBatch(ctx, "g-a", [][]float64{{0}})
		if err != nil || got[0] != 0 {
			t.Fatalf("classify %d = %v, %v; want [0]", i, got, err)
		}
	}
	if a, b := counterOf(reg1, "service.g-a.requests"), counterOf(reg2, "service.g-a.requests"); a != 1 || b != 1 {
		t.Fatalf("read rotation sent %d to leader, %d to replica; want 1 and 1", a, b)
	}

	// A group addressed at the wrong node is refused, not silently served.
	probeConn, _ := net.Endpoint("probe")
	probe, err := protocol.NewServiceClient(probeConn, "n1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = probe.Close() })
	if _, err := probe.ClassifyBatchAt(ctx, "n1", "g-b", [][]float64{{0}}); !errors.Is(err, protocol.ErrUnknownGroup) {
		t.Fatalf("wrong-node classify err = %v, want ErrUnknownGroup", err)
	}
}

// TestClientFollowerFailover downs the read replica and checks classify
// degrades to leader-only serving with no caller-visible errors.
func TestClientFollowerFailover(t *testing.T) {
	net := transport.NewMemNetwork()
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []protocol.GroupSpec{
		{ID: "g-a", Unified: clusterLine(t, 4, 0), Model: classify.NewKNN(1)}}
	startNode(t, net, "n1", table, specs, protocol.ServiceConfig{})
	_, stop2 := startNode(t, net, "n2", table, specs, protocol.ServiceConfig{})

	ctx := testCtx(t)
	clireg := metrics.NewRegistry()
	cli := startClient(t, net, "cli", []string{"n1"}, clireg)

	if _, err := cli.ClassifyBatch(ctx, "g-a", [][]float64{{0}}); err != nil {
		t.Fatal(err)
	}
	stop2() // the follower process goes away

	for i := 0; i < 4; i++ {
		got, err := cli.ClassifyBatch(ctx, "g-a", [][]float64{{0}})
		if err != nil || got[0] != 0 {
			t.Fatalf("classify %d with downed follower = %v, %v; want [0]", i, got, err)
		}
	}
	if n := counterOf(clireg, "cluster.failovers"); n < 1 {
		t.Fatalf("cluster.failovers = %d, want >= 1", n)
	}
}

// TestClientRouteMiss checks the stale-table paths: a routed-but-unhosted
// group refreshes once and surfaces ErrUnknownGroup; an unrouted group
// surfaces ErrNoRoute. Both count cluster.route_misses.
func TestClientRouteMiss(t *testing.T) {
	net := transport.NewMemNetwork()
	// The table advertises g-ghost at n1, but n1 is only given g-a to host —
	// the client's view is permanently stale.
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1"},
		{Group: "g-ghost", Node: "n1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []protocol.GroupSpec{
		{ID: "g-a", Unified: clusterLine(t, 4, 0), Model: classify.NewKNN(1)}}
	startNode(t, net, "n1", table, specs, protocol.ServiceConfig{})

	ctx := testCtx(t)
	clireg := metrics.NewRegistry()
	cli := startClient(t, net, "cli", []string{"n1"}, clireg)

	if _, err := cli.ClassifyBatch(ctx, "g-ghost", [][]float64{{0}}); !errors.Is(err, protocol.ErrUnknownGroup) {
		t.Fatalf("ghost group err = %v, want ErrUnknownGroup", err)
	}
	if n := counterOf(clireg, "cluster.route_misses"); n != 1 {
		t.Fatalf("route_misses after ghost classify = %d, want 1", n)
	}
	if _, err := cli.ClassifyBatch(ctx, "absent", [][]float64{{0}}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unrouted group err = %v, want ErrNoRoute", err)
	}
	if n := counterOf(clireg, "cluster.route_misses"); n != 2 {
		t.Fatalf("route_misses after unrouted classify = %d, want 2", n)
	}
	if _, err := cli.Push(ctx, "absent", [][]float64{{0}}, []int{1}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unrouted push err = %v, want ErrNoRoute", err)
	}
}

// TestRendezvousClusterEndToEnd wires a 3-node cluster from a rendezvous
// table — no hand placement — and checks every group answers through the
// cluster client from its derived assignment.
func TestRendezvousClusterEndToEnd(t *testing.T) {
	net := transport.NewMemNetwork()
	groups := []string{"g-0", "g-1", "g-2", "g-3"}
	nodes := []string{"n1", "n2", "n3"}
	table, err := NewRendezvousTable(groups, nodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	var specs []protocol.GroupSpec
	for i, g := range groups {
		specs = append(specs, protocol.GroupSpec{
			ID: g, Unified: clusterLine(t, 4, 100*i), Model: classify.NewKNN(1)})
	}
	for _, n := range nodes {
		startNode(t, net, n, table, specs, protocol.ServiceConfig{})
	}
	ctx := testCtx(t)
	cli := startClient(t, net, "cli", []string{"n2"}, nil)
	for i, g := range groups {
		got, err := cli.ClassifyBatch(ctx, g, [][]float64{{0}})
		if err != nil || got[0] != 100*i {
			t.Fatalf("group %s classify = %v, %v; want [%d]", g, got, err, 100*i)
		}
		if _, err := cli.Push(ctx, g, [][]float64{{0.5}}, []int{100 * i}); err != nil {
			t.Fatalf("group %s push: %v", g, err)
		}
	}
	entries, err := cli.Routes(ctx)
	if err != nil || len(entries) != len(groups) {
		t.Fatalf("Routes = %d entries, %v; want %d", len(entries), err, len(groups))
	}

}

// syncSniffer records the model-sync frames a node sends, per destination.
type syncSniffer struct {
	transport.Conn
	mu    sync.Mutex
	syncs map[string][][]byte
	// drop, when set, is offered every model-sync frame and discards the
	// first one it matches — Send then reports success, as a lossy link
	// would — before it is cleared. Discarded frames are not recorded.
	drop    func(info protocol.FrameInfo) bool
	dropped int
}

func (c *syncSniffer) Send(ctx context.Context, to string, payload []byte) error {
	if info, ok := protocol.InspectFrame(payload); ok && info.Kind == protocol.KindModelSync {
		c.mu.Lock()
		if c.drop != nil && c.drop(info) {
			c.drop = nil
			c.dropped++
			c.mu.Unlock()
			return nil
		}
		c.syncs[to] = append(c.syncs[to], append([]byte(nil), payload...))
		c.mu.Unlock()
	}
	return c.Conn.Send(ctx, to, payload)
}

func (c *syncSniffer) sent(to string) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.syncs[to]...)
}

// TestFloat32GroupReplicatesPackedBlobs checks a float32 group ships the
// packed-float32 model blob to every replica, with no handshake first: the
// first sync frame to each replica already carries the float32 encoding of
// the leader's served model, never the float64 one.
func TestFloat32GroupReplicatesPackedBlobs(t *testing.T) {
	net := transport.NewMemNetwork()
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2", "n3"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	specs := []protocol.GroupSpec{{ID: "g-a", Unified: clusterLine(t, 4, 0),
		Model: classify.NewKNN(1), Float32: true}}
	raw, err := net.Endpoint("n1")
	if err != nil {
		t.Fatal(err)
	}
	sniff := &syncSniffer{Conn: raw, syncs: make(map[string][][]byte)}
	leader, err := NewNode(NodeConfig{Name: "n1", Conn: sniff, Table: table, Groups: specs,
		Service: protocol.ServiceConfig{RefitEvery: 4}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := leader.Serve(ctx); err != nil {
			t.Error(err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
		_ = raw.Close()
	})
	regs := map[string]*metrics.Registry{"n2": metrics.NewRegistry(), "n3": metrics.NewRegistry()}
	for name, reg := range regs {
		startNode(t, net, name, table, specs, protocol.ServiceConfig{RefitEvery: 4, Metrics: reg})
	}

	cli := startClient(t, net, "cli", []string{"n1"}, nil)
	if _, err := cli.Push(testCtx(t), "g-a", [][]float64{{0.1234567891}, {2.718281828}, {3.14159265}, {4.0000001}},
		[]int{50, 51, 52, 53}); err != nil {
		t.Fatal(err)
	}
	for name, reg := range regs {
		waitFor(t, name+" model install", func() bool {
			return counterOf(reg, "service.g-a.sync.installs") >= 1
		})
	}

	views, err := leader.Service().GroupViewModels("g-a")
	if err != nil || len(views) != 1 {
		t.Fatalf("leader views = %v, %v", views, err)
	}
	packed, err := classify.EncodeModelFloat32(views[0].Model)
	if err != nil {
		t.Fatal(err)
	}
	wide, err := classify.EncodeModel(views[0].Model)
	if err != nil {
		t.Fatal(err)
	}
	for _, replica := range []string{"n2", "n3"} {
		frames := sniff.sent(replica)
		if len(frames) == 0 {
			t.Fatalf("no model-sync frame reached %s", replica)
		}
		if !bytes.Contains(frames[0], packed) || bytes.Contains(frames[0], wide) {
			t.Fatalf("first sync frame to %s does not carry the float32 blob", replica)
		}
	}
}
