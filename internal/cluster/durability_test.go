package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/cluster/faultnet"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// The durability suite runs real TCP nodes behind faultnet proxies and
// scripts the outages the gossip machinery repairs: leader kill/restart
// (sequence handshake), partitions (anti-entropy), frame duplication and
// reordering (install idempotency) and leader silence (failover).

// chaosNode is one fixture node: the fault proxy peers dial instead of the
// node, the Proc controlling its lifecycle, and the current incarnation's
// Node and metrics registry. Each incarnation listens on a fresh port and
// re-points the proxy at it, so peers keep one cached address — the
// proxy's — across restarts, and no port is ever released and re-bound.
type chaosNode struct {
	name  string
	proxy *faultnet.Proxy
	proc  *faultnet.Proc

	mu   sync.Mutex
	node *Node
	reg  *metrics.Registry
}

func (cn *chaosNode) registry() *metrics.Registry {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.reg
}

func (cn *chaosNode) current() *Node {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.node
}

// chaos is the TCP cluster fixture. Every node listens on its own port
// with a faultnet proxy in front; all node-to-node and
// client-to-node traffic flows through the destination's proxy, so any
// node's inbound link can be shaped or cut. Responses to clients flow
// direct (the transport answers on a fresh dial to the requester's own
// listener), which is exactly the asymmetry real deployments have.
type chaos struct {
	t     *testing.T
	table *Table
	specs func() []protocol.GroupSpec
	svc   func(reg *metrics.Registry) protocol.ServiceConfig
	ae    time.Duration
	grace time.Duration
	order []string
	nodes map[string]*chaosNode
	extra map[string]string // non-node peers (clients, probes): name -> addr
}

func newChaos(t *testing.T, table *Table, names []string, specs func() []protocol.GroupSpec,
	svc func(reg *metrics.Registry) protocol.ServiceConfig, ae, grace time.Duration) *chaos {
	t.Helper()
	c := &chaos{t: t, table: table, specs: specs, svc: svc, ae: ae, grace: grace,
		order: names, nodes: make(map[string]*chaosNode), extra: make(map[string]string)}
	for _, name := range names {
		proxy, err := faultnet.Listen("")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() })
		cn := &chaosNode{name: name, proxy: proxy}
		cn.proc = &faultnet.Proc{Boot: c.bootFor(cn)}
		c.nodes[name] = cn
	}
	return c
}

func (c *chaos) bootFor(cn *chaosNode) faultnet.BootFunc {
	return func() (func(context.Context) error, func(), error) {
		conn, err := transport.NewTCPNode(cn.name, "127.0.0.1:0", nil)
		if err != nil {
			return nil, nil, err
		}
		for _, other := range c.order {
			if other != cn.name {
				conn.AddPeer(other, c.nodes[other].proxy.Addr())
			}
		}
		for name, addr := range c.extra {
			conn.AddPeer(name, addr)
		}
		reg := metrics.NewRegistry()
		node, err := NewNode(NodeConfig{
			Name: cn.name, Conn: conn, Table: c.table, Groups: c.specs(),
			Service: c.svc(reg), AntiEntropyEvery: c.ae, FailoverGrace: c.grace,
		})
		if err != nil {
			conn.Close()
			return nil, nil, err
		}
		cn.mu.Lock()
		cn.node, cn.reg = node, reg
		cn.mu.Unlock()
		cn.proxy.SetTarget(conn.Addr())
		return func(ctx context.Context) error { return node.Serve(ctx) },
			func() { _ = conn.Close() }, nil
	}
}

// startAll boots every node and registers kill-on-cleanup.
func (c *chaos) startAll() {
	c.t.Helper()
	for _, name := range c.order {
		cn := c.nodes[name]
		if err := cn.proc.Start(); err != nil {
			c.t.Fatal(err)
		}
		c.t.Cleanup(cn.proc.Kill)
	}
}

// peer builds an extra (non-node) TCP endpoint wired through the proxies.
// Call before startAll so nodes learn the peer's address at boot.
func (c *chaos) peer(name string) *transport.TCPNode {
	c.t.Helper()
	conn, err := transport.NewTCPNode(name, "127.0.0.1:0", nil)
	if err != nil {
		c.t.Fatal(err)
	}
	c.extra[name] = conn.Addr()
	c.t.Cleanup(func() { _ = conn.Close() })
	for _, other := range c.order {
		conn.AddPeer(other, c.nodes[other].proxy.Addr())
	}
	return conn
}

// dropFrom builds a hook discarding every frame the named endpoint sent —
// one half of a symmetric partition.
func dropFrom(name string) faultnet.Hook {
	return func(dir faultnet.Dir, frame []byte) faultnet.Verdict {
		if from, _, err := transport.PeekSender(frame); err == nil && from == name {
			return faultnet.Drop
		}
		return faultnet.Pass
	}
}

// partition cuts one node off symmetrically: its inbound link blackholes
// (dials succeed, frames vanish) and every other proxy drops frames it
// sends. heal reverses both.
func (c *chaos) partition(name string) {
	c.nodes[name].proxy.SetPartitioned(true)
	for other, cn := range c.nodes {
		if other != name {
			cn.proxy.SetHook(dropFrom(name))
		}
	}
}

func (c *chaos) heal(name string) {
	c.nodes[name].proxy.SetPartitioned(false)
	for other, cn := range c.nodes {
		if other != name {
			cn.proxy.SetHook(nil)
		}
	}
}

func gaugeOf(reg *metrics.Registry, name string) int64 { return reg.Snapshot().Gauges[name] }

// oneGroupSpecs returns a fresh single-group fixture per boot: g-a seeded
// with labels 0..3 on x ∈ [0,1). A probe at a large x always answers the
// highest-x record's label, so each pushed chunk is distinguishable.
func oneGroupSpecs(t *testing.T) func() []protocol.GroupSpec {
	return func() []protocol.GroupSpec {
		return []protocol.GroupSpec{
			{ID: "g-a", Unified: clusterLine(t, 4, 0), Model: classify.NewKNN(1)}}
	}
}

// chunkAt builds a 4-record chunk at x = base..base+3 labelled label..label+3.
func chunkAt(base float64, label int) ([][]float64, []int) {
	xs := make([][]float64, 4)
	ys := make([]int, 4)
	for i := range xs {
		xs[i] = []float64{base + float64(i)}
		ys[i] = label + i
	}
	return xs, ys
}

// TestLeaderRestartHandshake is the sequence-handshake e2e: a leader is
// killed and rebooted from nothing mid-contract, and its first post-restart
// publish must install on the follower — no Seq rejection — because the
// gossip floored its numbering at the follower's installed state.
func TestLeaderRestartHandshake(t *testing.T) {
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2"}}})
	if err != nil {
		t.Fatal(err)
	}
	c := newChaos(t, table, []string{"n1", "n2"}, oneGroupSpecs(t),
		func(reg *metrics.Registry) protocol.ServiceConfig {
			return protocol.ServiceConfig{RefitEvery: 4, Metrics: reg}
		}, 25*time.Millisecond, -1)
	cliConn := c.peer("cli")
	probeConn := c.peer("probe")
	c.startAll()

	ctx := testCtx(t)
	cli, err := NewClient(ClientConfig{Conn: cliConn, Seeds: []string{"n1", "n2"},
		AttemptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	probe, err := protocol.NewServiceClient(probeConn, "n2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = probe.Close() })

	// Round 1: the original leader replicates seq 1.
	xs, ys := chunkAt(2, 50)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	reg2 := c.nodes["n2"].registry()
	waitFor(t, "first install on n2", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 1
	})

	// Kill and reboot the leader: a fresh process image, counters zeroed,
	// in-memory ingest lost, same address.
	c.nodes["n1"].proc.Kill()
	if err := c.nodes["n1"].proc.Start(); err != nil {
		t.Fatal(err)
	}
	reg1b := c.nodes["n1"].registry()
	waitFor(t, "restarted leader handshake", func() bool {
		return counterOf(reg1b, "cluster.handshake_floors") >= 1
	})

	// Round 2: the restarted leader's first publish must resume above the
	// follower's installed seq and install cleanly.
	xs, ys = chunkAt(6, 60)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restart install on n2", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 2
	})
	if n := counterOf(reg2, "service.g-a.sync.rejects"); n != 0 {
		t.Fatalf("n2 sync.rejects = %d across the restart, want 0", n)
	}
	got, err := probe.ClassifyBatchAt(ctx, "n2", "g-a", [][]float64{{100}})
	if err != nil || got[0] != 63 {
		t.Fatalf("n2 classify after restart = %v, %v; want [63]", got, err)
	}
}

// TestAntiEntropyCatchUp is the partition-repair e2e: a follower cut off
// during a refit misses the publish; one gossip round after the heal, the
// leader re-pushes the current model and the follower's staleness gauge
// returns to zero — no extra refit involved.
func TestAntiEntropyCatchUp(t *testing.T) {
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2"}}})
	if err != nil {
		t.Fatal(err)
	}
	c := newChaos(t, table, []string{"n1", "n2"}, oneGroupSpecs(t),
		func(reg *metrics.Registry) protocol.ServiceConfig {
			return protocol.ServiceConfig{RefitEvery: 4, Metrics: reg}
		}, 25*time.Millisecond, -1)
	cliConn := c.peer("cli")
	probeConn := c.peer("probe")
	c.startAll()

	ctx := testCtx(t)
	cli, err := NewClient(ClientConfig{Conn: cliConn, Seeds: []string{"n1"},
		AttemptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	probe, err := protocol.NewServiceClient(probeConn, "n2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = probe.Close() })

	xs, ys := chunkAt(2, 50)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	reg1 := c.nodes["n1"].registry()
	reg2 := c.nodes["n2"].registry()
	waitFor(t, "pre-partition install on n2", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 1
	})

	// Partition the follower, then refit on the leader: the publish is lost.
	c.partition("n2")
	xs, ys = chunkAt(6, 60)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "leader refit during partition", func() bool {
		return counterOf(reg1, "service.g-a.refit.count") >= 2
	})
	if n := counterOf(reg2, "service.g-a.sync.installs"); n != 1 {
		t.Fatalf("partitioned follower installed %d models, want still 1", n)
	}
	// refit.count rises before the swap hook queues the publish, so wait for
	// the leader to have tried it: healing earlier lets the publish install
	// directly and leaves nothing for anti-entropy to repair.
	waitFor(t, "leader publish attempt during partition", func() bool {
		return counterOf(reg1, "cluster.sync_published")+counterOf(reg1, "cluster.sync_errors") >= 2
	})

	// Heal: the next hello exposes the gap, the state answer triggers the
	// re-push, the follower converges.
	c.heal("n2")
	waitFor(t, "anti-entropy install on n2", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 2
	})
	waitFor(t, "staleness back to zero", func() bool {
		return gaugeOf(reg2, "service.g-a.staleness_records") == 0
	})
	if n := counterOf(reg1, "cluster.anti_entropy_pushes"); n < 1 {
		t.Fatalf("cluster.anti_entropy_pushes = %d, want >= 1", n)
	}
	got, err := probe.ClassifyBatchAt(ctx, "n2", "g-a", [][]float64{{100}})
	if err != nil || got[0] != 63 {
		t.Fatalf("n2 classify after heal = %v, %v; want [63]", got, err)
	}
}

// TestSyncIdempotencyUnderFaults runs the replication stream through a lossy
// reordering link: duplicated sync frames install once (the copy is a
// replay), and a frame delivered after its successor is rejected as stale —
// exactly one installed model per sequence number, whatever the link does.
func TestSyncIdempotencyUnderFaults(t *testing.T) {
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Gossip off: the frames under test are the replication stream alone.
	c := newChaos(t, table, []string{"n1", "n2"}, oneGroupSpecs(t),
		func(reg *metrics.Registry) protocol.ServiceConfig {
			return protocol.ServiceConfig{RefitEvery: 4, Metrics: reg}
		}, -1, -1)
	cliConn := c.peer("cli")
	probeConn := c.peer("probe")
	c.startAll()

	ctx := testCtx(t)
	cli, err := NewClient(ClientConfig{Conn: cliConn, Seeds: []string{"n1"},
		AttemptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	probe, err := protocol.NewServiceClient(probeConn, "n2")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = probe.Close() })

	syncSeq := func(frame []byte) (uint64, bool) {
		from, payload, err := transport.PeekSender(frame)
		if err != nil || from != "n1" {
			return 0, false
		}
		info, ok := protocol.InspectFrame(payload)
		if !ok || info.Kind != protocol.KindModelSync {
			return 0, false
		}
		return info.Seq, true
	}

	// Phase 1: duplicate the first sync. One install, one replay rejection.
	c.nodes["n2"].proxy.SetHook(func(dir faultnet.Dir, frame []byte) faultnet.Verdict {
		if _, ok := syncSeq(frame); ok {
			return faultnet.Dup
		}
		return faultnet.Pass
	})
	reg2 := c.nodes["n2"].registry()
	xs, ys := chunkAt(2, 50)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "duplicated sync replay-rejected", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 1 &&
			counterOf(reg2, "service.g-a.sync.rejects") == 1
	})

	// Phase 2: hold seq 2 until seq 3 has passed — a deterministic reorder.
	// The follower installs seq 3 and rejects the late seq 2 as stale.
	c.nodes["n2"].proxy.SetHook(func(dir faultnet.Dir, frame []byte) faultnet.Verdict {
		if seq, ok := syncSeq(frame); ok && seq == 2 {
			return faultnet.Defer
		}
		return faultnet.Pass
	})
	xs, ys = chunkAt(6, 60)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	// Wait until seq 2 is in flight (published, deferred in the proxy)
	// before triggering seq 3 — the refits must not coalesce.
	reg1 := c.nodes["n1"].registry()
	waitFor(t, "seq 2 published", func() bool {
		return counterOf(reg1, "cluster.sync_published") == 2
	})
	xs, ys = chunkAt(10, 70)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reordered sync rejected as stale", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 2 &&
			counterOf(reg2, "service.g-a.sync.rejects") == 2
	})
	got, err := probe.ClassifyBatchAt(ctx, "n2", "g-a", [][]float64{{100}})
	if err != nil || got[0] != 73 {
		t.Fatalf("n2 classify after reorder = %v, %v; want [73]", got, err)
	}
	if n := gaugeOf(reg2, "service.g-a.sync.seq"); n != 3 {
		t.Fatalf("n2 installed seq = %d, want 3", n)
	}
}

// TestFailoverPromotion is the rendezvous-failover e2e: the leader dies past
// the grace period, the first-ranked replica assumes leadership under a
// bumped table epoch, clients re-route ingest to it, and the restarted old
// leader is demoted by the higher-epoch gossip and catches up as a
// follower. /metrics (the registry's HTTP handler) sources the assertions,
// as an operator's dashboard would.
func TestFailoverPromotion(t *testing.T) {
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2"}}})
	if err != nil {
		t.Fatal(err)
	}
	c := newChaos(t, table, []string{"n1", "n2"}, oneGroupSpecs(t),
		func(reg *metrics.Registry) protocol.ServiceConfig {
			return protocol.ServiceConfig{RefitEvery: 4, Metrics: reg}
		}, 25*time.Millisecond, 150*time.Millisecond)
	cliConn := c.peer("cli")
	probeConn := c.peer("probe")
	c.startAll()

	ctx := testCtx(t)
	cli, err := NewClient(ClientConfig{Conn: cliConn, Seeds: []string{"n1", "n2"},
		AttemptTimeout: time.Second, DownFor: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	probe, err := protocol.NewServiceClient(probeConn, "n1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = probe.Close() })

	xs, ys := chunkAt(2, 50)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	reg2 := c.nodes["n2"].registry()
	waitFor(t, "pre-failover install on n2", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 1
	})

	// Kill the leader. The rank-0 replica promotes after one grace period.
	c.nodes["n1"].proc.Kill()
	waitFor(t, "n2 promotion", func() bool {
		n2 := c.nodes["n2"].current()
		return n2.Epoch() == 1 && len(n2.Leads()) == 1
	})
	if n := counterOf(reg2, "cluster.failover_promotions"); n != 1 {
		t.Fatalf("cluster.failover_promotions = %d, want 1", n)
	}

	// Ingest keeps flowing: the client discovers the promoted row (higher
	// epoch wins over any stale answer) and pushes to the new leader.
	xs, ys = chunkAt(6, 60)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatalf("push after failover: %v", err)
	}
	if got, _ := c.nodes["n2"].current().Service().GroupIngested("g-a"); got != 4 {
		t.Fatalf("promoted leader ingested %d records, want 4", got)
	}

	// Restart the old leader: it boots believing the seed table (epoch 0),
	// hears epoch 1 gossip, demotes itself and follows the new leader.
	if err := c.nodes["n1"].proc.Start(); err != nil {
		t.Fatal(err)
	}
	reg1b := c.nodes["n1"].registry()
	waitFor(t, "old leader demoted", func() bool {
		n1 := c.nodes["n1"].current()
		return counterOf(reg1b, "cluster.failover_demotions") == 1 &&
			n1.Epoch() == 1 && len(n1.Follows()) == 1
	})

	// The next refit on the new leader replicates to the demoted one.
	waitFor(t, "new leader refit replicated to n1", func() bool {
		return counterOf(reg1b, "service.g-a.sync.installs") >= 1
	})
	got, err := probe.ClassifyBatchAt(ctx, "n1", "g-a", [][]float64{{100}})
	if err != nil || got[0] != 63 {
		t.Fatalf("demoted n1 classify = %v, %v; want [63]", got, err)
	}

	// Operator's view: assert the same facts through /metrics.
	srv := httptest.NewServer(reg2)
	t.Cleanup(srv.Close)
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap metrics.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["cluster.failover_promotions"] != 1 {
		t.Fatalf("/metrics failover_promotions = %d, want 1", snap.Counters["cluster.failover_promotions"])
	}
	if snap.Counters["service.g-a.sync.installs"] != 1 {
		t.Fatalf("/metrics sync.installs on n2 = %d, want 1", snap.Counters["service.g-a.sync.installs"])
	}
	if snap.Gauges["service.g-a.staleness_records"] != 0 {
		t.Fatalf("/metrics staleness_records = %d, want 0", snap.Gauges["service.g-a.staleness_records"])
	}
}

// TestHeadlineOutage is the issue's headline scenario: with continuous
// client traffic, kill and restart the leader and partition a follower —
// zero classify errors throughout, the restarted leader's first refit
// installs on the followers with no Seq rejection, and the partitioned
// follower's staleness returns to zero one anti-entropy round after the
// heal.
func TestHeadlineOutage(t *testing.T) {
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2", "n3"}}})
	if err != nil {
		t.Fatal(err)
	}
	// Failover grace far beyond the test: leadership must stay with n1 so
	// the restart exercises the handshake, not a promotion.
	c := newChaos(t, table, []string{"n1", "n2", "n3"}, oneGroupSpecs(t),
		func(reg *metrics.Registry) protocol.ServiceConfig {
			return protocol.ServiceConfig{RefitEvery: 4, Metrics: reg}
		}, 25*time.Millisecond, 10*time.Minute)
	cliConn := c.peer("cli")
	c.startAll()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	cli, err := NewClient(ClientConfig{Conn: cliConn, Seeds: []string{"n1", "n2", "n3"},
		AttemptTimeout: 2 * time.Second, DownFor: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	// Continuous read traffic for the whole story. Every classify must
	// succeed: reads ride the healthy assignees around every fault below.
	var classifies, classifyErrs atomic.Int64
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := cli.ClassifyBatch(ctx, "g-a", [][]float64{{0.1}}); err != nil {
				classifyErrs.Add(1)
				t.Errorf("classify during outage story: %v", err)
				return
			}
			classifies.Add(1)
			time.Sleep(5 * time.Millisecond)
		}
	}()
	t.Cleanup(func() { halt(); wg.Wait() })

	// Act 1: normal replication.
	xs, ys := chunkAt(2, 50)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	reg2 := c.nodes["n2"].registry()
	reg3 := c.nodes["n3"].registry()
	waitFor(t, "act-1 installs", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 1 &&
			counterOf(reg3, "service.g-a.sync.installs") == 1
	})

	// Act 2: the leader dies and comes back. Reads never notice; the
	// restarted leader handshakes before its first publish.
	base := classifies.Load()
	c.nodes["n1"].proc.Kill()
	waitFor(t, "reads surviving leader death", func() bool {
		return classifies.Load() >= base+20
	})
	if err := c.nodes["n1"].proc.Start(); err != nil {
		t.Fatal(err)
	}
	reg1b := c.nodes["n1"].registry()
	waitFor(t, "restarted leader handshake", func() bool {
		return counterOf(reg1b, "cluster.handshake_floors") >= 1
	})
	xs, ys = chunkAt(6, 60)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restart installs", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 2 &&
			counterOf(reg3, "service.g-a.sync.installs") == 2
	})
	if a, b := counterOf(reg2, "service.g-a.sync.rejects"), counterOf(reg3, "service.g-a.sync.rejects"); a != 0 || b != 0 {
		t.Fatalf("sync.rejects across leader restart = %d/%d, want 0/0", a, b)
	}

	// Act 3: partition one follower through a refit, then heal. Anti-entropy
	// closes the gap within a round; reads rode the other assignees.
	c.partition("n3")
	xs, ys = chunkAt(10, 70)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "partition-era install on n2", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 3
	})
	if n := counterOf(reg3, "service.g-a.sync.installs"); n != 2 {
		t.Fatalf("partitioned n3 installed %d models, want still 2", n)
	}
	c.heal("n3")
	waitFor(t, "anti-entropy catch-up on n3", func() bool {
		return counterOf(reg3, "service.g-a.sync.installs") == 3 &&
			gaugeOf(reg3, "service.g-a.staleness_records") == 0
	})

	halt()
	wg.Wait()
	if n := classifyErrs.Load(); n != 0 {
		t.Fatalf("%d classify errors during the outage story, want 0", n)
	}
	if n := classifies.Load(); n < 20 {
		t.Fatalf("only %d classifies completed — traffic was not continuous", n)
	}
}

// TestStaleSeedEpochRejected pins the client's epoch rule without any
// cluster machinery: two seeds answer conflicting tables under different
// epochs, and the client must install the higher-epoch one no matter which
// seed answers first — and must never replace it with the lower-epoch
// answer on later refreshes.
func TestStaleSeedEpochRejected(t *testing.T) {
	net := transport.NewMemNetwork()
	ctx := testCtx(t)

	serve := func(name string, entries []protocol.RouteEntry, epoch uint64) {
		conn, err := net.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := []protocol.GroupSpec{
			{ID: "g-a", Unified: clusterLine(t, 4, 0), Model: classify.NewKNN(1)}}
		svc, err := protocol.NewGroupedMiningService(conn, spec, protocol.ServiceConfig{
			RoutesFunc: func() ([]protocol.RouteEntry, uint64) { return entries, epoch }})
		if err != nil {
			t.Fatal(err)
		}
		sctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); _ = svc.Serve(sctx) }()
		t.Cleanup(func() { cancel(); <-done; _ = conn.Close() })
	}
	// The stale node still claims leadership for itself; the fresher node
	// serves the post-failover row under a higher epoch.
	serve("stale", []protocol.RouteEntry{{Group: "g-a", Node: "stale"}}, 0)
	serve("fresh", []protocol.RouteEntry{{Group: "g-a", Node: "fresh"}}, 7)

	cliConn, err := net.Endpoint("cli")
	if err != nil {
		t.Fatal(err)
	}
	// Seed order favors the stale node: first-answer-wins would keep epoch 0.
	cli, err := NewClient(ClientConfig{Conn: cliConn, Seeds: []string{"stale", "fresh"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	routes, err := cli.Routes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 1 || routes[0].Node != "fresh" {
		t.Fatalf("discovered routes = %+v, want the epoch-7 row led by fresh", routes)
	}
	// A forced re-discovery (unknown group) re-asks both; the epoch-0 answer
	// must not displace the installed epoch-7 table.
	if _, err := cli.ClassifyBatch(ctx, "ghost", [][]float64{{0}}); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("ghost classify err = %v, want ErrNoRoute", err)
	}
	routes, err = cli.Routes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 1 || routes[0].Node != "fresh" {
		t.Fatalf("routes after re-discovery = %+v, want still the epoch-7 row", routes)
	}
}

// TestClientDownForValidation pins the option contract: a negative
// down-mark window is a configuration error, zero selects the default.
func TestClientDownForValidation(t *testing.T) {
	net := transport.NewMemNetwork()
	conn, err := net.Endpoint("cli")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(ClientConfig{Conn: conn, Seeds: []string{"n1"},
		DownFor: -time.Second}); !errors.Is(err, protocol.ErrBadConfig) {
		t.Fatalf("negative DownFor err = %v, want ErrBadConfig", err)
	}
	cli, err := NewClient(ClientConfig{Conn: conn, Seeds: []string{"n1"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	if cli.downFor != DefaultDownFor {
		t.Fatalf("zero DownFor resolved to %v, want %v", cli.downFor, DefaultDownFor)
	}
}

// TestSplitBrainPromotionConverges kills the leader while its two replicas
// cannot hear each other, so both promote themselves for the same group at
// the same row epoch — a genuine split brain. Once the replicas can talk
// again, the deterministic equal-epoch tie-break (lexicographically smaller
// leader wins) must converge every node on one leader without another epoch
// bump, and ingest must land on the winner.
func TestSplitBrainPromotionConverges(t *testing.T) {
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2", "n3"}}})
	if err != nil {
		t.Fatal(err)
	}
	c := newChaos(t, table, []string{"n1", "n2", "n3"}, oneGroupSpecs(t),
		func(reg *metrics.Registry) protocol.ServiceConfig {
			return protocol.ServiceConfig{RefitEvery: 4, Metrics: reg}
		}, 25*time.Millisecond, 150*time.Millisecond)
	cliConn := c.peer("cli")
	c.startAll()

	ctx := testCtx(t)
	cli, err := NewClient(ClientConfig{Conn: cliConn, Seeds: []string{"n1", "n2", "n3"},
		AttemptTimeout: 2 * time.Second, DownFor: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	// Split the replicas from each other, then kill the leader: neither
	// replica hears the other's promotion, so both assume leadership at
	// epoch 1.
	c.nodes["n2"].proxy.SetHook(dropFrom("n3"))
	c.nodes["n3"].proxy.SetHook(dropFrom("n2"))
	c.nodes["n1"].proc.Kill()
	waitFor(t, "both replicas promoted", func() bool {
		return len(c.nodes["n2"].current().Leads()) == 1 &&
			len(c.nodes["n3"].current().Leads()) == 1
	})
	reg2 := c.nodes["n2"].registry()
	reg3 := c.nodes["n3"].registry()
	if a, b := counterOf(reg2, "cluster.failover_promotions"), counterOf(reg3, "cluster.failover_promotions"); a != 1 || b != 1 {
		t.Fatalf("promotions during split = %d/%d, want 1/1", a, b)
	}

	// Heal. The two epoch-1 rows disagree on the leader; n2's row wins the
	// tie-break on the smaller leader name, so n3 must yield.
	c.nodes["n2"].proxy.SetHook(nil)
	c.nodes["n3"].proxy.SetHook(nil)
	waitFor(t, "split brain converged on n2", func() bool {
		n2, n3 := c.nodes["n2"].current(), c.nodes["n3"].current()
		return len(n2.Leads()) == 1 && len(n3.Leads()) == 0 &&
			len(n3.Follows()) == 1 &&
			counterOf(reg3, "cluster.failover_demotions") == 1
	})
	// Convergence came from the tie-break, not from out-versioning: both
	// sides still serve the group at epoch 1.
	if a, b := c.nodes["n2"].current().Epoch(), c.nodes["n3"].current().Epoch(); a != 1 || b != 1 {
		t.Fatalf("epochs after convergence = %d/%d, want 1/1 (no extra bump)", a, b)
	}

	// The client settles the same race the same way and routes ingest to
	// the surviving leader.
	xs, ys := chunkAt(2, 50)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatalf("push after convergence: %v", err)
	}
	if got, _ := c.nodes["n2"].current().Service().GroupIngested("g-a"); got != 4 {
		t.Fatalf("winner ingested %d records, want 4", got)
	}
	if got, _ := c.nodes["n3"].current().Service().GroupIngested("g-a"); got != 0 {
		t.Fatalf("loser ingested %d records, want 0", got)
	}
}

// TestAntiEntropyNeverRegressesReplica pins the model-seq guard: a restarted
// leader floors its sequence numbering at its replicas' installed state, but
// its freshly constructed model corresponds to no published sequence — so
// anti-entropy must NOT re-push it, even to a replica that is genuinely
// behind the floored counter. The lagging replica keeps its trained model
// (reporting staleness honestly) until the next real refit publishes.
func TestAntiEntropyNeverRegressesReplica(t *testing.T) {
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2", "n3"}}})
	if err != nil {
		t.Fatal(err)
	}
	c := newChaos(t, table, []string{"n1", "n2", "n3"}, oneGroupSpecs(t),
		func(reg *metrics.Registry) protocol.ServiceConfig {
			return protocol.ServiceConfig{RefitEvery: 4, Metrics: reg}
		}, 25*time.Millisecond, -1)
	cliConn := c.peer("cli")
	probeConn := c.peer("probe")
	c.startAll()

	ctx := testCtx(t)
	cli, err := NewClient(ClientConfig{Conn: cliConn, Seeds: []string{"n1"},
		AttemptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })
	probe, err := protocol.NewServiceClient(probeConn, "n3")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = probe.Close() })

	// Seq 1 installs everywhere; seq 2 only on n2 (n3 is partitioned).
	xs, ys := chunkAt(2, 50)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	reg2 := c.nodes["n2"].registry()
	reg3 := c.nodes["n3"].registry()
	waitFor(t, "seq 1 on both replicas", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 1 &&
			counterOf(reg3, "service.g-a.sync.installs") == 1
	})
	c.partition("n3")
	xs, ys = chunkAt(6, 60)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "seq 2 on n2", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 2
	})

	// Restart the leader: the handshake floors its numbering at n2's seq 2,
	// but the model it serves is the fresh seed fit — untrained, unpublished.
	c.nodes["n1"].proc.Kill()
	if err := c.nodes["n1"].proc.Start(); err != nil {
		t.Fatal(err)
	}
	reg1b := c.nodes["n1"].registry()
	waitFor(t, "restarted leader handshake", func() bool {
		return counterOf(reg1b, "cluster.handshake_floors") >= 1
	})

	// Heal n3 (still at seq 1). The staleness gauge rising proves hello and
	// state rounds completed against the restarted leader — the exact
	// exchange that used to trigger the poisonous re-push.
	c.heal("n3")
	waitFor(t, "n3 reporting honest staleness", func() bool {
		return gaugeOf(reg3, "service.g-a.staleness_records") == 4
	})
	time.Sleep(150 * time.Millisecond) // several more anti-entropy rounds
	if n := counterOf(reg1b, "cluster.anti_entropy_pushes"); n != 0 {
		t.Fatalf("restarted leader re-pushed %d models it never published, want 0", n)
	}
	if n := counterOf(reg3, "service.g-a.sync.installs"); n != 1 {
		t.Fatalf("n3 installs after heal = %d, want still 1 (no regression)", n)
	}
	got, err := probe.ClassifyBatchAt(ctx, "n3", "g-a", [][]float64{{100}})
	if err != nil || got[0] != 53 {
		t.Fatalf("n3 classify = %v, %v; want [53] — the trained model it installed", got, err)
	}

	// The next real refit publishes above the floor and repairs everyone.
	xs, ys = chunkAt(10, 70)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-restart publish converges both replicas", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 3 &&
			counterOf(reg3, "service.g-a.sync.installs") == 2 &&
			gaugeOf(reg3, "service.g-a.staleness_records") == 0
	})
	got, err = probe.ClassifyBatchAt(ctx, "n3", "g-a", [][]float64{{100}})
	if err != nil || got[0] != 73 {
		t.Fatalf("n3 classify after real refit = %v, %v; want [73]", got, err)
	}
}

// TestSyncTrafficCountsAsLiveness pins the failover contact rule: a leader
// that keeps replicating models but whose gossip hellos are lost must not be
// deposed — every model-sync frame accepted from the group's sync source
// refreshes the replica's leader-contact clock, so replication traffic is
// liveness evidence in its own right.
func TestSyncTrafficCountsAsLiveness(t *testing.T) {
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1", Replicas: []string{"n2"}}})
	if err != nil {
		t.Fatal(err)
	}
	c := newChaos(t, table, []string{"n1", "n2"}, oneGroupSpecs(t),
		func(reg *metrics.Registry) protocol.ServiceConfig {
			return protocol.ServiceConfig{RefitEvery: 4, Metrics: reg}
		}, 25*time.Millisecond, 300*time.Millisecond)
	cliConn := c.peer("cli")
	c.startAll()

	ctx := testCtx(t)
	cli, err := NewClient(ClientConfig{Conn: cliConn, Seeds: []string{"n1", "n2"},
		AttemptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	// Establish replication first, then start losing every hello n1 sends
	// to n2 — from n2's point of view the gossip channel goes dark while
	// model syncs keep arriving.
	xs, ys := chunkAt(2, 50)
	if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
		t.Fatal(err)
	}
	reg2 := c.nodes["n2"].registry()
	waitFor(t, "baseline install on n2", func() bool {
		return counterOf(reg2, "service.g-a.sync.installs") == 1
	})
	c.nodes["n2"].proxy.SetHook(func(dir faultnet.Dir, frame []byte) faultnet.Verdict {
		from, payload, err := transport.PeekSender(frame)
		if err != nil || from != "n1" {
			return faultnet.Pass
		}
		if info, ok := protocol.InspectFrame(payload); ok && info.Kind == protocol.KindSyncHello {
			return faultnet.Drop
		}
		return faultnet.Pass
	})

	// Keep the leader publishing for several grace periods: each 4-record
	// chunk crosses the refit cadence, so each push replicates a model.
	deadline := time.Now().Add(1200 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		xs, ys = chunkAt(float64(6+4*i), 50)
		if _, err := cli.Push(ctx, "g-a", xs, ys); err != nil {
			t.Fatalf("push %d during hello blackout: %v", i, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if n := counterOf(reg2, "service.g-a.sync.installs"); n < 5 {
		t.Fatalf("only %d installs during the blackout — replication was not continuous", n)
	}
	if n := counterOf(reg2, "cluster.failover_promotions"); n != 0 {
		t.Fatalf("replica deposed a leader that was still replicating: %d promotions, want 0", n)
	}
	n2 := c.nodes["n2"].current()
	if len(n2.Leads()) != 0 || len(n2.Follows()) != 1 {
		t.Fatalf("n2 leads %v follows %v, want still a pure follower", n2.Leads(), n2.Follows())
	}
}

// TestRefreshMergesRowsAcrossAnswers pins the client's row-wise merge: after
// concurrent failovers of two groups, each surviving node has adopted its
// own group's promoted row but may still hold the seed row for the other.
// No single answer is fully fresh — only a per-row, per-epoch merge across
// answers discovers both promoted leaders. Whole-table epoch comparison
// would keep a stale row for one of the groups, whichever answer won.
func TestRefreshMergesRowsAcrossAnswers(t *testing.T) {
	net := transport.NewMemNetwork()
	ctx := testCtx(t)

	serve := func(name string, entries []protocol.RouteEntry) {
		conn, err := net.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := []protocol.GroupSpec{
			{ID: "g-a", Unified: clusterLine(t, 4, 0), Model: classify.NewKNN(1)}}
		svc, err := protocol.NewGroupedMiningService(conn, spec, protocol.ServiceConfig{
			RoutesFunc: func() ([]protocol.RouteEntry, uint64) { return entries, 0 }})
		if err != nil {
			t.Fatal(err)
		}
		sctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() { defer close(done); _ = svc.Serve(sctx) }()
		t.Cleanup(func() { cancel(); <-done; _ = conn.Close() })
	}
	// Each node knows about its own group's failover (epoch 1) and still
	// serves the dead seed leader for the other group (epoch 0).
	serve("na", []protocol.RouteEntry{
		{Group: "g-a", Node: "na", Epoch: 1},
		{Group: "g-b", Node: "dead"}})
	serve("nb", []protocol.RouteEntry{
		{Group: "g-a", Node: "dead"},
		{Group: "g-b", Node: "nb", Epoch: 1}})

	cliConn, err := net.Endpoint("cli")
	if err != nil {
		t.Fatal(err)
	}
	cli, err := NewClient(ClientConfig{Conn: cliConn, Seeds: []string{"na", "nb"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	routes, err := cli.Routes(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byGroup := make(map[string]protocol.RouteEntry, len(routes))
	for _, r := range routes {
		byGroup[r.Group] = r
	}
	if len(routes) != 2 || byGroup["g-a"].Node != "na" || byGroup["g-b"].Node != "nb" {
		t.Fatalf("merged routes = %+v, want g-a led by na and g-b led by nb", routes)
	}
	if byGroup["g-a"].Epoch != 1 || byGroup["g-b"].Epoch != 1 {
		t.Fatalf("merged row epochs = %d/%d, want 1/1",
			byGroup["g-a"].Epoch, byGroup["g-b"].Epoch)
	}
}

// TestRefreshQueriesPoolConcurrently pins discovery latency: with most of
// the candidate pool unreachable — the exact situation that forces a
// refresh — the whole pool is asked concurrently, so discovery costs one
// attempt timeout, not pool × timeout.
func TestRefreshQueriesPoolConcurrently(t *testing.T) {
	net := transport.NewMemNetwork()
	ctx := testCtx(t)

	// Three endpoints that exist but never answer (frames vanish into their
	// inboxes), ahead of the one live node in seed order.
	for _, name := range []string{"d1", "d2", "d3"} {
		conn, err := net.Endpoint(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
	}
	liveConn, err := net.Endpoint("live")
	if err != nil {
		t.Fatal(err)
	}
	spec := []protocol.GroupSpec{
		{ID: "g-a", Unified: clusterLine(t, 4, 0), Model: classify.NewKNN(1)}}
	svc, err := protocol.NewGroupedMiningService(liveConn, spec, protocol.ServiceConfig{
		RoutesFunc: func() ([]protocol.RouteEntry, uint64) {
			return []protocol.RouteEntry{{Group: "g-a", Node: "live"}}, 0
		}})
	if err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = svc.Serve(sctx) }()
	t.Cleanup(func() { cancel(); <-done; _ = liveConn.Close() })

	cliConn, err := net.Endpoint("cli")
	if err != nil {
		t.Fatal(err)
	}
	const attempt = 400 * time.Millisecond
	cli, err := NewClient(ClientConfig{Conn: cliConn,
		Seeds: []string{"d1", "d2", "d3", "live"}, AttemptTimeout: attempt})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	start := time.Now()
	routes, err := cli.Routes(ctx)
	elapsed := time.Since(start)
	if err != nil || len(routes) != 1 || routes[0].Node != "live" {
		t.Fatalf("discovery = %+v, %v; want the live node's table", routes, err)
	}
	// Serial discovery would burn three full attempt timeouts (1.2s) before
	// reaching the live node; concurrent discovery is bounded by one.
	if elapsed >= 3*attempt {
		t.Fatalf("discovery took %v with 3 dead candidates — pool was queried serially", elapsed)
	}
}
