package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// syncSendTimeout bounds one model-sync write to a replica so a wedged link
// cannot stall the publisher loop (and with it every other group's
// replication) indefinitely.
const syncSendTimeout = 10 * time.Second

// Durability defaults.
const (
	// DefaultAntiEntropyEvery is the gossip cadence applied when
	// NodeConfig.AntiEntropyEvery is zero: how often leaders hello their
	// replicas and replicas answer their installed state.
	DefaultAntiEntropyEvery = time.Second
	// DefaultFailoverGrace is the leader-silence window applied when
	// NodeConfig.FailoverGrace is zero: a group's first-ranked replica
	// assumes leadership after its leader has been silent this long (the
	// i-th ranked replica waits (i+1)× as long, so dead successors are
	// covered without an election).
	DefaultFailoverGrace = 10 * time.Second
)

// gossipQueueDepth bounds the hand-off queue between the serving loop
// (which must never block) and the node's syncer goroutine. A full queue
// drops the observation — the next anti-entropy round repeats it.
const gossipQueueDepth = 64

// NodeConfig assembles one cluster node.
type NodeConfig struct {
	// Name is this node's transport endpoint name; table rows naming it are
	// the groups it hosts. Required.
	Name string
	// Conn is the node's transport endpoint (its name must match Name so
	// peers' replies and the replicas' SyncFrom authorization line up).
	// Required. The service's responding goroutines, the leader's
	// replication publisher and the durability syncer share this conn
	// concurrently, as transport.Conn.Send allows.
	Conn transport.Conn
	// Table is the cluster routing table. Every node must be constructed from
	// the same table (rendezvous tables guarantee this by derivation);
	// Required.
	Table *Table
	// Groups is the full cluster group list — every node receives the same
	// slice and hosts only the groups whose table row names it, as leader
	// (row's Node) or read replica (listed in the row's Replicas). Specs must
	// not pre-set SyncFrom; the table decides roles. Required, and at least
	// one group must land on this node.
	Groups []protocol.GroupSpec
	// Service carries the serving knobs (workers, batch caps, refit cadence,
	// metrics) applied to the hosted groups. RoutesFunc, OnSyncGossip,
	// OnGroupRegistered and OnGroupEvicted are overwritten with the node's
	// own hooks; OnModelSwap and OnModelSync, if set, are chained: each runs
	// just before the node's own hook.
	Service protocol.ServiceConfig
	// AntiEntropyEvery is the durability-gossip cadence: leaders hello each
	// replica of their replicated groups with (seq, epoch, coverage, row),
	// replicas answer their installed state, and both sides repair from the
	// answers — the restart handshake, the anti-entropy re-push and failover
	// detection all ride these rounds. Zero selects
	// DefaultAntiEntropyEvery; negative disables the gossip entirely
	// (PR 6 behaviour: fire-and-forget replication only).
	AntiEntropyEvery time.Duration
	// FailoverGrace is how long a followed group's leader may stay silent
	// before this node considers it dead: the group's rank-i replica assumes
	// leadership after (i+1)×FailoverGrace without leader contact,
	// announcing the promoted row under a bumped table epoch. Zero selects
	// DefaultFailoverGrace; negative disables failover (groups park on a
	// dead leader, as before). Failover requires the gossip to be enabled.
	FailoverGrace time.Duration
}

// groupState is everything the node tracks for one hosted group, guarded by
// Node.mu. The leader-side fields matter while row names this node as the
// group's leader, contact while it names another node.
type groupState struct {
	// row is this node's routing row for the group, carrying its own epoch:
	// failover adoption replaces individual rows.
	row protocol.RouteEntry
	// f32 is the group's float32 payload preference (GroupSpec.Float32): its
	// model syncs ship packed-float32 blobs.
	f32 bool
	// seq and covered are the leader's sequence counter and the highest
	// ingest count any published or replica-installed model covers.
	seq     uint64
	covered int64
	// modelSeq/modelCov are the sequence and coverage the group's currently
	// served models actually correspond to — set when this node publishes a
	// fit of its own, or floored at the installed sync state when a
	// promotion makes a replica's models the group's serving ones. The seq
	// counter alone is not enough: a restarted leader floors seq at its
	// replicas' installed state while still serving its freshly constructed
	// models, and a send of those under the floored sequence would
	// overwrite a replica's trained models with untrained ones. Sends only
	// ever carry the served models at modelSeq.
	modelSeq uint64
	modelCov int64
	// floored records that a replica state confirmed the numbering; until
	// then a dirty group waits for floorBy before it publishes unfloored.
	floored bool
	floorBy time.Time
	// dirty marks a refit swap not yet published, and swapCov the leader's
	// ingest count at that swap.
	dirty   bool
	swapCov int64
	// owed holds the replicas whose state answers reported a sequence
	// older than modelSeq: each is owed the served models by anti-entropy.
	// A publish owes them to every replica.
	owed map[string]bool
	// lastSync records, per replica, when a model sync was last planned or
	// sent there. A state answer claiming the replica is behind is ignored
	// while a sync is this recent: gossip states are generated
	// asynchronously, so one produced while a just-published model is still
	// in flight (or queued behind the replica's ingest lane) reports the old
	// sequence — re-pushing on that evidence just earns an idempotent
	// reject. A genuinely lost frame still reports behind on the next round,
	// after the window, and is repaired then.
	lastSync map[string]time.Time
	// lagBase is the leader ingest count the last fully replicated publish
	// covered; the replica-lag gauge reads current ingested minus this.
	lagBase int64
	// contact is a followed group's last leader contact.
	contact time.Time
}

func newGroupState(row protocol.RouteEntry, f32 bool) *groupState {
	return &groupState{row: row, f32: f32,
		owed: make(map[string]bool), lastSync: make(map[string]time.Time)}
}

// syncJob is one send of a group's served models: every view at seq and
// cov, to the owed replicas in to.
type syncJob struct {
	group string
	seq   uint64
	cov   int64
	f32   bool
	to    []string
	// publish says why the replicas are owed: a publish (true) or an
	// anti-entropy repair. For a publish, lagMark is the ingest count the
	// replica-lag base advances to once every send lands.
	publish bool
	lagMark int64
}

// Node is one miner process in a cluster: a MiningService hosting the table's
// share of groups, a replication publisher that streams each successful
// refit's served models to the group's followers, and a durability syncer
// that keeps the cluster converging under restarts and partitions. The
// syncer runs three repairs over one gossip exchange (see ARCHITECTURE.md,
// "Cluster durability"):
//
//   - sequence handshake: replicas answer their installed Seq, and a
//     (re)started leader floors its numbering there, so its next publish
//     installs instead of being rejected;
//   - anti-entropy: a replica reporting an older Seq is owed the current
//     models immediately, driving staleness_records back to zero without
//     waiting for the next refit;
//   - failover: when a leader stays silent past the grace period, the
//     next-ranked replica promotes itself, re-announcing the group's row
//     under the row's epoch + 1; nodes and clients merge rows per group by
//     epoch (equal-epoch races settle by a deterministic tie-break), so
//     concurrent failovers of different groups never displace each other.
//
// Construct with NewNode, run with Serve.
type Node struct {
	name    string
	conn    transport.Conn
	svc     *protocol.MiningService
	aeEvery time.Duration // <= 0: durability gossip disabled
	grace   time.Duration // <= 0: failover disabled

	// Dynamic cluster state, all guarded by mu: the hosted-group list (table
	// order, grown and shrunk at runtime by the admin control plane's
	// register/evict hooks) and one state record per hosted group. base is
	// the construction-time table, served verbatim for the groups this node
	// does not host.
	mu     sync.Mutex
	hosted []string
	groups map[string]*groupState
	base   []protocol.RouteEntry

	notify  chan struct{}
	gossipQ chan protocol.SyncGossip

	// mSyncPublished counts a publish once its send has returned, so a
	// counted publish has left this node. mAEPushes counts a repair as it
	// goes out, before the send returns, so no replica can have installed
	// a repair this count still misses (a failed one also counts under
	// mSyncErrors).
	mSyncPublished metrics.Counter // sync frames sent for a publish (one per replica per fit round)
	mSyncErrors    metrics.Counter // encode or send failures while replicating
	mAEPushes      metrics.Counter // sync frames sent to repair a lagging replica
	mPromotions    metrics.Counter // groups this node assumed leadership of
	mDemotions     metrics.Counter // led groups a higher-epoch row took away
	mFloors        metrics.Counter // led groups whose numbering a replica state floored
}

// NewNode partitions cfg.Groups against the routing table and assembles this
// node's share: groups whose row names it as leader are hosted as ordinary
// refitting shards, groups listing it as a replica are hosted with
// SyncFrom pointed at the row's leader (ingest refused, model advanced by
// installed syncs). Groups routed elsewhere are skipped; a node the table
// assigns nothing is a configuration error (ErrNoGroups). Roles are initial:
// failover and higher-epoch gossip may flip them while the node serves.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("%w: empty node name", ErrBadNode)
	}
	if cfg.Conn == nil {
		return nil, fmt.Errorf("%w: nil conn", ErrBadNode)
	}
	if cfg.Table == nil {
		return nil, fmt.Errorf("%w: nil routing table", ErrBadNode)
	}
	if len(cfg.Groups) == 0 {
		return nil, fmt.Errorf("%w: no groups", ErrBadNode)
	}
	aeEvery := cfg.AntiEntropyEvery
	if aeEvery == 0 {
		aeEvery = DefaultAntiEntropyEvery
	}
	grace := cfg.FailoverGrace
	if grace == 0 {
		grace = DefaultFailoverGrace
	}
	n := &Node{
		name:    cfg.Name,
		conn:    cfg.Conn,
		aeEvery: aeEvery,
		grace:   grace,
		groups:  make(map[string]*groupState),
		notify:  make(chan struct{}, 1),
		gossipQ: make(chan protocol.SyncGossip, gossipQueueDepth),
	}
	for _, e := range cfg.Table.Entries() {
		n.base = append(n.base, copyRow(e))
	}

	var hosted []protocol.GroupSpec
	for _, spec := range cfg.Groups {
		if spec.SyncFrom != "" {
			return nil, fmt.Errorf("%w: group %q pre-sets SyncFrom; roles come from the table",
				ErrBadNode, spec.ID)
		}
		route, ok := cfg.Table.Route(spec.ID)
		if !ok {
			return nil, fmt.Errorf("%w: group %q has no routing-table row", ErrBadNode, spec.ID)
		}
		switch {
		case route.Node == cfg.Name:
			hosted = append(hosted, spec)
		case contains(route.Replicas, cfg.Name):
			spec.SyncFrom = route.Node
			hosted = append(hosted, spec)
		default:
			continue
		}
		n.hosted = append(n.hosted, spec.ID)
		n.groups[spec.ID] = newGroupState(route, spec.Float32)
	}
	if len(hosted) == 0 {
		return nil, fmt.Errorf("%w: table routes nothing to %q", ErrNoGroups, cfg.Name)
	}

	svcCfg := cfg.Service
	svcCfg.RoutesFunc = n.routesSnapshot
	svcCfg.OnSyncGossip = n.offerGossip
	svcCfg.OnGroupRegistered = n.addGroup
	svcCfg.OnGroupEvicted = n.dropGroup
	prevSwap := svcCfg.OnModelSwap
	svcCfg.OnModelSwap = func(group string, view int, model classify.Classifier) {
		if prevSwap != nil {
			prevSwap(group, view, model)
		}
		n.noteSwap(group, view)
	}
	prevSync := svcCfg.OnModelSync
	svcCfg.OnModelSync = func(group, from string, seq uint64) {
		if prevSync != nil {
			prevSync(group, from, seq)
		}
		n.noteSyncContact(group, from)
	}
	svc, err := protocol.NewGroupedMiningService(cfg.Conn, hosted, svcCfg)
	if err != nil {
		return nil, err
	}
	n.svc = svc

	m := svcCfg.Metrics
	if m == nil {
		m = metrics.Nop()
	}
	n.mSyncPublished = m.Counter("cluster.sync_published")
	n.mSyncErrors = m.Counter("cluster.sync_errors")
	n.mAEPushes = m.Counter("cluster.anti_entropy_pushes")
	n.mPromotions = m.Counter("cluster.failover_promotions")
	n.mDemotions = m.Counter("cluster.failover_demotions")
	n.mFloors = m.Counter("cluster.handshake_floors")
	if fg, ok := m.(metrics.FuncGauges); ok {
		fg.GaugeFunc("cluster.replica_lag_records", n.replicaLag)
	}
	return n, nil
}

func contains(list []string, s string) bool {
	return indexOf(list, s) >= 0
}

func indexOf(list []string, s string) int {
	for i, v := range list {
		if v == s {
			return i
		}
	}
	return -1
}

func copyRow(e protocol.RouteEntry) protocol.RouteEntry {
	return protocol.RouteEntry{
		Group: e.Group, Node: e.Node, Epoch: e.Epoch,
		Replicas: append([]string(nil), e.Replicas...)}
}

// Name returns the node's endpoint name.
func (n *Node) Name() string { return n.name }

// addGroup folds a runtime-registered group (the admin control plane's
// OnGroupRegistered hook) into the node's cluster state: this node leads it
// with no replicas, under a row epoch above every row this node serves, so
// the new row outranks any stale assignment a peer or client may hold and
// spreads through the existing gossip/refresh machinery — clients discover
// the group on their next routes refresh, without any restart.
func (n *Node) addGroup(group string, f32 bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := newGroupState(protocol.RouteEntry{Group: group, Node: n.name, Epoch: n.epochLocked() + 1}, f32)
	// No replicas yet, so there is no installed numbering to handshake with:
	// publishes start floored.
	st.floored = true
	n.groups[group] = st
	if !contains(n.hosted, group) {
		n.hosted = append(n.hosted, group)
	}
}

// dropGroup retires an evicted group (the admin control plane's
// OnGroupEvicted hook) from the node's cluster state. The routing row goes
// with it; a client still holding the stale row gets ErrUnknownGroup from
// the shard-less service, exactly as the admin contract promises.
func (n *Node) dropGroup(group string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.groups, group)
	if i := indexOf(n.hosted, group); i >= 0 {
		n.hosted = append(n.hosted[:i], n.hosted[i+1:]...)
	}
}

// Service exposes the node's underlying MiningService (ingest totals, group
// listing) for operators and tests.
func (n *Node) Service() *protocol.MiningService { return n.svc }

// Epoch returns the highest row epoch this node serves (0 until a failover
// bumps a hosted row or a higher-epoch row is adopted).
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.epochLocked()
}

// epochLocked is Epoch with mu held. Hosted rows cover both overlays of
// base rows and runtime-registered groups with no base row at all.
func (n *Node) epochLocked() uint64 {
	var max uint64
	for _, e := range n.base {
		if e.Epoch > max {
			max = e.Epoch
		}
	}
	for _, st := range n.groups {
		if st.row.Epoch > max {
			max = st.row.Epoch
		}
	}
	return max
}

// Leads returns the groups this node currently leads, in table order.
func (n *Node) Leads() []string { return n.hostedWhere(true) }

// Follows returns the groups this node currently serves as a read replica,
// in table order.
func (n *Node) Follows() []string { return n.hostedWhere(false) }

func (n *Node) hostedWhere(lead bool) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []string
	for _, g := range n.hosted {
		if (n.groups[g].row.Node == n.name) == lead {
			out = append(out, g)
		}
	}
	return out
}

// routesSnapshot serves the node's current table to kindRoutes requests
// (ServiceConfig.RoutesFunc): the construction-time rows with this node's
// live hosted rows overlaid, so a served row can never be staler than what
// the node itself adopted — there is no separately rebuilt table to fall
// out of sync with the rows. Rows for groups this node does not host are
// served at their construction-time epochs; clients merge row-wise, so a
// fresher row from the group's own assignees always outranks them. The
// frame-level epoch is the highest served row epoch. Runs on the serving
// loop. The returned rows share their Replicas slices with the group
// states, which only ever replace whole rows, never mutate a slice in place.
func (n *Node) routesSnapshot() ([]protocol.RouteEntry, uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	entries := make([]protocol.RouteEntry, 0, len(n.base))
	seen := make(map[string]bool, len(n.base))
	for _, e := range n.base {
		if st, ok := n.groups[e.Group]; ok {
			e = st.row
		}
		seen[e.Group] = true
		entries = append(entries, e)
	}
	// Runtime-registered groups have no base row; serve their live rows after
	// the table, in registration order.
	for _, g := range n.hosted {
		if !seen[g] {
			entries = append(entries, n.groups[g].row)
		}
	}
	return entries, n.epochLocked()
}

// noteSyncContact refreshes a followed group's leader-contact clock when an
// authenticated model sync arrives (ServiceConfig.OnModelSync): replication
// traffic proves the leader is alive even when its gossip frames are lost or
// its syncer stalls, so a leader that still publishes models is never
// deposed. Runs on the group's ingest goroutine.
func (n *Node) noteSyncContact(group, from string) {
	n.mu.Lock()
	if st, ok := n.groups[group]; ok && st.row.Node == from && from != n.name {
		st.contact = time.Now()
	}
	n.mu.Unlock()
}

// replicaLag derives the cluster.replica_lag_records gauge: across the
// currently led groups that have replicas, how many leader-ingested records
// the last fully replicated models do not cover. Zero means followers serve
// fits as fresh as the leader's.
func (n *Node) replicaLag() int64 {
	type lagRow struct {
		group string
		base  int64
	}
	n.mu.Lock()
	var rows []lagRow
	for _, g := range n.hosted {
		if st := n.groups[g]; st.row.Node == n.name && len(st.row.Replicas) > 0 {
			rows = append(rows, lagRow{group: g, base: st.lagBase})
		}
	}
	n.mu.Unlock()
	var lag int64
	for _, r := range rows {
		ingested, err := n.svc.GroupIngested(r.group)
		if err != nil {
			continue
		}
		if d := int64(ingested) - r.base; d > 0 {
			lag += d
		}
	}
	return lag
}

// noteSwap marks a led group dirty after a refit swap
// (ServiceConfig.OnModelSwap) and nudges the publisher. A refit publishes
// every view, then fires the hook once per view in ascending level order;
// only the last view's call marks the group, so one fit round goes out under
// one sequence. It runs on the group's refit goroutine and must not block.
// Swaps in groups this node does not currently lead, or leads without
// replicas, have nowhere to go and are dropped here.
func (n *Node) noteSwap(group string, view int) {
	views, err := n.svc.GroupViewModels(group)
	if err != nil || view != views[len(views)-1].Level {
		return
	}
	ingested, _ := n.svc.GroupIngested(group)
	n.mu.Lock()
	st, ok := n.groups[group]
	if !ok || st.row.Node != n.name || len(st.row.Replicas) == 0 {
		n.mu.Unlock()
		return
	}
	st.dirty = true
	st.swapCov = int64(ingested)
	n.mu.Unlock()
	n.nudge()
}

// offerGossip hands one gossip observation from the serving loop to the
// syncer without blocking; a full queue drops it (the next anti-entropy
// round repeats the exchange).
func (n *Node) offerGossip(g protocol.SyncGossip) {
	select {
	case n.gossipQ <- g:
	default:
	}
}

func (n *Node) nudge() {
	select {
	case n.notify <- struct{}{}:
	default:
	}
}

// floorGrace is how long a led group's publishes wait for a replica to
// answer the sequence handshake before going out unfloored (a cold cluster
// has no installed state to wait for).
func (n *Node) floorGrace() time.Duration {
	return 3 * n.aeEvery
}

// Serve runs the node: the mining service, the replication publisher and —
// unless the gossip is disabled — the durability syncer. It blocks until ctx
// is cancelled or the transport fails, with the same error contract as
// MiningService.Serve.
func (n *Node) Serve(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	now := time.Now()
	n.mu.Lock()
	for _, g := range n.hosted {
		st := n.groups[g]
		switch {
		case st.row.Node != n.name:
			st.contact = now
		case n.aeEvery > 0 && len(st.row.Replicas) > 0:
			// Hold the first publish until a replica answers its installed
			// Seq (the restart handshake) or the grace passes (cold start).
			st.floorBy = now.Add(n.floorGrace())
		default:
			st.floored = true
		}
	}
	n.mu.Unlock()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		n.publishLoop(ctx)
	}()
	if n.aeEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n.syncerLoop(ctx)
		}()
	}
	err := n.svc.Serve(ctx)
	cancel()
	wg.Wait()
	return err
}

// publishLoop drains the owed replicas on every nudge, one publisher per
// node so replication never competes with serving goroutines for anything
// but the conn.
func (n *Node) publishLoop(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case <-n.notify:
		}
		n.replicate(ctx)
	}
}

// replicate runs one drain of the replication path. A dirty led group whose
// handshake floor allows it publishes: its sequence advances once, the
// served models take that sequence, and every replica becomes owed. Then
// every led group's owed replicas — owed by that publish or by an
// anti-entropy state answer — get the served models at modelSeq, in table
// order. A dirty group still waiting on its handshake stays dirty; the
// syncer's next tick nudges it again.
func (n *Node) replicate(ctx context.Context) {
	now := time.Now()
	var jobs []syncJob
	n.mu.Lock()
	for _, g := range n.hosted {
		st := n.groups[g]
		if st.row.Node != n.name || len(st.row.Replicas) == 0 {
			// Demoted (or never replicated) since the swap or the state
			// answer: there is nothing to publish or repair.
			st.dirty = false
			clear(st.owed)
			continue
		}
		job := syncJob{group: g, f32: st.f32}
		if st.dirty && (st.floored || !now.Before(st.floorBy)) {
			st.dirty = false
			st.seq++
			st.covered = max(st.covered, st.swapCov)
			// One sequence covers the whole fit round, which travels as
			// one frame per replica.
			st.modelSeq, st.modelCov = st.seq, st.covered
			job.to, job.publish, job.lagMark = st.row.Replicas, true, st.swapCov
		} else {
			for _, r := range st.row.Replicas {
				if st.owed[r] {
					job.to = append(job.to, r)
				}
			}
		}
		clear(st.owed)
		if len(job.to) == 0 {
			continue
		}
		for _, r := range job.to {
			// Stamped before the send, under the lock the state answers
			// take, so one racing the send cannot owe the replica a
			// duplicate (see lastSync).
			st.lastSync[r] = now
		}
		job.seq, job.cov = st.modelSeq, st.modelCov
		jobs = append(jobs, job)
	}
	n.mu.Unlock()
	for _, j := range jobs {
		n.send(ctx, j)
	}
}

// send encodes the group's served fit round once — every view, in level
// order — and sends it to each of the job's replicas as one frame at the
// job's sequence, counting every frame under cluster.sync_published or
// cluster.anti_entropy_pushes by why the replica was owed (see
// mSyncPublished for when each counts). Encode and send failures are
// counted and dropped — the next refit publishes fresher models anyway,
// anti-entropy repairs a replica that stays behind, and the lag gauge stays
// elevated until a publish lands everywhere.
func (n *Node) send(ctx context.Context, j syncJob) {
	views, err := n.svc.GroupViewModels(j.group)
	if err != nil {
		return // evicted since the drain
	}
	blobs := make([][]byte, len(views))
	for i, vm := range views {
		if blobs[i], err = encodeSyncModel(vm.Model, j.f32); err != nil {
			n.mSyncErrors.Inc()
			return
		}
	}
	allSent := true
	for _, replica := range j.to {
		if !j.publish {
			n.mAEPushes.Inc()
		}
		sctx, cancel := context.WithTimeout(ctx, syncSendTimeout)
		err := protocol.SendModelSync(sctx, n.conn, replica, j.group, j.seq, j.cov, blobs)
		cancel()
		if err != nil {
			n.mSyncErrors.Inc()
			allSent = false
			continue
		}
		if j.publish {
			n.mSyncPublished.Inc()
		}
		n.mu.Lock()
		if st, ok := n.groups[j.group]; ok {
			st.lastSync[replica] = time.Now()
		}
		n.mu.Unlock()
	}
	if allSent && j.publish {
		n.mu.Lock()
		if st, ok := n.groups[j.group]; ok {
			st.lagBase = j.lagMark
		}
		n.mu.Unlock()
	}
}

// encodeSyncModel encodes one model for replication, once per send whatever
// the fan-out: the packed-float32 blob (half the bytes) when the group opted
// into float32 payloads, the float64 blob otherwise. Every replica decodes
// both forms.
func encodeSyncModel(model classify.Classifier, f32 bool) ([]byte, error) {
	if f32 {
		return classify.EncodeModelFloat32(model)
	}
	return classify.EncodeModel(model)
}

// syncerLoop is the durability coordinator: it runs a gossip round
// immediately (the startup handshake) and then on every tick, drains
// observations the serving loop handed off, and checks followed groups for
// failover. One goroutine per node, so gossip sends never race each other.
func (n *Node) syncerLoop(ctx context.Context) {
	ticker := time.NewTicker(n.aeEvery)
	defer ticker.Stop()
	n.gossipRound(ctx)
	for {
		select {
		case <-ctx.Done():
			return
		case g := <-n.gossipQ:
			n.handleGossip(ctx, g)
		case <-ticker.C:
			n.gossipRound(ctx)
			n.checkFailover(ctx)
			n.nudge() // retry publishes parked on the handshake
		}
	}
}

// sendHello announces this leader's sequence, coverage and row for one
// group to one replica. Gossip sends are best-effort and bounded so a dead
// peer costs the syncer a bounded wait, not a stall: failures surface as
// missing answers, which the next round repeats.
func (n *Node) sendHello(ctx context.Context, to string, row protocol.RouteEntry, seq uint64, cov int64) {
	sctx, cancel := n.sendCtx(ctx)
	defer cancel()
	_ = protocol.SendSyncHello(sctx, n.conn, to, row.Group, seq, row.Epoch, cov, row)
}

// sendState answers this replica's installed sequence and coverage for one
// group, with its row, to the named node (best-effort, like sendHello).
func (n *Node) sendState(ctx context.Context, to string, row protocol.RouteEntry) {
	seq, err := n.svc.GroupSyncSeq(row.Group)
	if err != nil {
		return
	}
	cov, _ := n.svc.GroupSyncCovered(row.Group)
	sctx, cancel := n.sendCtx(ctx)
	defer cancel()
	_ = protocol.SendSyncState(sctx, n.conn, to, row.Group, seq, row.Epoch, cov, row)
}

func (n *Node) sendCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, max(n.aeEvery, 50*time.Millisecond))
}

// gossipRound sends one durability exchange: a hello per (led group,
// replica) announcing this leader's sequence, row epoch, coverage and row,
// and a state per followed group answering this replica's installed
// sequence. Each frame carries the epoch of its own group's row — rows are
// versioned individually, so gossip about one group can never misrepresent
// the freshness of another's assignment.
func (n *Node) gossipRound(ctx context.Context) {
	type hello struct {
		row protocol.RouteEntry
		seq uint64
		cov int64
	}
	var hellos []hello
	var states []protocol.RouteEntry
	n.mu.Lock()
	for _, g := range n.hosted {
		st := n.groups[g]
		switch {
		case st.row.Node != n.name:
			states = append(states, st.row)
		case len(st.row.Replicas) > 0:
			hellos = append(hellos, hello{row: st.row, seq: st.seq, cov: st.covered})
		}
	}
	n.mu.Unlock()

	for _, h := range hellos {
		for _, to := range h.row.Replicas {
			n.sendHello(ctx, to, h.row, h.seq, h.cov)
		}
	}
	for _, row := range states {
		n.sendState(ctx, row.Node, row)
	}
}

// handleGossip processes one hello or state observation on the syncer
// goroutine. Row epochs rank first, per group: a higher-epoch row is adopted
// verbatim (failover announcement), a lower-epoch sender is answered with
// this node's newer row, and an equal-epoch row that disagrees with ours is
// resolved by the deterministic tie-break (rowOutranks) — the losing side
// adopts, so two replicas that promoted themselves to the same epoch during
// a partition converge on one leader as soon as they hear each other, with
// no further epoch bump. Only then does the normal handshake and
// anti-entropy logic run.
func (n *Node) handleGossip(ctx context.Context, g protocol.SyncGossip) {
	n.mu.Lock()
	st, hosted := n.groups[g.Group]
	if !hosted {
		n.mu.Unlock()
		return
	}
	theirs := g.Epoch
	var theirRow *protocol.RouteEntry
	if g.Row != nil && g.Row.Group == g.Group {
		theirRow = g.Row
		if theirRow.Epoch > theirs {
			theirs = theirRow.Epoch
		}
	}
	switch {
	case theirs > st.row.Epoch:
		if theirRow != nil {
			row := copyRow(*theirRow)
			row.Epoch = theirs
			n.adoptRowLocked(st, row)
		}
	case theirs < st.row.Epoch:
		// The sender is behind (a restarted old leader, or a replica that
		// missed the failover announcement): teach it the newer row.
		n.teachLocked(ctx, g.From, st)
		return
	default:
		if theirRow != nil && !sameAssignment(*theirRow, st.row) {
			if !rowOutranks(*theirRow, st.row) {
				// Our row wins the tie-break: answer with it so the other
				// promoter yields.
				n.teachLocked(ctx, g.From, st)
				return
			}
			row := copyRow(*theirRow)
			row.Epoch = theirs
			n.adoptRowLocked(st, row)
		}
	}

	row := st.row
	if g.Hello {
		// A leader's announcement. Only meaningful when the row agrees the
		// sender leads the group and this node follows it.
		if row.Node != g.From || row.Node == n.name {
			n.mu.Unlock()
			return
		}
		st.contact = time.Now()
		n.mu.Unlock()
		mySeq, err := n.svc.GroupSyncSeq(g.Group)
		if err != nil {
			return
		}
		var lag int64
		if g.Seq > mySeq {
			myCov, _ := n.svc.GroupSyncCovered(g.Group)
			lag = g.Covered - myCov
		}
		_ = n.svc.ReportSyncLag(g.Group, lag)
		n.sendState(ctx, g.From, row)
		return
	}

	// A replica's state answer. Only meaningful when this node leads the
	// group and the sender is one of its replicas.
	if row.Node != n.name || !contains(row.Replicas, g.From) {
		n.mu.Unlock()
		return
	}
	// The handshake: resume numbering above the replica's installed
	// sequence, so the next publish installs instead of being rejected.
	st.seq = max(st.seq, g.Seq)
	st.covered = max(st.covered, g.Covered)
	if !st.floored {
		st.floored = true
		n.mFloors.Inc()
	}
	// A replica is owed a repair only when it is behind the models this
	// node can actually offer (modelSeq), not merely behind the floored
	// counter: a restarted leader serving its freshly constructed models has
	// nothing trustworthy to send until its next refit publishes. And only
	// when the last sync planned there has had two full gossip rounds to
	// land — states race in-flight installs, and a repair on that stale
	// evidence would be a pointless duplicate (see lastSync).
	behind := g.Seq < st.modelSeq && time.Since(st.lastSync[g.From]) >= 2*n.aeEvery
	if behind {
		st.owed[g.From] = true
	}
	n.mu.Unlock()
	if behind {
		n.nudge()
	}
}

// teachLocked answers a sender whose row for the group is older — or lost
// the equal-epoch tie-break — with this node's row: a hello when this node
// leads the group, a state answer otherwise. The sender runs the same
// comparison on receipt and adopts. Called with mu held; unlocks it.
func (n *Node) teachLocked(ctx context.Context, to string, st *groupState) {
	row, seq, cov := st.row, st.seq, st.covered
	n.mu.Unlock()
	if row.Node == n.name {
		n.sendHello(ctx, to, row, seq, cov)
		return
	}
	n.sendState(ctx, to, row)
}

// adoptRowLocked installs a fresher (or tie-break-winning) row for one
// hosted group. Only that group's row is replaced — other groups' rows and
// epochs are unrelated, so concurrent failovers compose — and the group's
// shard flips role if the row moved leadership. Called with mu held.
func (n *Node) adoptRowLocked(st *groupState, row protocol.RouteEntry) {
	old := st.row
	st.row = row
	now := time.Now()
	if row.Node != n.name {
		if old.Node == n.name {
			n.mDemotions.Inc()
		}
		st.contact = now
		_ = n.svc.SetGroupFollow(row.Group, row.Node)
		return
	}
	if old.Node != n.name {
		n.mPromotions.Inc()
	}
	// Floor the new leadership's numbering at what this node installed as a
	// replica, and wait for the other replicas' states before the first
	// publish. The installed models are the ones this node now serves, so
	// anti-entropy may offer them under that sequence.
	if s, err := n.svc.GroupSyncSeq(row.Group); err == nil {
		st.seq = max(st.seq, s)
		if s > st.modelSeq {
			st.modelSeq = s
			if c, err := n.svc.GroupSyncCovered(row.Group); err == nil {
				st.modelCov = c
			}
		}
	}
	if c, err := n.svc.GroupSyncCovered(row.Group); err == nil {
		st.covered = max(st.covered, c)
	}
	st.floored = len(row.Replicas) == 0 || n.aeEvery <= 0
	if !st.floored {
		st.floorBy = now.Add(n.floorGrace())
	}
	_ = n.svc.SetGroupLead(row.Group)
}

// checkFailover promotes this node for any followed group whose leader has
// been silent past the node's rank-scaled grace: the first-ranked replica
// waits one grace period, the second two, and so on — dead successors are
// covered without an election, at the cost of a longer outage.
func (n *Node) checkFailover(ctx context.Context) {
	if n.grace <= 0 {
		return
	}
	now := time.Now()
	var stale []string
	n.mu.Lock()
	for _, g := range n.hosted {
		st := n.groups[g]
		rank := indexOf(st.row.Replicas, n.name)
		if st.row.Node == n.name || rank < 0 {
			continue
		}
		if st.contact.IsZero() {
			st.contact = now
			continue
		}
		if now.Sub(st.contact) > n.grace*time.Duration(rank+1) {
			stale = append(stale, g)
		}
	}
	n.mu.Unlock()
	for _, g := range stale {
		n.promote(ctx, g)
	}
}

// promote assumes leadership of one followed group: the old leader is
// demoted to the row's last-ranked replica, the row is re-announced under
// its own epoch + 1 (hello to every new replica, the demoted leader
// included) — other groups' rows are untouched, so a node that led several
// groups failing over concurrently on different successors produces rows
// that merge cleanly everywhere — and this node's numbering resumes above
// its installed sequence.
func (n *Node) promote(ctx context.Context, group string) {
	n.mu.Lock()
	st, ok := n.groups[group]
	if !ok || st.row.Node == n.name {
		n.mu.Unlock()
		return
	}
	n.adoptRowLocked(st, promoteRow(st.row, n.name))
	row, seq, cov := st.row, st.seq, st.covered
	n.mu.Unlock()

	for _, to := range row.Replicas {
		n.sendHello(ctx, to, row, seq, cov)
	}
}

// promoteRow derives the failover row under the old row's epoch + 1: the
// successor leads, the remaining replicas keep their ranks, and the old
// leader re-enters as the last-ranked replica (it rejoins as a follower
// when it restarts).
func promoteRow(row protocol.RouteEntry, successor string) protocol.RouteEntry {
	replicas := make([]string, 0, len(row.Replicas))
	for _, r := range row.Replicas {
		if r != successor {
			replicas = append(replicas, r)
		}
	}
	replicas = append(replicas, row.Node)
	return protocol.RouteEntry{
		Group: row.Group, Node: successor, Epoch: row.Epoch + 1, Replicas: replicas}
}
