package protocol

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// Typed errors of the serving subsystem. ErrServiceClosed means the link or
// the service is gone; the others describe a rejected request and leave the
// client usable.
var (
	// ErrServiceClosed is returned when the service answered with an
	// internal error or the link failed.
	ErrServiceClosed = errors.New("protocol: mining service unavailable")
	// ErrBadQuery flags an empty batch or a record whose dimension does not
	// match the service model.
	ErrBadQuery = errors.New("protocol: malformed classification query")
	// ErrBatchTooLarge flags a batch exceeding the service's MaxBatch.
	ErrBatchTooLarge = errors.New("protocol: classification batch too large")
	// ErrWireVersion flags a frame whose service wire version the peer does
	// not speak.
	ErrWireVersion = errors.New("protocol: unsupported service wire version")
	// ErrBadChunk flags a malformed stream-ingest chunk (empty, mis-shaped,
	// or carrying labels that do not line up with its records).
	ErrBadChunk = errors.New("protocol: malformed stream chunk")
	// ErrRefit means a streamed chunk WAS folded into the training set but
	// retraining the model on the grown set failed; the service keeps
	// serving on its previous fit. Re-pushing the chunk would duplicate its
	// records.
	ErrRefit = errors.New("protocol: service model refit failed")
	// ErrUnknownGroup flags a frame addressed to a serving group the miner
	// does not host.
	ErrUnknownGroup = errors.New("protocol: unknown serving group")
	// ErrNotMember flags a peer addressing a serving group whose member
	// list does not include it — the cross-group routing contract of a
	// multi-tenant miner (membership is checked against the self-declared
	// transport sender name; see GroupSpec.Members for the trust model).
	ErrNotMember = errors.New("protocol: peer not registered to serving group")
	// ErrBusy flags a frame rejected because the addressed group's bounded
	// ingest or prediction queue was full: the service answered within one
	// round trip instead of stalling its shared receive loop (and with it,
	// every other group). The request had no effect — an ErrBusy'd chunk was
	// NOT folded in — so retrying after a short backoff is always safe, and
	// ServiceClient does so automatically (see Backoff).
	ErrBusy = errors.New("protocol: serving group busy")
	// ErrNotLeader flags an ingest frame addressed to a read replica of a
	// clustered group. Replicas serve classify traffic only; pushes belong on
	// the group's leader node (the routing table names it), so the chunk was
	// NOT folded in and must be re-sent to the leader.
	ErrNotLeader = errors.New("protocol: group is a read replica here; push to its leader")
	// ErrQuota flags an ingest chunk rejected because the group's
	// records-per-second quota (GroupQuota) is exhausted. The chunk was NOT
	// folded in. Unlike ErrBusy this is policy, not transient load: the
	// client does not retry it, the caller backs off to the configured rate
	// (or the operator raises the quota through the admin plane).
	ErrQuota = errors.New("protocol: serving group ingest quota exhausted")
	// ErrAdminDenied flags an admin frame that failed authentication: the
	// token did not match, or the service runs with no admin token and the
	// control plane is disabled.
	ErrAdminDenied = errors.New("protocol: admin access denied")
	// ErrGroupExists flags a register for a group ID the service already
	// hosts. Evict it first to replace it.
	ErrGroupExists = errors.New("protocol: serving group already registered")
	// ErrUnknownView flags a frame addressing a trust view (level) the
	// group does not serve. Distinct from ErrNotMember: the view does not
	// exist for anyone, rather than existing but excluding this peer.
	ErrUnknownView = errors.New("protocol: unknown trust view for serving group")
)

// serviceMagic prefixes every service frame so serving traffic is
// distinguishable from SAP protocol frames at the payload level: a query
// that races the tail of a SAP run can be stashed instead of tripping the
// miner's violation checks.
const serviceMagic = 0x53 // 'S'

// ServiceWireVersion is the service frame version and the only one a peer
// accepts. Every node runs the same binary, so no older peer exists to stay
// compatible with: a frame stamped with any other byte — the retired
// versions 1–10 included — is answered with a typed ErrWireVersion (its ID,
// Kind and Group echoed when the body still decodes), never read under
// different rules. Bump it whenever the frame layout or the meaning of a
// field changes.
const ServiceWireVersion = 11

// Wire error codes carried in service responses, mapped back to the typed
// errors above by the client.
const (
	codeOK uint8 = iota
	codeBadQuery
	codeBatchTooLarge
	codeWireVersion
	codeInternal
	codeBadChunk
	codeRefit
	codeUnknownGroup
	codeNotMember
	// codeBusy rejects a frame whose group queue was full.
	codeBusy
	// codeNotLeader rejects an ingest frame addressed to a read replica.
	codeNotLeader
	// codeQuota rejects an ingest chunk that exhausted the group's
	// records-per-second token bucket (GroupQuota). Unlike codeBusy it is
	// not retried by the client's backoff: quota is policy, not transient
	// load, and the operator raises it through the admin plane.
	codeQuota
	// codeAdminDenied rejects an admin frame whose Token does not match the
	// service's configured admin token (or any admin frame when no token is
	// configured, which disables the control plane entirely).
	codeAdminDenied
	// codeGroupExists rejects a register for a group ID the service already
	// hosts.
	codeGroupExists
	// codeUnknownView rejects a frame addressing a trust view (level) the
	// group does not serve.
	codeUnknownView
)

// Frame kinds carried in serviceWire.Kind. The zero value is a
// classification query, so a frame that omits Kind is a classify frame.
const (
	kindClassify uint8 = iota
	kindIngest
	// kindRoutes is the cluster admin frame: a request asks any node for the
	// cluster's routing table, the response carries it in Routes. The table
	// is service-wide, so the frame bypasses group routing entirely.
	kindRoutes
	// kindModelSync is the leader-to-replica replication frame: after a
	// successful refit swap, the group's leader streams the whole fit round —
	// every view's encoded classifier (Models, classify.EncodeModel format,
	// sequenced by Seq) — to each follower in one frame, which installs the
	// views together with the same lock-free atomic publish refits use, or
	// none of them. Sent fire-and-forget with ID 0 — the follower
	// sends no response — so a downed follower costs the leader one failed
	// send, never a stalled wait.
	kindModelSync
	// kindSyncHello is the leader half of the durability gossip: a
	// group's leader periodically announces its published Seq, table Epoch,
	// ingest coverage (Covered) and routing-table row (Routes[0]) to each
	// replica. A replica answers with kindSyncState, letting a restarted
	// leader resume numbering above the replicas' installed sequences and a
	// lagging replica measure its staleness. Fire-and-forget (ID 0).
	kindSyncHello
	// kindSyncState is the replica half of the durability gossip: the
	// replica's last installed Seq, Epoch and row. A leader floors its
	// per-group sequence at the answered Seq (the restart handshake) and
	// re-pushes the current model to any replica reporting an older one (the
	// anti-entropy pull). Fire-and-forget (ID 0).
	kindSyncState
	// kindAdminRegister is the control-plane frame that registers a new
	// serving group on a live service: the request's Spec carries the group
	// definition (training records, encoded model, cadence, queues, quota),
	// authenticated by Token. The service fits the model off the serving
	// loop, starts the group's lanes, and answers codeOK — or
	// codeGroupExists, codeAdminDenied, codeBadQuery.
	kindAdminRegister
	// kindAdminEvict is the control-plane frame that removes a serving
	// group: its ingest queue drains, queued classifies answer, the refit
	// goroutine stops, and subsequent frames for the group are rejected with
	// codeUnknownGroup.
	kindAdminEvict
	// kindAdminUpdate is the control-plane frame that reconfigures a live
	// group in place: the request's Update names which limits change (quota,
	// batch cap, refit cadence, members ACL) without touching the rest.
	kindAdminUpdate
	// kindAdminList is the control-plane frame that asks a service for
	// its hosted groups; the response's Infos describes each one.
	kindAdminList
)

// isAdminControl reports whether a frame kind belongs to the admin
// control plane (authenticated, handled off the group router).
func isAdminControl(kind uint8) bool {
	return kind >= kindAdminRegister && kind <= kindAdminList
}

// Exported frame-kind values for tools that inspect raw frames (the faultnet
// test harness matches sync traffic by kind via InspectFrame).
const (
	KindModelSync = kindModelSync
	KindSyncHello = kindSyncHello
)

// RouteEntry is one row of the cluster routing table: the group's leader
// node (the only node accepting ingest for the group) and the read replicas
// that additionally serve its classify traffic. Node names are transport
// endpoint names.
type RouteEntry struct {
	// Group is the serving-group ID the row routes.
	Group string
	// Node is the group's leader endpoint.
	Node string
	// Replicas are the follower endpoints serving read-only classify
	// traffic for the group (may be empty).
	Replicas []string
	// Epoch versions this row alone: failover re-announces a promoted row
	// under the old row's epoch + 1, and nodes and clients merge tables
	// row-wise, keeping the highest-epoch row they have seen per group —
	// concurrent failovers of different groups never invalidate each
	// other's rows. Operator-pinned tables leave it 0, in which case a
	// routes answer's table-level Epoch applies to every row at once.
	Epoch uint64
}

// serviceWire is the request/response frame of the post-unification mining
// service. One request carries a whole batch and is answered by exactly one
// response frame, so a ClassifyBatch costs a single round trip.
type serviceWire struct {
	// ID correlates responses with requests; the client's demultiplexer
	// routes on it.
	ID uint64
	// Kind discriminates classification queries (kindClassify) from
	// stream-ingest chunks (kindIngest).
	Kind uint8
	// Group names the serving group (contract) the frame addresses. Empty
	// on clients of single-group services; the router maps it to
	// DefaultGroup.
	Group string
	// View names the trust level the frame addresses within its group
	// (GroupSpec.Views). On a request, zero routes to the sender's
	// highest-authorized view; every response echoes the level that served
	// it.
	View int
	// Batch carries the records, already transformed into the group's
	// target space by the caller (providers know G_t; the miner never sees
	// clear data). For classify frames it is the query; for ingest frames
	// it is a chunk of perturbed training records.
	Batch [][]float64
	// Labels carries class labels: in a classify response, one prediction
	// per batch record; in an ingest request, the true label of each pushed
	// training record.
	Labels []int
	// Accepted is the ingest response: the group's total training-set size
	// after folding the chunk in.
	Accepted int
	// Routes carries the cluster routing table in a kindRoutes response.
	Routes []RouteEntry
	// Models carries one fit round in a kindModelSync request: every view's
	// encoded classifier (classify.EncodeModel format), in ascending level
	// order.
	Models [][]byte
	// Seq orders kindModelSync frames per group: a follower installs a sync
	// only when its Seq exceeds the last installed one, so re-deliveries and
	// reordered frames are idempotent. Gossip frames carry the sender's
	// current sequence in it.
	Seq uint64
	// Epoch versions the routing state a frame speaks for. On gossip frames
	// it is the epoch of the row the frame carries; on routes responses it
	// is the table-level epoch, which applies to every row only when the
	// rows carry no per-row epochs of their own (RouteEntry.Epoch) —
	// receivers merge row-wise and keep the highest epoch seen per group.
	Epoch uint64
	// Covered is the leader ingest count the frame's model (or announced
	// sequence) covers; replicas derive staleness_records from the gap
	// between a hello's Covered and their own installed coverage.
	Covered int64
	// Batch32 is the packed-float32 form of Batch (little-endian, Dim
	// features per record), sent by float32 clients (WireOptions.Float32).
	// Every peer decodes it, so no negotiation precedes it. The decoder
	// expands it back into Batch and clears it, so everything past the
	// frame codec sees one canonical batch representation.
	Batch32 []byte
	// Dim is the per-record feature count of Batch32.
	Dim int
	// Token authenticates admin frames (kindAdminRegister through
	// kindAdminList) against the service's configured admin token. Never set
	// on serving frames.
	Token string
	// Spec carries the new group's definition on a kindAdminRegister
	// request.
	Spec *AdminGroupSpec
	// Update carries the in-place limit changes of a kindAdminUpdate
	// request.
	Update *AdminUpdate
	// Infos describes the hosted groups in a kindAdminList response.
	Infos []AdminGroupInfo
	// Code is a machine-readable failure class (response only, codeOK on
	// success).
	Code uint8
	// Err is the human-readable failure detail (response only).
	Err string
	// Response discriminates request from response frames.
	Response bool
}

// IsServiceFrame reports whether a raw transport payload is a service frame
// (of any version, so a mismatched one can still be answered). Protocol
// drivers use it to divert early queries that arrive while the SAP run is
// still completing.
func IsServiceFrame(payload []byte) bool {
	return len(payload) >= 2 && payload[0] == serviceMagic
}

// encBufPool recycles the gob encode buffers of the service and SAP frame
// encoders. Encoders write into a pooled buffer and copy the exact-size
// payload out, so the steady state allocates one right-sized payload per
// frame instead of re-growing a fresh bytes.Buffer through its doubling
// schedule every time. (The gob encoder itself cannot be pooled: each frame
// must be a self-contained gob stream, with its own type descriptors, for
// the peer's independent per-frame decoder.)
var encBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func encodeServiceWire(w *serviceWire) ([]byte, error) {
	return encodeServiceFrame(w, false)
}

// encodeServiceFrame frames w as magic, ServiceWireVersion and the gob
// body. f32 packs the batch (if any) as float32 into Batch32; every peer
// decodes that form, so the choice is the sender's alone.
func encodeServiceFrame(w *serviceWire, f32 bool) ([]byte, error) {
	if f32 && len(w.Batch) > 0 {
		if b32, dim := matrix.PackFloat32Rows(w.Batch); dim > 0 {
			cp := *w // callers may retry with the same frame; never mutate it
			cp.Batch32, cp.Dim = b32, dim
			cp.Batch = nil
			w = &cp
		}
	}
	buf := encBufPool.Get().(*bytes.Buffer)
	defer encBufPool.Put(buf)
	buf.Reset()
	buf.WriteByte(serviceMagic)
	buf.WriteByte(ServiceWireVersion)
	if err := gob.NewEncoder(buf).Encode(w); err != nil {
		return nil, fmt.Errorf("protocol: encode service frame: %w", err)
	}
	return bytes.Clone(buf.Bytes()), nil
}

// decodeServiceWire unpacks a service frame. A nil frame with a nil error
// means "not a service frame, ignore". A frame stamped with any version but
// ServiceWireVersion answers ErrWireVersion, together with the decoded
// frame when its body still decodes, so the peer can be answered with its
// request ID.
func decodeServiceWire(payload []byte) (*serviceWire, error) {
	if !IsServiceFrame(payload) {
		return nil, nil
	}
	version := payload[1]
	var versionErr error
	if version != ServiceWireVersion {
		versionErr = fmt.Errorf("%w: got v%d, speak v%d", ErrWireVersion, version, ServiceWireVersion)
	}
	var w serviceWire
	if err := gob.NewDecoder(bytes.NewReader(payload[2:])).Decode(&w); err != nil {
		if versionErr != nil {
			return nil, versionErr
		}
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if versionErr != nil {
		return &w, versionErr
	}
	if len(w.Batch32) > 0 {
		// Expand the packed-float32 batch so everything past the frame codec
		// — shard handlers, clients, re-encoders — sees one canonical batch
		// representation. Clearing the packed form keeps re-encoding from
		// duplicating the payload.
		batch, err := matrix.UnpackFloat32Rows(w.Batch32, w.Dim)
		if err != nil {
			return nil, fmt.Errorf("%w: float32 batch: %v", ErrBadMessage, err)
		}
		if len(w.Batch) == 0 {
			w.Batch = batch
		}
		w.Batch32, w.Dim = nil, 0
	}
	return &w, nil
}

// ServiceConfig tunes the miner-side serving loop. One config applies
// service-wide; per-group overrides live on GroupSpec.
type ServiceConfig struct {
	// Workers is the default size of each group's dedicated prediction pool
	// (default: GOMAXPROCS). GroupSpec.Workers overrides it per group. The
	// pools are per group and spawned up front, so a miner hosting G
	// groups runs up to G×Workers prediction goroutines; many-group
	// deployments should set a small per-group Workers to bound the total.
	Workers int
	// MaxBatch caps the records accepted in one request (default 4096).
	// Oversized batches are rejected with ErrBatchTooLarge, not served.
	// GroupSpec.MaxBatch overrides it per group.
	MaxBatch int
	// RefitEvery is the number of stream-ingested records a group
	// accumulates before the service retrains that group's model on its
	// grown training set (default DefaultRefitEvery; negative disables
	// automatic refits, in which case ingested records sit in the training
	// set until the next triggered refit — useful when a deployment refits
	// on its own schedule). GroupSpec.RefitEvery overrides it per group.
	RefitEvery int
	// Metrics receives the service's instrumentation: per-group request,
	// ingest and refit counters under the "service.<group>." namespace plus
	// the service-wide unknown-group rejection count (see ARCHITECTURE.md
	// for the full catalogue). Nil discards all updates.
	Metrics metrics.Metrics
	// RoutesFunc, when set, serves the cluster routing table: kindRoutes
	// requests are answered with the entries and table epoch it returns. The
	// cluster layer hooks it so failover-promoted tables (with their bumped
	// epochs) reach clients without a service restart. It runs on the serving
	// loop and must not block. Standalone (non-cluster) services leave it nil
	// and answer discovery with an empty table.
	RoutesFunc func() ([]RouteEntry, uint64)
	// OnModelSwap, when set, is called after every successful background
	// refit swap — once per trust view in ascending level order, with the
	// group ID, the view's level and its freshly published classifier
	// (groups without GroupSpec.Views report their one view as level 1).
	// The cluster layer hooks it to replicate the new models to the group's
	// read replicas. It runs on the group's refit goroutine, so it must not
	// block; hand the model off and return.
	OnModelSwap func(group string, view int, model classify.Classifier)
	// OnSyncGossip, when set, receives every durability-gossip frame
	// (kindSyncHello, kindSyncState) addressed to this service. The cluster
	// layer hooks it to run the sequence handshake, anti-entropy re-push and
	// failover adoption. It runs on the serving loop and must not block; hand
	// the observation off and return.
	OnSyncGossip func(g SyncGossip)
	// OnModelSync, when set, is called for every model-sync frame accepted
	// from a group's authorized sync source — installed or idempotently
	// rejected as a replay — with the group, the sending leader and the
	// frame's sequence. The cluster layer hooks it to count replication
	// traffic as leader liveness: a leader whose gossip frames are being
	// dropped is not deposed while its models keep arriving. It runs on the
	// group's ingest goroutine and must not block.
	OnModelSync func(group, from string, seq uint64)
	// AdminToken enables the admin control plane: admin frames whose
	// Token matches (constant-time compare) may register, evict, update and
	// list serving groups at runtime. Empty (the default) disables the
	// control plane entirely — every admin frame answers ErrAdminDenied —
	// so a service is never administrable by accident.
	AdminToken string
	// RefitRetry is how long a group waits after a failed background refit
	// before re-attempting it from the same training snapshot, so a
	// transient fit failure heals without waiting for the next ingest to
	// cross the cadence. A newer scheduled refit supersedes the retry. Zero
	// selects DefaultRefitRetry; negative disables retries.
	RefitRetry time.Duration
	// OnGroupRegistered, when set, is called after the admin control plane
	// registers a new group, with the group ID and its float32-payload
	// preference. The cluster layer hooks it to grow the routing table (the
	// node leads the new group under an epoch-bumped row, so clients
	// discover it without restart). Runs on an admin goroutine, off the
	// serving loop.
	OnGroupRegistered func(group string, float32Payloads bool)
	// OnGroupEvicted, when set, is called after the admin control plane
	// drains and removes a group. The cluster layer hooks it to drop the
	// group's routing row and sync state.
	OnGroupEvicted func(group string)
}

// SyncGossip is one durability-gossip observation handed to
// ServiceConfig.OnSyncGossip: a sync-hello from a group's leader, or a
// sync-state answer from one of its replicas.
type SyncGossip struct {
	// Hello is true for a leader's kindSyncHello, false for a replica's
	// kindSyncState.
	Hello bool
	// From is the sender's transport endpoint name.
	From string
	// Group is the serving group the gossip speaks for.
	Group string
	// Seq is the sender's current model sequence: the last published one on a
	// hello, the last installed one on a state.
	Seq uint64
	// Epoch is the epoch of the sender's routing-table row for Group (rows
	// are versioned individually; see RouteEntry.Epoch).
	Epoch uint64
	// Covered is the leader ingest count the sender's sequence covers.
	Covered int64
	// Row is the sender's routing-table row for Group (nil when the frame
	// carried none). Receivers behind on the row's epoch adopt it verbatim;
	// equal-epoch disagreements converge by a deterministic tie-break.
	Row *RouteEntry
}

// DefaultMaxBatch is the batch-size cap applied when ServiceConfig.MaxBatch
// is zero.
const DefaultMaxBatch = 4096

// DefaultRefitEvery is the ingest refit cadence applied when
// ServiceConfig.RefitEvery is zero.
const DefaultRefitEvery = 256

// DefaultRefitRetry is the failed-refit retry delay applied when
// ServiceConfig.RefitRetry is zero.
const DefaultRefitRetry = 5 * time.Second

// serviceSendTimeout bounds one response write so a peer that stops reading
// cannot stall the goroutine answering it indefinitely.
const serviceSendTimeout = 30 * time.Second

// Defaults applied by Backoff.withDefaults. A full retry budget waits
// 2+4+8+16+32+64+128 ms ≈ 254 ms in total — long enough for an ingest lane
// to drain a full queue, short enough that a persistently wedged group
// surfaces ErrBusy instead of hiding it behind client-side patience.
const (
	// DefaultBusyTries is the total number of attempts per request.
	DefaultBusyTries = 8
	// DefaultBusyBase is the delay before the first retry.
	DefaultBusyBase = 2 * time.Millisecond
	// DefaultBusyMax caps the doubling retry delay.
	DefaultBusyMax = 250 * time.Millisecond
)

// Backoff is the capped exponential retry policy a ServiceClient applies to
// busy-rejected requests: after an ErrBusy response the client waits Base,
// doubles the wait per retry up to Max, and gives up — returning ErrBusy to
// the caller — after Tries total attempts. The zero value selects the
// defaults; Tries = 1 disables retries, making every busy rejection
// immediately visible to the caller.
type Backoff struct {
	// Tries is the total number of attempts, including the first
	// (default DefaultBusyTries; 1 disables retries).
	Tries int
	// Base is the delay before the first retry (default DefaultBusyBase).
	Base time.Duration
	// Max caps the exponentially growing delay (default DefaultBusyMax).
	Max time.Duration
}

func (b Backoff) withDefaults() Backoff {
	if b.Tries <= 0 {
		b.Tries = DefaultBusyTries
	}
	if b.Base <= 0 {
		b.Base = DefaultBusyBase
	}
	if b.Max <= 0 {
		b.Max = DefaultBusyMax
	}
	return b
}

func (c ServiceConfig) withDefaults() ServiceConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.RefitEvery == 0 {
		c.RefitEvery = DefaultRefitEvery
	}
	if c.RefitRetry == 0 {
		c.RefitRetry = DefaultRefitRetry
	}
	if c.Metrics == nil {
		c.Metrics = metrics.Nop()
	}
	return c
}

// ServiceClient is the provider-side handle for querying the mining
// service. Queries must already be in the target space of the client's
// group (providers hold G_t from their group's SAP run and apply it
// noiselessly to each record).
//
// The client owns its connection's receive side: a background demultiplexer
// routes responses to waiting callers by request ID, so any number of
// goroutines may call Classify and ClassifyBatch concurrently over one
// connection. Close the client to release the demultiplexer.
type ServiceClient struct {
	conn  transport.Conn
	miner string
	group string
	// view is the trust level stamped on classify/ingest frames (0 routes
	// to the caller's highest-authorized view); configured with SetView
	// before the first request.
	view int
	// backoff is the busy-retry policy applied by ClassifyBatch and
	// PushChunk; configured with SetBackoff before the first request.
	backoff Backoff
	// wire selects the client's wire format; configured with
	// SetWireOptions before the first request.
	wire WireOptions

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *serviceWire
	failed  bool
	cause   error

	done      chan struct{} // closed when the demultiplexer has failed
	loopDone  chan struct{} // closed when the demultiplexer has exited
	closeOnce sync.Once
	stopRecv  context.CancelFunc
}

// NewServiceClient binds a client to a transport endpoint and starts its
// response demultiplexer. The connection's receive side belongs to the
// client from this point on. Frames carry no group name, so they route to
// the service's DefaultGroup; multi-group deployments use
// NewGroupServiceClient.
func NewServiceClient(conn transport.Conn, miner string) (*ServiceClient, error) {
	return NewGroupServiceClient(conn, miner, "")
}

// NewGroupServiceClient is NewServiceClient for one serving group of a
// sharded miner: every frame the client sends is stamped with the group ID,
// so the service routes it to that group's model shard. An empty group
// routes to DefaultGroup.
func NewGroupServiceClient(conn transport.Conn, miner, group string) (*ServiceClient, error) {
	if miner == "" {
		return nil, fmt.Errorf("%w: missing miner endpoint", ErrBadConfig)
	}
	recvCtx, stop := context.WithCancel(context.Background())
	c := &ServiceClient{
		conn:     conn,
		miner:    miner,
		group:    group,
		pending:  make(map[uint64]chan *serviceWire),
		done:     make(chan struct{}),
		loopDone: make(chan struct{}),
		stopRecv: stop,
	}
	go c.recvLoop(recvCtx)
	return c, nil
}

// SetBackoff replaces the client's busy-retry policy (the zero Backoff
// restores the defaults; Tries = 1 disables retries so ErrBusy surfaces on
// the first rejection). Call it before issuing requests — it is not
// synchronized against in-flight calls.
func (c *ServiceClient) SetBackoff(b Backoff) { c.backoff = b }

// SetView pins the trust level the client's classify and ingest frames
// address within the group (GroupSpec.Views). Zero — the default —
// routes each frame to the caller's highest-authorized view; a level the
// group does not serve answers ErrUnknownView, one the caller is not
// admitted to answers ErrNotMember. Call it before issuing requests — it is
// not synchronized against in-flight calls.
func (c *ServiceClient) SetView(level int) { c.view = level }

// WireOptions selects the wire format a ServiceClient sends in.
type WireOptions struct {
	// Float32 packs classify/ingest batches as float32, halving batch bytes
	// at float32 precision (~7 significant digits — see the
	// WithFloat32Payloads precision contract). Every service decodes the
	// packed form, so it applies from the first frame.
	Float32 bool
}

// SetWireOptions replaces the client's wire-format selection. Call it
// before issuing requests — it is not synchronized against in-flight calls.
func (c *ServiceClient) SetWireOptions(o WireOptions) { c.wire = o }

// retryBusy runs one request attempt through the client's backoff policy:
// busy rejections are retried with capped exponential delays, any other
// outcome (success or a different typed error) is returned as is. A context
// cancellation or client failure during a backoff wait ends the retry loop
// immediately.
func (c *ServiceClient) retryBusy(ctx context.Context, op func() error) error {
	b := c.backoff.withDefaults()
	delay := b.Base
	var err error
	for try := 0; try < b.Tries; try++ {
		if try > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return ctx.Err()
			case <-c.done:
				timer.Stop()
				return c.terminalErr()
			}
			if delay *= 2; delay > b.Max {
				delay = b.Max
			}
		}
		if err = op(); !errors.Is(err, ErrBusy) {
			return err
		}
	}
	return err // still ErrBusy after the final attempt
}

// recvLoop routes every incoming response frame to the caller waiting on its
// ID. Frames for unknown IDs (cancelled requests, foreign traffic) are
// dropped.
func (c *ServiceClient) recvLoop(ctx context.Context) {
	defer close(c.loopDone)
	for {
		env, err := c.conn.Recv(ctx)
		if err != nil {
			c.fail(fmt.Errorf("%w: %v", ErrServiceClosed, err))
			return
		}
		// A version-mismatch rejection still carries the request ID and a
		// typed code; deliver it so the caller gets ErrWireVersion instead
		// of hanging. Only undecodable or non-response traffic is dropped.
		resp, _ := decodeServiceWire(env.Payload)
		if resp == nil || !resp.Response {
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[resp.ID]
		if ok {
			delete(c.pending, resp.ID)
		}
		c.mu.Unlock()
		if ok {
			ch <- resp // buffered; never blocks
		}
	}
}

// fail marks the client dead and wakes every in-flight caller.
func (c *ServiceClient) fail(cause error) {
	c.mu.Lock()
	if c.failed {
		c.mu.Unlock()
		return
	}
	c.failed = true
	c.cause = cause
	for id, ch := range c.pending {
		delete(c.pending, id)
		close(ch)
	}
	c.mu.Unlock()
	close(c.done)
}

// terminalErr returns the recorded failure cause (always non-nil once the
// client has failed).
func (c *ServiceClient) terminalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cause != nil {
		return c.cause
	}
	return ErrServiceClosed
}

// Close stops the demultiplexer and fails all in-flight requests. The
// underlying connection is left open (it may be shared with other traffic on
// the send side).
func (c *ServiceClient) Close() error {
	c.closeOnce.Do(func() {
		c.stopRecv()
		<-c.loopDone
	})
	return nil
}

// register allocates a request ID and its response channel.
func (c *ServiceClient) register() (uint64, chan *serviceWire, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.failed {
		return 0, nil, c.cause
	}
	c.nextID++
	ch := make(chan *serviceWire, 1)
	c.pending[c.nextID] = ch
	return c.nextID, ch, nil
}

// unregister abandons an in-flight request (send failure or caller
// cancellation); a response arriving later is dropped by the demultiplexer.
func (c *ServiceClient) unregister(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// Classify sends one target-space record and blocks for its label. It is
// safe to call from many goroutines concurrently.
func (c *ServiceClient) Classify(ctx context.Context, features []float64) (int, error) {
	labels, err := c.ClassifyBatch(ctx, [][]float64{features})
	if err != nil {
		return 0, err
	}
	return labels[0], nil
}

// ClassifyBatch sends a whole batch of target-space records in one frame and
// blocks for their labels, which arrive in one response frame — a single
// round trip regardless of batch size. A busy rejection (the group's
// prediction queue was full) is retried under the client's Backoff policy
// before ErrBusy is surfaced. It is safe to call from many goroutines
// concurrently; cancelling ctx abandons only this request.
func (c *ServiceClient) ClassifyBatch(ctx context.Context, batch [][]float64) ([]int, error) {
	return c.ClassifyBatchAt(ctx, c.miner, c.group, batch)
}

// ClassifyBatchAt is ClassifyBatch addressed to an explicit miner endpoint
// and serving group, overriding the client's defaults for this call only.
// The cluster client uses it to fan classify traffic out across nodes over
// one connection and one demultiplexer.
func (c *ServiceClient) ClassifyBatchAt(ctx context.Context, miner, group string, batch [][]float64) ([]int, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadQuery)
	}
	var labels []int
	err := c.retryBusy(ctx, func() error {
		var opErr error
		labels, opErr = c.classifyBatchOnce(ctx, miner, group, batch)
		return opErr
	})
	return labels, err
}

// classifyBatchOnce is one classify round trip, busy rejections included.
func (c *ServiceClient) classifyBatchOnce(ctx context.Context, miner, group string, batch [][]float64) ([]int, error) {
	resp, err := c.roundTrip(ctx, miner, &serviceWire{Group: group, View: c.view, Batch: batch})
	if err != nil {
		return nil, err
	}
	return decodeServiceResponse(resp, len(batch))
}

// roundTrip sends one request frame to a peer and blocks for its response
// frame: the ID is allocated and stamped here. Callers own mapping the
// response's code to a typed error.
func (c *ServiceClient) roundTrip(ctx context.Context, to string, w *serviceWire) (*serviceWire, error) {
	id, ch, err := c.register()
	if err != nil {
		return nil, err
	}
	w.ID = id
	payload, err := encodeServiceFrame(w, c.wire.Float32)
	if err != nil {
		c.unregister(id)
		return nil, err
	}
	if err := c.conn.Send(ctx, to, payload); err != nil {
		c.unregister(id)
		return nil, fmt.Errorf("%w: %v", ErrServiceClosed, err)
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, c.terminalErr()
		}
		return resp, nil
	case <-ctx.Done():
		c.unregister(id)
		return nil, ctx.Err()
	case <-c.done:
		return nil, c.terminalErr()
	}
}

// Routes asks the client's miner for the cluster routing table. Standalone
// services answer with an empty table.
func (c *ServiceClient) Routes(ctx context.Context) ([]RouteEntry, error) {
	return c.RoutesAt(ctx, c.miner)
}

// RoutesAt is Routes addressed to an explicit node — discovery may bootstrap
// from any cluster member, and a route miss re-fetches from whichever node
// is reachable.
func (c *ServiceClient) RoutesAt(ctx context.Context, node string) ([]RouteEntry, error) {
	entries, _, err := c.TableAt(ctx, node)
	return entries, err
}

// TableAt is RoutesAt plus the table's epoch: failover bumps the epoch when
// it promotes a replacement leader, and clients prefer the highest epoch
// among the answers they collect (a stale node cannot roll a client back).
func (c *ServiceClient) TableAt(ctx context.Context, node string) ([]RouteEntry, uint64, error) {
	resp, err := c.roundTrip(ctx, node, &serviceWire{Kind: kindRoutes})
	if err != nil {
		return nil, 0, err
	}
	if err := responseErr(resp); err != nil {
		return nil, 0, err
	}
	return resp.Routes, resp.Epoch, nil
}

// PushChunk streams one chunk of perturbed, target-space training records
// (with their labels) into the serving miner, which folds them into the
// client's group's training set and refits on the group's configured
// cadence. It returns the group's total training-set size after the chunk
// was folded in. An ErrRefit error still carries a non-zero accepted count:
// the chunk landed but a background model refresh failed, so the caller must
// not re-push it. A busy rejection (the group's ingest queue was full — the
// chunk did NOT land) is retried under the client's Backoff policy before
// ErrBusy is surfaced. Like ClassifyBatch it costs one round trip and is
// safe for concurrent use.
func (c *ServiceClient) PushChunk(ctx context.Context, batch [][]float64, labels []int) (int, error) {
	return c.PushChunkAt(ctx, c.miner, c.group, batch, labels)
}

// PushChunkAt is PushChunk addressed to an explicit miner endpoint and
// serving group, overriding the client's defaults for this call only. The
// cluster client uses it to route each group's ingest to its leader node.
func (c *ServiceClient) PushChunkAt(ctx context.Context, miner, group string, batch [][]float64, labels []int) (int, error) {
	if len(batch) == 0 {
		return 0, fmt.Errorf("%w: empty chunk", ErrBadChunk)
	}
	if len(labels) != len(batch) {
		return 0, fmt.Errorf("%w: %d labels for %d records", ErrBadChunk, len(labels), len(batch))
	}
	var accepted int
	err := c.retryBusy(ctx, func() error {
		var opErr error
		accepted, opErr = c.pushChunkOnce(ctx, miner, group, batch, labels)
		return opErr
	})
	return accepted, err
}

// pushChunkOnce is one ingest round trip, busy rejections included.
func (c *ServiceClient) pushChunkOnce(ctx context.Context, miner, group string, batch [][]float64, labels []int) (int, error) {
	resp, err := c.roundTrip(ctx, miner, &serviceWire{
		Kind: kindIngest, Group: group, View: c.view, Batch: batch, Labels: labels})
	if err != nil {
		return 0, err
	}
	// Accepted is returned even alongside an error: an ErrRefit response
	// means the chunk WAS folded in (do not re-push) but the refreshed model
	// is not live.
	return resp.Accepted, responseErr(resp)
}

// responseErr maps a response frame's code to a typed error (nil on codeOK).
func responseErr(resp *serviceWire) error {
	switch resp.Code {
	case codeOK:
		return nil
	case codeBadQuery:
		return fmt.Errorf("%w: %s", ErrBadQuery, resp.Err)
	case codeBadChunk:
		return fmt.Errorf("%w: %s", ErrBadChunk, resp.Err)
	case codeRefit:
		return fmt.Errorf("%w: %s", ErrRefit, resp.Err)
	case codeBatchTooLarge:
		return fmt.Errorf("%w: %s", ErrBatchTooLarge, resp.Err)
	case codeWireVersion:
		return fmt.Errorf("%w: %s", ErrWireVersion, resp.Err)
	case codeUnknownGroup:
		return fmt.Errorf("%w: %s", ErrUnknownGroup, resp.Err)
	case codeNotMember:
		return fmt.Errorf("%w: %s", ErrNotMember, resp.Err)
	case codeBusy:
		return fmt.Errorf("%w: %s", ErrBusy, resp.Err)
	case codeNotLeader:
		return fmt.Errorf("%w: %s", ErrNotLeader, resp.Err)
	case codeQuota:
		return fmt.Errorf("%w: %s", ErrQuota, resp.Err)
	case codeAdminDenied:
		return fmt.Errorf("%w: %s", ErrAdminDenied, resp.Err)
	case codeGroupExists:
		return fmt.Errorf("%w: %s", ErrGroupExists, resp.Err)
	case codeUnknownView:
		return fmt.Errorf("%w: %s", ErrUnknownView, resp.Err)
	default:
		return fmt.Errorf("%w: %s", ErrServiceClosed, resp.Err)
	}
}

// SendModelSync streams one fit round — every view's encoded classifier
// (classify.EncodeModel format), in ascending level order — to a follower
// node as one fire-and-forget kindModelSync frame: ID 0 tells the follower
// to send no response, so a downed or slow follower costs the sender one
// failed send, never a blocked wait. The follower installs every view or
// none: a blob count other than its view count, or any blob that does not
// decode, rejects the whole frame. seq must increase per group; the
// follower ignores frames at or below its last installed sequence, which
// makes re-sends and reordering idempotent. covered is the leader ingest
// count the round's fit covers, installed alongside it so staleness can be
// measured in records. The cluster layer's replication publisher is the
// intended caller.
func SendModelSync(ctx context.Context, conn transport.Conn, to, group string, seq uint64, covered int64, models [][]byte) error {
	if group == "" {
		return fmt.Errorf("%w: model sync without a group", ErrBadConfig)
	}
	if len(models) == 0 {
		return fmt.Errorf("%w: model sync without a model", ErrBadConfig)
	}
	payload, err := encodeServiceWire(&serviceWire{
		Kind: kindModelSync, Group: group, Seq: seq, Covered: covered, Models: models})
	if err != nil {
		return err
	}
	return conn.Send(ctx, to, payload)
}

// SendSyncHello announces a leader's durability state for one group to a
// replica: its published sequence, table epoch, ingest coverage and current
// routing-table row. Fire-and-forget (ID 0); the replica's answer, if any,
// arrives as an independent kindSyncState frame.
func SendSyncHello(ctx context.Context, conn transport.Conn, to, group string, seq, epoch uint64, covered int64, row RouteEntry) error {
	return sendSyncGossip(ctx, conn, to, kindSyncHello, group, seq, epoch, covered, row)
}

// SendSyncState answers a replica's durability state for one group to its
// leader: the last installed sequence, the replica's table epoch and row.
// Fire-and-forget (ID 0).
func SendSyncState(ctx context.Context, conn transport.Conn, to, group string, seq, epoch uint64, covered int64, row RouteEntry) error {
	return sendSyncGossip(ctx, conn, to, kindSyncState, group, seq, epoch, covered, row)
}

func sendSyncGossip(ctx context.Context, conn transport.Conn, to string, kind uint8, group string, seq, epoch uint64, covered int64, row RouteEntry) error {
	if group == "" {
		return fmt.Errorf("%w: sync gossip without a group", ErrBadConfig)
	}
	payload, err := encodeServiceWire(&serviceWire{
		Kind: kind, Group: group, Seq: seq, Epoch: epoch, Covered: covered,
		Routes: []RouteEntry{row}})
	if err != nil {
		return err
	}
	return conn.Send(ctx, to, payload)
}

// FrameInfo is the routing header of one service frame, exposed for frame
// inspectors (InspectFrame).
type FrameInfo struct {
	Version  uint8
	ID       uint64
	Kind     uint8
	Group    string
	View     int
	Seq      uint64
	Epoch    uint64
	Response bool
}

// InspectFrame decodes the routing header of a raw service-frame payload
// without interpreting its body. It reports false for payloads that are not
// decodable service frames. The faultnet test harness uses it to match sync
// traffic inside its drop/duplicate/reorder hooks.
func InspectFrame(payload []byte) (FrameInfo, bool) {
	w, err := decodeServiceWire(payload)
	if w == nil || err != nil {
		return FrameInfo{}, false
	}
	return FrameInfo{
		Version:  payload[1],
		ID:       w.ID,
		Kind:     w.Kind,
		Group:    w.Group,
		View:     w.View,
		Seq:      w.Seq,
		Epoch:    w.Epoch,
		Response: w.Response,
	}, true
}

// decodeServiceResponse maps a classify response frame to labels or a typed
// error.
func decodeServiceResponse(resp *serviceWire, want int) ([]int, error) {
	if err := responseErr(resp); err != nil {
		return nil, err
	}
	if len(resp.Labels) != want {
		return nil, fmt.Errorf("%w: %d labels for %d records", ErrBadMessage, len(resp.Labels), want)
	}
	return resp.Labels, nil
}
