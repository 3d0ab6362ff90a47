package sap

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/perturb"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// Metrics types, re-exported so deployments can instrument the serving and
// streaming layers entirely through the facade. Plug a registry in with
// WithMetrics; read it back with Metrics.Snapshot (or serve it over HTTP —
// *Metrics is an http.Handler, and cmd/sapnode mounts it under
// -metrics-addr).
type (
	// Metrics is the default in-memory metrics registry: atomic counters,
	// gauges and timing histograms, exportable with Snapshot.
	Metrics = metrics.Registry
	// MetricsSink is the pluggable instrumentation interface a session
	// updates; *Metrics implements it, and so may any custom backend.
	MetricsSink = metrics.Metrics
	// MetricsSnapshot is a point-in-time export of every instrument.
	MetricsSnapshot = metrics.Snapshot
)

// NewMetrics returns an empty in-memory metrics registry.
func NewMetrics() *Metrics { return metrics.NewRegistry() }

// Transport types, re-exported so a deployment can be wired entirely against
// the facade: an in-memory hub for single-process serving and a TCP network
// with AES-GCM-sealed frames for real clusters.
type (
	// Conn is one endpoint's connection to the network.
	Conn = transport.Conn
	// Network hands out named endpoints.
	Network = transport.Network
	// TCPNode is one endpoint of a TCP network.
	TCPNode = transport.TCPNode
)

// Serving errors, re-exported from the protocol layer.
var (
	// ErrServiceClosed means the mining service or the link to it is gone.
	ErrServiceClosed = protocol.ErrServiceClosed
	// ErrBadQuery flags an empty batch or a dimension mismatch.
	ErrBadQuery = protocol.ErrBadQuery
	// ErrBatchTooLarge flags a batch exceeding the service's cap.
	ErrBatchTooLarge = protocol.ErrBatchTooLarge
	// ErrUnknownGroup flags a query for a serving group the miner does not
	// host.
	ErrUnknownGroup = protocol.ErrUnknownGroup
	// ErrNotMember flags a peer addressing a serving group whose member
	// list does not include it.
	ErrNotMember = protocol.ErrNotMember
	// ErrBusy flags a request rejected because the addressed group's
	// bounded ingest or prediction queue was full. The request had no
	// effect, and clients retry it automatically with capped exponential
	// backoff before surfacing this error — seeing it means the group
	// stayed saturated through the whole retry budget.
	ErrBusy = protocol.ErrBusy
	// ErrQuota flags an ingest chunk rejected by the group's records-per-
	// second quota (WithQuota, Admin.UpdateGroup). Unlike ErrBusy it is not
	// retried automatically — the quota is policy, not transient load — so
	// it surfaces within one round trip.
	ErrQuota = protocol.ErrQuota
	// ErrAdminDenied flags an admin call that failed authentication: wrong
	// token, or the service has no admin token configured at all.
	ErrAdminDenied = protocol.ErrAdminDenied
	// ErrGroupExists flags an Admin.RegisterGroup naming a group the service
	// already hosts.
	ErrGroupExists = protocol.ErrGroupExists
	// ErrUnknownView flags a request addressing a trust view the group does
	// not serve (ClientConfig.View naming a level outside the group's
	// WithTrustViews list).
	ErrUnknownView = protocol.ErrUnknownView
)

// DefaultGroupID is the serving group a session uses when WithGroupID is
// not given, and the group frames without a group ID route to.
const DefaultGroupID = protocol.DefaultGroup

// NewMemNetwork returns an in-process network for single-process serving,
// tests and benchmarks.
func NewMemNetwork() Network { return transport.NewMemNetwork() }

// NewTCPNode starts a TCP endpoint named name listening on addr (use
// "127.0.0.1:0" to pick a free port). A non-empty key seals every frame with
// AES-GCM. The caller must Close it and register peers with AddPeer.
func NewTCPNode(name, addr, key string) (*TCPNode, error) {
	var codec transport.Codec
	if key != "" {
		aes, err := transport.NewAESCodec(key)
		if err != nil {
			return nil, err
		}
		codec = aes
	}
	return transport.NewTCPNode(name, addr, codec)
}

// config is the resolved option set of a Session.
type config struct {
	parties      []*Dataset
	seed         int64
	noiseSigma   float64
	candidates   int
	localSteps   int
	scoreSamples int
	fullSuite    bool
	workers      int
	maxBatch     int
	refitEvery   int
	group        string
	metrics      MetricsSink
	// clusterNodes/clusterReplicas feed ServeCluster's derived routing table
	// (WithClusterNodes / WithClusterReplicas).
	clusterNodes    []string
	clusterReplicas int
	// downFor tunes NewClusterClient's down-mark window; failoverGrace and
	// antiEntropyEvery tune the cluster nodes' durability gossip (WithDownFor
	// / WithFailoverGrace / WithAntiEntropyEvery).
	downFor          time.Duration
	failoverGrace    time.Duration
	antiEntropyEvery time.Duration
	// float32Payloads packs the session's record payloads as float32
	// (WithFloat32Payloads).
	float32Payloads bool
	// adminToken arms the served process's admin control plane
	// (WithAdminToken); quotaRate/quotaBurst rate-limit this session's
	// group's ingest (WithQuota).
	adminToken string
	quotaRate  float64
	quotaBurst int
	// views splits this session's serving group into an ordered multi-level
	// trust view list (WithTrustViews); empty serves one open level-1 view.
	views []ViewConfig
}

// Option configures New, Run and OptimizePerturbation. Options replace the
// former RunConfig/OptimizeOptions structs.
type Option func(*config) error

// WithParties sets the providers' local datasets (k ≥ 3). The last party
// doubles as the coordinator.
func WithParties(parties ...*Dataset) Option {
	return func(c *config) error {
		for i, d := range parties {
			if d == nil || d.Len() == 0 {
				return fmt.Errorf("%w: party %d has no data", ErrBadInput, i)
			}
		}
		c.parties = parties
		return nil
	}
}

// WithSeed sets the seed driving all randomness (default 0).
func WithSeed(seed int64) Option {
	return func(c *config) error { c.seed = seed; return nil }
}

// WithNoiseSigma sets the common noise component σ (default 0.05).
func WithNoiseSigma(sigma float64) Option {
	return func(c *config) error {
		if sigma < 0 {
			return fmt.Errorf("%w: negative noise sigma %v", ErrBadInput, sigma)
		}
		c.noiseSigma = sigma
		return nil
	}
}

// WithOptimizer tunes the per-party perturbation search: candidates random
// restarts refined by localSteps annealed Givens steps (defaults: 8 and 12).
func WithOptimizer(candidates, localSteps int) Option {
	return func(c *config) error {
		c.candidates = candidates
		c.localSteps = localSteps
		return nil
	}
}

// WithScoreSamples averages each candidate's score over n noise draws
// (default 1); higher values reduce selection bias toward lucky noise at
// proportional cost.
func WithScoreSamples(n int) Option {
	return func(c *config) error { c.scoreSamples = n; return nil }
}

// WithFullAttackSuite also runs the (slower) ICA attack during optimization;
// otherwise ICA is reserved for final evaluation.
func WithFullAttackSuite() Option {
	return func(c *config) error { c.fullSuite = true; return nil }
}

// WithServiceWorkers sets the serving worker-pool size used by
// Session.Serve (default: GOMAXPROCS).
func WithServiceWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("%w: negative worker count %d", ErrBadInput, n)
		}
		c.workers = n
		return nil
	}
}

// WithServiceMaxBatch caps the records the served model accepts per request
// (default 4096).
func WithServiceMaxBatch(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("%w: negative batch cap %d", ErrBadInput, n)
		}
		c.maxBatch = n
		return nil
	}
}

// WithServiceRefitEvery sets how many stream-ingested records the served
// model accumulates before retraining on the grown training set (default
// 256; -1 disables automatic refits).
func WithServiceRefitEvery(n int) Option {
	return func(c *config) error {
		if n < -1 {
			return fmt.Errorf("%w: refit cadence %d (0 keeps the default, -1 disables)", ErrBadInput, n)
		}
		if n == 0 {
			return nil
		}
		c.refitEvery = n
		return nil
	}
}

// WithMetrics plugs an instrumentation sink into the session's serving and
// streaming layers: Serve/ServeGroups count requests, batch sizes, ingest,
// queue depth, refits and rejections per group (under "service.<group>."),
// and Session.Stream counts chunks, records, re-derivations and buffer
// occupancy (under "stream."). Use NewMetrics for the default in-memory
// registry and read it with Snapshot; see ARCHITECTURE.md for the full
// instrument catalogue.
func WithMetrics(m MetricsSink) Option {
	return func(c *config) error {
		if m == nil {
			return fmt.Errorf("%w: nil metrics sink", ErrBadInput)
		}
		c.metrics = m
		return nil
	}
}

// WithGroupID names the serving group (contract) this session serves under
// and its clients query. Sessions sharing one miner process must carry
// distinct group IDs (see ServeGroups); the default is DefaultGroupID, so
// single-group deployments never need this option.
func WithGroupID(id string) Option {
	return func(c *config) error {
		if id == "" {
			return fmt.Errorf("%w: empty group id", ErrBadInput)
		}
		c.group = id
		return nil
	}
}

// WithFloat32Payloads halves this session's record payloads on the wire
// (stream chunks, classify batches, replicated model blobs) by packing
// features as float32 instead of float64. Precision narrows to ~7
// significant digits — well inside the paper's perturbation noise floor.
// Every peer decodes both widths, so the packed form is sent from the first
// frame. On the serving side it is per group, riding each group's own
// session.
func WithFloat32Payloads() Option {
	return func(c *config) error {
		c.float32Payloads = true
		return nil
	}
}

// WithAdminToken arms the admin control plane of the mining service this
// session stands up (Serve, ServeGroups, ServeCluster): Admin clients
// presenting this token may register, evict, update and list serving groups
// at runtime. Without the option the admin interface is disabled — every
// admin frame is refused with ErrAdminDenied. Like WithMetrics it is a
// property of the miner process: the first session carrying it provides the
// token.
func WithAdminToken(token string) Option {
	return func(c *config) error {
		if token == "" {
			return fmt.Errorf("%w: empty admin token", ErrBadInput)
		}
		c.adminToken = token
		return nil
	}
}

// WithQuota rate-limits this session's group's stream ingest: pushed chunks
// beyond recordsPerSec (with bursts up to burst records; 0 sizes the burst
// at one second's refill) are rejected with a typed ErrQuota within one
// round trip, before they occupy any queue space. Per group — it rides this
// session's spec like WithServiceRefitEvery — and updatable at runtime
// through Admin.UpdateGroup.
func WithQuota(recordsPerSec float64, burst int) Option {
	return func(c *config) error {
		if recordsPerSec <= 0 {
			return fmt.Errorf("%w: non-positive quota rate %v", ErrBadInput, recordsPerSec)
		}
		if burst < 0 {
			return fmt.Errorf("%w: negative quota burst %d", ErrBadInput, burst)
		}
		c.quotaRate = recordsPerSec
		c.quotaBurst = burst
		return nil
	}
}

// ViewConfig describes one trust view of a multi-level serving group
// (WithTrustViews): the trust level it serves, the absolute additive noise
// σ its model is trained under, and optionally the transport endpoints
// allowed to query it.
type ViewConfig struct {
	// Level is the view's trust rank: positive, unique within the group,
	// listed in strictly increasing order. Smaller levels are more trusted
	// and see models trained under less noise.
	Level int
	// NoiseSigma is the absolute per-element σ of the view's training
	// noise. Sigmas must be non-decreasing across the list — lower trust
	// never gets less noise. Level 1 with σ 0 serves the unblurred fit.
	NoiseSigma float64
	// Members optionally restricts the view to the named transport
	// endpoints, on top of the group's own member list. Empty admits every
	// peer the group admits.
	Members []string
}

// WithTrustViews splits the session's serving group into ordered
// multi-level trust views: one served model per trust level, every level
// fitted on the same unified training set under its own slice of a jointly
// drawn correlated noise ladder. Because each lower-trust view's noise is
// derived from the next-higher view's plus an independent increment — never
// drawn independently — any coalition of views that pools its models'
// training data learns no more than the coalition's most-trusted member
// already knew: the diversity attack of the multi-level trust literature
// gains nothing (see internal/privacy's coalition evaluator). Clients pick
// their view with ClientConfig.View, or are routed to their
// highest-authorized view by default. Views ride the session's group spec:
// they apply to Serve, ServeGroups and ServeCluster alike.
func WithTrustViews(views ...ViewConfig) Option {
	return func(c *config) error {
		if len(views) == 0 {
			return fmt.Errorf("%w: no trust views", ErrBadInput)
		}
		for i, v := range views {
			if v.Level <= 0 {
				return fmt.Errorf("%w: trust view %d has non-positive level %d", ErrBadInput, i, v.Level)
			}
			if i > 0 && v.Level <= views[i-1].Level {
				return fmt.Errorf("%w: trust view levels must be strictly increasing (%d after %d)",
					ErrBadInput, v.Level, views[i-1].Level)
			}
			if v.NoiseSigma < 0 {
				return fmt.Errorf("%w: trust view level %d has negative noise sigma %v",
					ErrBadInput, v.Level, v.NoiseSigma)
			}
			if i > 0 && v.NoiseSigma < views[i-1].NoiseSigma {
				return fmt.Errorf("%w: trust view noise must be non-decreasing (%v after %v at level %d)",
					ErrBadInput, v.NoiseSigma, views[i-1].NoiseSigma, v.Level)
			}
		}
		c.views = append([]ViewConfig(nil), views...)
		return nil
	}
}

// Session is the unit of the facade's lifecycle: configure with New, execute
// the Space Adaptation Protocol once with Run, then serve the unified model
// for the contract's lifetime with Serve while contracted parties query it
// through NewClient. A Session is safe for concurrent use after Run.
type Session struct {
	cfg config

	mu              sync.Mutex
	ran             bool
	unified         *Dataset
	target          *Perturbation
	localGuarantees []float64
	identifiability float64
	streamSeq       int64
}

// New validates the options and returns an unstarted session.
func New(opts ...Option) (*Session, error) {
	cfg := config{noiseSigma: 0.05}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if len(cfg.parties) == 0 {
		return nil, fmt.Errorf("%w: no parties (use WithParties)", ErrBadInput)
	}
	return &Session{cfg: cfg}, nil
}

// Run executes the full SAP pipeline: optimize each party's perturbation,
// run the protocol over an in-memory network, and store the unified result.
// It may be called once per session.
func (s *Session) Run(ctx context.Context) error {
	s.mu.Lock()
	if s.ran {
		s.mu.Unlock()
		return fmt.Errorf("%w: session already ran", ErrBadInput)
	}
	s.ran = true
	s.mu.Unlock()

	optCfg := privacyOptimizerConfig(&s.cfg)
	res, err := core.Run(ctx, core.PipelineConfig{
		Parties:    s.cfg.parties,
		Seed:       s.cfg.seed,
		NoiseSigma: s.cfg.noiseSigma,
		Optimizer:  optCfg,
	})
	if err != nil {
		// A failed run (e.g. ctx cancellation) does not burn the session;
		// it may be retried.
		s.mu.Lock()
		s.ran = false
		s.mu.Unlock()
		if errors.Is(err, core.ErrBadPipeline) {
			return fmt.Errorf("%w: %v", ErrBadInput, err)
		}
		return err
	}
	guarantees := make([]float64, len(res.Parties))
	for i, p := range res.Parties {
		guarantees[i] = p.LocalGuarantee
	}
	s.mu.Lock()
	s.unified = res.Unified
	s.target = res.Target
	s.localGuarantees = guarantees
	s.identifiability = res.Identifiability
	s.mu.Unlock()
	return nil
}

// Run configures a session and executes it in one call. It is the canonical
// entry point: partition, run, serve.
func Run(ctx context.Context, opts ...Option) (*Session, error) {
	s, err := New(opts...)
	if err != nil {
		return nil, err
	}
	if err := s.Run(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// requireRun guards accessors that need a completed run.
func (s *Session) requireRun() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.unified == nil {
		return fmt.Errorf("%w: session has not run", ErrBadInput)
	}
	return nil
}

// Unified returns the miner's merged training set in the target space.
func (s *Session) Unified() *Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.unified
}

// Target returns the unified target perturbation G_t. Classification
// requests must be transformed with it (noiselessly) before reaching the
// miner's model; Session clients do this automatically.
func (s *Session) Target() *Perturbation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.target
}

// LocalGuarantees returns each party's locally optimized ρ_i, in party
// order.
func (s *Session) LocalGuarantees() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.localGuarantees
}

// Identifiability returns the miner-side source identifiability 1/(k−1).
func (s *Session) Identifiability() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.identifiability
}

// TransformForInference maps a clear dataset into the target space so it can
// be scored by a model trained on Unified.
func (s *Session) TransformForInference(d *Dataset) (*Dataset, error) {
	if err := s.requireRun(); err != nil {
		return nil, err
	}
	if d == nil || d.Len() == 0 {
		return nil, fmt.Errorf("%w: empty dataset", ErrBadInput)
	}
	y, err := s.Target().ApplyNoiseless(d.FeaturesT())
	if err != nil {
		return nil, err
	}
	out := d.Clone()
	if err := out.ReplaceFeaturesT(y); err != nil {
		return nil, err
	}
	return out, nil
}

// Serve is the miner side of the serving lifecycle: it trains model on the
// unified dataset and answers batched classification queries on conn until
// ctx is cancelled or the transport closes. Predictions run on the session's
// configured worker pool (WithServiceWorkers), so many clients — and many
// goroutines per client — are served concurrently. The service also accepts
// streamed training chunks (Session.StreamTo, Client.Push), folding them
// into its training set and refitting the model every WithServiceRefitEvery
// records. Refits happen in the background: a fresh model instance is
// fitted off to the side and atomically swapped in, so queries and ingest
// keep flowing — on the previous fit — while the retrain runs. That
// requires fresh instances: with refits enabled, model must implement
// classify.Cloner (facade-constructed classifiers do) or be served through
// ServeGroups with a Group.NewModel factory.
func (s *Session) Serve(ctx context.Context, conn Conn, model Classifier) error {
	return s.ServeGroups(ctx, conn, model)
}

// GroupID returns the serving group this session serves under and its
// clients query (DefaultGroupID unless WithGroupID was given).
func (s *Session) GroupID() string {
	if s.cfg.group == "" {
		return DefaultGroupID
	}
	return s.cfg.group
}

// ClientConfig addresses a session client at a mining service. The zero
// value of every optional field selects the session's own defaults, so most
// callers set only Miner.
type ClientConfig struct {
	// Miner is the mining service's transport endpoint name. Required.
	Miner string
	// Group overrides the serving group the client addresses (default: the
	// session's own GroupID). Queries are still transformed with this
	// session's G_t, so a foreign group only makes sense when it shares that
	// target space — the main use is proving a foreign group rejects you
	// (ErrNotMember / ErrUnknownGroup).
	Group string
	// View pins the trust view (WithTrustViews level) the client's queries
	// and pushes address. Zero — the default — routes each request to the
	// client's highest-authorized view (the only view of a group without
	// WithTrustViews). A level the group does not serve answers
	// ErrUnknownView; a served level whose member list excludes this client
	// answers ErrNotMember.
	View int
}

// NewClient is the provider side of the serving lifecycle: a handle for
// querying the configured mining service over conn. The client owns the
// connection's receive side (a background demultiplexer correlates
// responses), so any number of goroutines may classify concurrently through
// one client. Queries are given in clear space; the client transforms them
// into the target space with the session's G_t before they leave the
// provider, so the service never sees clear data. Close the client to
// release it.
func (s *Session) NewClient(conn Conn, cfg ClientConfig) (*Client, error) {
	if err := s.requireRun(); err != nil {
		return nil, err
	}
	if cfg.Miner == "" {
		return nil, fmt.Errorf("%w: no miner endpoint", ErrBadInput)
	}
	group := cfg.Group
	if group == "" {
		group = s.GroupID()
	}
	inner, err := protocol.NewGroupServiceClient(conn, cfg.Miner, group)
	if err != nil {
		return nil, err
	}
	inner.SetWireOptions(protocol.WireOptions{Float32: s.cfg.float32Payloads})
	if cfg.View < 0 {
		return nil, fmt.Errorf("%w: negative trust view %d", ErrBadInput, cfg.View)
	}
	inner.SetView(cfg.View)
	return &Client{inner: inner, target: s.Target()}, nil
}

// Client queries a mining service stood up by Session.Serve. Safe for
// concurrent use.
type Client struct {
	inner  *protocol.ServiceClient
	target *Perturbation
}

// Classify predicts the label of one clear-space record in one round trip.
func (c *Client) Classify(ctx context.Context, features []float64) (int, error) {
	labels, err := c.ClassifyBatch(ctx, [][]float64{features})
	if err != nil {
		return 0, err
	}
	return labels[0], nil
}

// ClassifyBatch predicts labels for a whole batch of clear-space records in
// a single round trip.
func (c *Client) ClassifyBatch(ctx context.Context, batch [][]float64) ([]int, error) {
	transformed, err := transformRecords(c.target, batch)
	if err != nil {
		return nil, err
	}
	return c.inner.ClassifyBatch(ctx, transformed)
}

// Close releases the client's demultiplexer and fails in-flight requests.
func (c *Client) Close() error { return c.inner.Close() }

// transformRecords applies G_t noiselessly to a batch of records.
func transformRecords(target *perturb.Perturbation, batch [][]float64) ([][]float64, error) {
	if len(batch) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadQuery)
	}
	dim := target.Dim()
	for i, rec := range batch {
		if len(rec) != dim {
			return nil, fmt.Errorf("%w: record %d has %d features, want %d", ErrBadQuery, i, len(rec), dim)
		}
	}
	y, err := target.ApplyNoiseless(matrix.NewFromRows(batch).T())
	if err != nil {
		return nil, err
	}
	return y.Columns(), nil
}

// privacyOptimizerConfig maps the facade option set to the internal
// optimizer configuration.
func privacyOptimizerConfig(c *config) privacy.OptimizerConfig {
	cfg := privacy.OptimizerConfig{
		Candidates:   c.candidates,
		LocalSteps:   c.localSteps,
		NoiseSigma:   c.noiseSigma,
		ScoreSamples: c.scoreSamples,
	}
	if c.fullSuite {
		cfg.Evaluator = privacy.DefaultEvaluator()
	}
	return cfg
}
