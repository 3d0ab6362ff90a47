// Package sap is a from-scratch reproduction of "Space Adaptation:
// Privacy-preserving Multiparty Collaborative Mining with Geometric
// Perturbation" (Chen & Liu, PODC 2007).
//
// It provides, as a single importable facade:
//
//   - Geometric data perturbation G(X) = RX + Ψ + Δ with random orthogonal
//     rotations, random translations and i.i.d. noise (the paper's §2).
//   - A privacy evaluator running the attack models of the companion work
//     (naive re-normalization, PCA re-alignment, FastICA reconstruction,
//     known-sample Procrustes) and the "minimum privacy guarantee" metric.
//   - A randomized perturbation optimizer maximizing that guarantee.
//   - The Space Adaptation Protocol (§3): k data providers and a mining
//     service provider securely unify their perturbations via space
//     adaptors, random exchange and a coordinator that never touches data.
//   - Rotation-invariant classifiers (KNN, SMO-trained SVM with RBF
//     kernel) for mining the unified data.
//   - A long-lived mining service: the miner keeps a model trained on the
//     unified data online and answers batched classification queries over
//     pluggable transports (in-memory hub, AES-GCM-sealed TCP).
//   - Streaming ingestion: providers keep feeding freshly collected records
//     through a chunked perturbation pipeline into the live service, which
//     grows its training set and refits on a cadence — with drift-watched
//     transform re-derivation when the arriving distribution shifts.
//     Refits run in the background: a fresh model instance is fitted off
//     to the side and atomically swapped in, so ingest and queries never
//     wait on a retrain, and a failed refit leaves the previous fit
//     serving (reported once as ErrRefit).
//   - Sharded multi-group serving: one miner process hosts many contract
//     groups (ServeGroups), each a session with its own target space,
//     model shard, prediction pool, batch cap, refit cadence and optional
//     member list; wire frames carry a group ID and the router keeps
//     groups isolated — per-group queues are bounded and fail fast, so a
//     saturated group is answered with a typed ErrBusy (clients retry
//     with capped exponential backoff) instead of stalling anyone else.
//   - Cluster serving: ServeCluster partitions the group set across
//     several miner processes by rendezvous hashing (WithClusterNodes /
//     WithClusterReplicas), with leaders replicating refits to read
//     replicas and NewClusterClient routing every call itself. The
//     cluster self-heals: restarted leaders handshake their sequence
//     state back from replicas, an anti-entropy gossip re-pushes models
//     to replicas that fell behind, and when a leader stays silent past
//     WithFailoverGrace the next-ranked replica assumes leadership —
//     clients follow the freshest routing-table epoch and skip downed
//     nodes for WithDownFor.
//   - Multi-level trust serving: WithTrustViews splits a group into
//     ordered trust views — one instance of the group's model per level,
//     each trained on the shared records blurred to the view's noise (a
//     group without views serves one open level-1 view), with a
//     correlated noise ladder (every view is the view above plus
//     independent noise) so colluding recipients pooling their views
//     learn no more than the least-noisy member alone. Clients pin a view with ClientConfig.View
//     or are routed to the best view their endpoint is on; views answer
//     outsiders with ErrNotMember and unserved levels with the typed
//     ErrUnknownView.
//   - A dynamic control plane: with WithAdminToken armed, an Admin client
//     (NewAdmin) registers, evicts, reconfigures and lists serving groups
//     on a live miner — no restart — with per-group records/s ingest
//     quotas (WithQuota, typed ErrQuota answered in one round trip) and a
//     registered group immediately discoverable by cluster clients.
//   - Operational metrics: WithMetrics plugs a registry of atomic
//     counters, gauges and timing histograms into the serving and
//     streaming layers — per-group requests, batch sizes, ingest volume,
//     queue depth, refit counts and durations, rejections, stream chunks
//     and drift re-derivations — exportable as a JSON snapshot
//     (Metrics.Snapshot, or over HTTP via sapnode -metrics-addr, which
//     also answers /healthz liveness probes).
//   - One service wire version (v11): every node runs the same binary, so
//     a frame carries a single version byte and no capability negotiation;
//     a frame stamped with any other version is refused, typed. Every
//     classify and ingest frame names the trust view it addresses; a model
//     sync carries a group's whole fit round, every view in one frame, and
//     installs all of it or none.
//     WithFloat32Payloads halves record payloads (float32 packing, ~7
//     significant digits — far inside the perturbation noise floor) from
//     the first frame, since every peer decodes both widths. Encode buffers
//     are pooled.
//   - Risk accounting: the paper's Eq. 1 and Eq. 2 plus the party-count
//     bounds behind its Figure 4.
//
// # Lifecycle: run → serve → query → stream
//
// The unit of the API is the Session, created with the functional-options
// constructor New (or configured and executed in one call with Run). A
// session moves through four phases, mirroring the paper's
// service-oriented framing in which the miner "offers their data mining
// services to the contracted parties" for the contract's lifetime:
//
//  1. Run: each party's perturbation is optimized against the attack suite
//     and the Space Adaptation Protocol unifies the perturbed shards at the
//     miner. Session.Unified, Session.Target, Session.LocalGuarantees and
//     Session.Identifiability expose the outcome.
//  2. Serve: the miner trains a classifier on the unified data and answers
//     queries on a transport endpoint until its context is cancelled.
//     Predictions run on a configurable worker pool (WithServiceWorkers),
//     and each request carries a whole batch, so one round trip classifies
//     N records.
//  3. Query: each contracted provider holds a Client (Session.NewClient)
//     whose background demultiplexer correlates responses by request ID —
//     any number of goroutines may call Classify or ClassifyBatch
//     concurrently over one connection. Clients transform clear-space
//     queries into the target space with G_t before sending, so the miner
//     never sees clear data.
//  4. Stream: data keeps arriving after unification. Session.Stream runs a
//     chunked perturbation pipeline over a StreamSource — records are
//     perturbed with a stream-local transform, adapted into the target
//     space, and emitted through a bounded buffer — and Session.StreamTo
//     pushes every chunk into the serving miner, whose model refits every
//     WithServiceRefitEvery records. The pipeline tracks the running
//     covariance of the clear input (Welford/rank-1 accumulators) and,
//     when WithDriftThreshold is set, re-derives its transform as the
//     distribution drifts.
//
// # Streaming quickstart
//
//	// Miner side: serve with a refit cadence.
//	sess, _ := sap.Run(ctx, sap.WithParties(parties...),
//		sap.WithServiceRefitEvery(64))
//	go sess.Serve(ctx, svcConn, sap.NewKNN(5))
//
//	// Provider side: push freshly collected records as they arrive.
//	pushed, _ := sess.StreamTo(ctx, provConn, "mining-service",
//		sap.DatasetSource(fresh),
//		sap.WithChunkSize(64), sap.WithDriftThreshold(0.5))
//
// # Multi-group serving
//
//	// Two contracts, two target spaces, one miner process.
//	hospitals, _ := sap.Run(ctx, sap.WithParties(wards...),
//		sap.WithGroupID("hospitals"))
//	vintners, _ := sap.Run(ctx, sap.WithParties(cellars...),
//		sap.WithGroupID("vintners"))
//	go sap.ServeGroups(ctx, svcConn,
//		sap.Group{Session: hospitals, Model: sap.NewKNN(5), Members: []string{"clinic"}},
//		sap.Group{Session: vintners, Model: sap.NewKNN(5), Members: []string{"cellar"}},
//	)
//	// Each session's clients stamp its group; foreign peers get
//	// ErrNotMember, unregistered groups ErrUnknownGroup.
//	client, _ := hospitals.NewClient(clinicConn,
//		sap.ClientConfig{Miner: "mining-service"})
//
// # Operating a live miner
//
//	// Miner side: arm the control plane with a shared token.
//	sess, _ := sap.Run(ctx, sap.WithParties(parties...),
//		sap.WithAdminToken("hunter2"))
//	go sess.Serve(ctx, svcConn, sap.NewKNN(5))
//
//	// Operator side: register a new group on the running service —
//	// fitted locally, quota-limited, serving the moment the call returns.
//	admin, _ := sap.NewAdmin(opConn, "mining-service", "hunter2")
//	_ = admin.RegisterGroup(ctx, sap.GroupConfig{
//		ID: "ward-c", Data: unified, Model: sap.NewKNN(5),
//		Quota: sap.Quota{RecordsPerSec: 100, Burst: 200},
//	})
//	// ... and later retire it; its clients get ErrUnknownGroup.
//	_ = admin.EvictGroup(ctx, "ward-c")
//
// Over-quota ingest bounces with a typed ErrQuota in a single round trip
// (quota is policy — clients do not retry it) and counts under the group's
// rejects.quota instrument. The same plane is scriptable as
// `sapnode -admin register|evict|list`.
//
// # Watching a deployment
//
//	// One registry for the miner process; groups stay apart by namespace.
//	reg := sap.NewMetrics()
//	sess, _ := sap.Run(ctx, sap.WithParties(parties...), sap.WithMetrics(reg))
//	go sess.Serve(ctx, svcConn, sap.NewKNN(5))
//	// ... later, from an ops handler or test:
//	snap := reg.Snapshot() // counters["service.default.requests"], ...
//
// Or from the command line: `sapnode -role miner ... -serve 1h
// -metrics-addr :9090` serves the same snapshot as JSON at
// http://localhost:9090/metrics. See the Metrics section of
// ARCHITECTURE.md for the full instrument catalogue.
//
// # Quickstart
//
//	pool, _ := sap.GenerateDataset("Diabetes", 1)
//	parties, _ := sap.Split(pool, 4, sap.PartitionUniform, 1)
//	sess, _ := sap.Run(context.Background(),
//		sap.WithParties(parties...),
//		sap.WithSeed(1),
//	)
//
//	// Miner side: keep a model online.
//	net := sap.NewMemNetwork()
//	svcConn, _ := net.Endpoint("mining-service")
//	go sess.Serve(ctx, svcConn, sap.NewKNN(5))
//
//	// Provider side: batched queries, one round trip.
//	cliConn, _ := net.Endpoint("clinic")
//	client, _ := sess.NewClient(cliConn, sap.ClientConfig{Miner: "mining-service"})
//	labels, _ := client.ClassifyBatch(ctx, queries)
//
// See examples/ for complete programs and ARCHITECTURE.md for the layer
// diagram, message flows and experiment index.
package sap
