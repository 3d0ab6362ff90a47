// Command sapnode runs one SAP party as a network daemon over TCP with
// AES-GCM-sealed frames: a data provider, the coordinator, or the mining
// service provider. A k-party deployment runs k+1 sapnode processes.
//
// After unification the deployment can stay online as a mining service: the
// miner keeps answering batched classification queries (-serve) while
// providers query it (-query) with records transformed into the target
// space — the paper's "data mining services for the contracted parties".
// Providers may also stream fresh labeled records into the serving miner's
// training set (-stream, chunked by -chunk, drift-adaptive with -drift); the
// miner folds them in and refits its model every -refit records.
//
// One miner process can host several contract groups side by side: -groups
// id=unified.csv,... serves one independent model shard per stored unified
// dataset (no protocol run needed), and providers address their group with
// -group. A miner serving its own run's result under a named group uses
// -group too.
//
// A serving group can be split into multi-level trust views with -views
// level[:sigma][=member;member...],...: one model per trust level, each
// trained under that level's slice of a correlated noise ladder (so no
// coalition of views can pool its way below the most-trusted member's
// privacy level — the miner prints the per-view guarantees and the
// coalition headline before serving). Levels without an explicit sigma
// default to (level-1)×-view-sigma.
//
// Any role can expose its operational metrics with -metrics-addr: GET
// /metrics returns the per-group request/ingest/refit counters (miner) or
// the streaming pipeline's chunk/drift counters (provider) as a JSON
// snapshot, and GET /healthz answers liveness probes.
//
// Example 4-party run on one host (see examples/tcpcluster for a scripted
// version):
//
//	sapnode -role miner       -name miner -listen :9100 -parties 3 \
//	        -coordinator coord -peers coord=:9101 -key s3cret -out unified.csv \
//	        -serve 1h -model knn -workers 8
//	sapnode -role coordinator -name coord -listen :9101 -data dp3.csv \
//	        -providers dp1,dp2 -miner miner \
//	        -peers dp1=:9102,dp2=:9103,miner=:9100 -key s3cret
//	sapnode -role provider    -name dp1 -listen :9102 -data dp1.csv \
//	        -coordinator coord -miner miner -query patients.csv \
//	        -peers coord=:9101,dp2=:9103,miner=:9100 -key s3cret
//	sapnode -role provider    -name dp2 -listen :9103 -data dp2.csv \
//	        -coordinator coord -miner miner \
//	        -peers coord=:9101,dp1=:9102,miner=:9100 -key s3cret
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/classify"
	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/perturb"
	"repro/internal/privacy"
	"repro/internal/protocol"
	"repro/internal/stream"
	"repro/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "sapnode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("sapnode", flag.ContinueOnError)
	var (
		role        = fs.String("role", "", "provider, coordinator or miner")
		name        = fs.String("name", "", "this node's endpoint name")
		listen      = fs.String("listen", "127.0.0.1:0", "listen address")
		peersFlag   = fs.String("peers", "", "comma-separated name=addr peer list")
		key         = fs.String("key", "", "shared AES session key (empty: plaintext frames)")
		dataPath    = fs.String("data", "", "local dataset CSV (providers and coordinator)")
		providers   = fs.String("providers", "", "comma-separated provider names (coordinator)")
		coordinator = fs.String("coordinator", "", "coordinator endpoint name (providers and miner)")
		miner       = fs.String("miner", "", "miner endpoint name (providers and coordinator)")
		parties     = fs.Int("parties", 0, "total provider count k (miner)")
		outPath     = fs.String("out", "", "unified dataset output CSV (miner)")
		seed        = fs.Int64("seed", 1, "random seed; 0 derives one from the clock (nonreproducible)")
		sigma       = fs.Float64("sigma", 0.05, "common noise component σ")
		cands       = fs.Int("candidates", 8, "perturbation optimizer restarts")
		steps       = fs.Int("steps", 8, "perturbation optimizer refinement steps")
		timeout     = fs.Duration("timeout", 5*time.Minute, "protocol deadline")
		serveFor    = fs.Duration("serve", 0, "after unification, serve classification queries for this duration (miner; 0 disables, <0 serves until interrupted)")
		modelName   = fs.String("model", "knn", "served classifier: knn, svm or centroid (miner with -serve)")
		workers     = fs.Int("workers", 0, "serving worker pool size (miner; 0 selects GOMAXPROCS)")
		maxBatch    = fs.Int("maxbatch", 0, "serving batch-size cap (miner; 0 selects the default)")
		queryPath   = fs.String("query", "", "after the run, classify this CSV through the mining service (provider)")
		batchSize   = fs.Int("batch", 64, "records per query frame for -query (provider)")
		streamPath  = fs.String("stream", "", "after the run, stream this labeled CSV into the serving miner's training set (provider)")
		chunkSize   = fs.Int("chunk", 256, "records per streamed chunk for -stream (provider)")
		drift       = fs.Float64("drift", 0, "relative covariance drift triggering a transform re-derivation for -stream (0 disables)")
		refitEvery  = fs.Int("refit", 0, "streamed records accumulated before the served model refits (miner with -serve; 0 selects the default, <0 disables)")
		group       = fs.String("group", "", "serving group id: the group the miner serves its result under, and the group providers stamp on -query/-stream frames (empty selects the default group)")
		groupsFlag  = fs.String("groups", "", "comma-separated id=unified.csv list; the miner serves one model shard per stored unified dataset, skipping the protocol run (miner with -serve)")
		clusterFlag = fs.String("cluster", "", "comma-separated name=addr cluster node list; the miner joins the cluster and serves its rendezvous-derived share of -groups, leading some and following others as a read replica (miner with -groups; this node's -name must be in the list)")
		clusterReps = fs.Int("cluster-replicas", 0, "read replicas per group in the derived routing table (miner with -cluster)")
		failGrace   = fs.Duration("failover-grace", 0, "leader silence tolerated before a group's next-ranked replica assumes leadership (miner with -cluster; 0 selects the default, <0 disables failover)")
		antiEntropy = fs.Duration("anti-entropy", 0, "cluster durability-gossip cadence: sync handshakes, anti-entropy re-pushes and failover detection (miner with -cluster; 0 selects the default, <0 disables)")
		metricsAddr = fs.String("metrics-addr", "", "serve operational metrics over HTTP on this address: GET /metrics returns the JSON snapshot, GET /healthz liveness (empty disables)")
		f32         = fs.Bool("f32", false, "pack record payloads (queries, stream chunks, replicated models) as float32, halving wire bytes at ~7 significant digits of precision; every peer decodes both widths")
		adminCmd    = fs.String("admin", "", "run one admin call against a live mining service instead of a role: register, evict or list (needs -miner and -admin-token; register reads -group, -data, -model and the serving knobs; evict reads -group)")
		adminToken  = fs.String("admin-token", "", "admin control-plane token: a serving miner arms its admin interface with it, -admin calls authenticate with it (empty leaves the admin plane disabled)")
		quotaRate   = fs.Float64("quota", 0, "per-group ingest quota in records per second for -admin register (0: unlimited)")
		quotaBurst  = fs.Int("quota-burst", 0, "ingest quota burst cap in records for -admin register (0 selects the rate)")
		viewsFlag   = fs.String("views", "", "comma-separated multi-level trust view list level[:sigma][=member;member...] (miner with -serve): each served group splits into one model per trust level, lower levels trained under less noise; members restrict a view to the named endpoints; sigma defaults to (level-1)×-view-sigma")
		viewSigma   = fs.Float64("view-sigma", 0.1, "per-level noise step for -views entries without an explicit sigma: level ℓ defaults to (ℓ-1)×step")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("missing -name")
	}
	// The flag default is fixed so reruns (and -help output) are
	// reproducible; -seed 0 explicitly opts into a clock-derived seed.
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}

	var codec transport.Codec
	if *key != "" {
		aes, err := transport.NewAESCodec(*key)
		if err != nil {
			return err
		}
		codec = aes
	}
	node, err := transport.NewTCPNode(*name, *listen, codec)
	if err != nil {
		return err
	}
	defer node.Close()
	fmt.Printf("sapnode %s (%s) listening on %s\n", *name, *role, node.Addr())

	if *peersFlag != "" {
		for _, pair := range strings.Split(*peersFlag, ",") {
			kv := strings.SplitN(pair, "=", 2)
			if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
				return fmt.Errorf("bad peer %q (want name=addr)", pair)
			}
			node.AddPeer(kv[0], kv[1])
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	rng := rand.New(rand.NewSource(*seed))

	// The metrics endpoint is role-agnostic: a miner exposes its serving
	// counters, a provider its streaming pipeline's. The sink stays nil
	// when the flag is unset, and every layer below treats nil as "don't
	// count".
	var sink metrics.Metrics
	if *metricsAddr != "" {
		reg, stopMetrics, err := serveMetrics(*metricsAddr)
		if err != nil {
			return err
		}
		defer stopMetrics()
		sink = reg
	}

	// One wire-option set covers every role: the client side stamps it on
	// protocol clients, the miner side on its groups' replicated models.
	wire := protocol.WireOptions{Float32: *f32}

	if *viewsFlag != "" && *role != "miner" {
		return fmt.Errorf("-views is a miner serving flag (got -role %q)", *role)
	}

	// Admin mode is a role of its own: one authenticated control-plane call
	// against a live mining service, then exit.
	if *adminCmd != "" {
		if *role != "" {
			return fmt.Errorf("-admin conflicts with -role (an admin call is its own mode)")
		}
		return runAdmin(ctx, node, *adminCmd, *miner, *adminToken, *group,
			*dataPath, *modelName, *refitEvery, *workers, *maxBatch, *f32,
			protocol.GroupQuota{RecordsPerSec: *quotaRate, Burst: *quotaBurst})
	}

	switch *role {
	case "provider":
		data, pert, err := loadAndOptimize(*dataPath, rng, *sigma, *cands, *steps)
		if err != nil {
			return err
		}
		prov, err := protocol.NewProvider(node, protocol.ProviderConfig{
			Coordinator:  *coordinator,
			Miner:        *miner,
			Data:         data,
			Perturbation: pert,
			Rng:          rng,
		})
		if err != nil {
			return err
		}
		if err := prov.Run(ctx); err != nil {
			return err
		}
		fmt.Println("provider done: dataset exchanged, adaptor delivered")
		if *streamPath != "" {
			if err := streamToService(ctx, node, *miner, *group, pert, prov.Target(), rng,
				*streamPath, *chunkSize, *drift, sink, wire); err != nil {
				return err
			}
		}
		if *queryPath != "" {
			return queryService(ctx, node, *miner, *group, prov.Target(), *queryPath, *batchSize, wire)
		}
		return nil

	case "coordinator":
		data, pert, err := loadAndOptimize(*dataPath, rng, *sigma, *cands, *steps)
		if err != nil {
			return err
		}
		if *providers == "" {
			return fmt.Errorf("coordinator needs -providers")
		}
		coord, err := protocol.NewCoordinator(node, protocol.CoordinatorConfig{
			Providers:    strings.Split(*providers, ","),
			Miner:        *miner,
			Data:         data,
			Perturbation: pert,
			Rng:          rng,
		})
		if err != nil {
			return err
		}
		if err := coord.Run(ctx); err != nil {
			return err
		}
		fmt.Println("coordinator done: adaptor map delivered to the miner")
		return nil

	case "miner":
		// Validate the serving flags before the (potentially long)
		// protocol run, not after.
		if *serveFor != 0 {
			if _, err := buildModel(*modelName); err != nil {
				return err
			}
		}
		views, err := parseViews(*viewsFlag, *viewSigma)
		if err != nil {
			return err
		}
		if len(views) > 0 && *serveFor == 0 {
			return fmt.Errorf("-views requires -serve (trust views are a serving concept)")
		}
		if *clusterFlag != "" && *groupsFlag == "" {
			return fmt.Errorf("-cluster requires -groups (the cluster partitions the id=csv group list)")
		}
		if *groupsFlag != "" {
			// Multi-group serving from stored unified datasets: no
			// protocol run, one model shard per id=csv pair.
			if *serveFor == 0 {
				return fmt.Errorf("-groups requires -serve")
			}
			if *group != "" {
				return fmt.Errorf("-group conflicts with -groups (the id=csv list already names every group)")
			}
			if *clusterFlag != "" {
				return serveCluster(node, *name, *clusterFlag, *clusterReps,
					*groupsFlag, *modelName, views, *workers, *maxBatch, *refitEvery,
					*failGrace, *antiEntropy, *serveFor, sink, wire, *adminToken)
			}
			return serveGroups(node, *groupsFlag, *modelName, views, *workers, *maxBatch, *refitEvery, *serveFor, sink, wire, *adminToken)
		}
		// Queries racing the tail of the SAP run are stashed so they
		// neither trip the protocol's violation checks nor get lost; the
		// service replays them once it is online.
		conn := newServiceStash(node)
		m, err := protocol.NewMiner(conn, protocol.MinerConfig{
			Coordinator: *coordinator,
			Parties:     *parties,
		})
		if err != nil {
			return err
		}
		res, err := m.Run(ctx)
		if err != nil {
			return err
		}
		pi, err := protocol.Identifiability(*parties)
		if err != nil {
			return err
		}
		fmt.Printf("miner done: unified %d records × %d features (source identifiability %.3f)\n",
			res.Unified.Len(), res.Unified.Dim(), pi)
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				return err
			}
			defer f.Close()
			if err := res.Unified.WriteCSV(f); err != nil {
				return err
			}
			fmt.Printf("unified dataset written to %s\n", *outPath)
		}
		if *serveFor != 0 {
			return serveService(conn, res, *modelName, *group, views, *workers, *maxBatch, *refitEvery, *serveFor, sink, wire, *adminToken)
		}
		return nil

	default:
		return fmt.Errorf("unknown role %q (want provider, coordinator or miner)", *role)
	}
}

// serveService trains the requested model on the unified dataset and answers
// classification queries until the duration elapses (or, when negative,
// until SIGINT/SIGTERM). Queries stashed during the protocol phase are
// answered first. A non-empty group serves the model under that group id
// instead of the default group; -views splits it into multi-level trust
// views, one model per level.
func serveService(conn *serviceStash, res *protocol.MinerResult, modelName, group string, views []viewDef, workers, maxBatch, refitEvery int, d time.Duration, sink metrics.Metrics, wire protocol.WireOptions, adminToken string) error {
	model, err := buildModel(modelName)
	if err != nil {
		return err
	}
	if group == "" {
		group = protocol.DefaultGroup
	}
	spec := protocol.GroupSpec{ID: group, Unified: res.Unified, Model: model, Float32: wire.Float32}
	attachViews(&spec, views)
	reportViewPrivacy(spec)
	conn.beginServe()
	svc, err := protocol.NewGroupedMiningService(conn,
		[]protocol.GroupSpec{spec},
		protocol.ServiceConfig{Workers: workers, MaxBatch: maxBatch, RefitEvery: refitEvery, Metrics: sink, AdminToken: adminToken})
	if err != nil {
		return err
	}
	return serveLoop(svc, fmt.Sprintf("mining service online (%s model, group %q, %d view(s)); serving queries…",
		modelName, group, max(1, len(views))), d)
}

// viewDef is one parsed -views entry.
type viewDef struct {
	level   int
	sigma   float64
	members []string
}

// parseViews maps the -views flag — comma-separated entries of the form
// level[:sigma][=member;member...] — to view definitions. An entry without
// an explicit sigma defaults to (level-1)×step, so "1,2,3" is a ready-made
// three-level ladder.
func parseViews(spec string, step float64) ([]viewDef, error) {
	if spec == "" {
		return nil, nil
	}
	if step < 0 {
		return nil, fmt.Errorf("negative -view-sigma %v", step)
	}
	var out []viewDef
	for _, entry := range strings.Split(spec, ",") {
		head, memberPart, hasMembers := strings.Cut(entry, "=")
		levelPart, sigmaPart, hasSigma := strings.Cut(head, ":")
		var vd viewDef
		if _, err := fmt.Sscanf(levelPart, "%d", &vd.level); err != nil || vd.level <= 0 {
			return nil, fmt.Errorf("bad -views entry %q (want level[:sigma][=member;member...] with a positive level)", entry)
		}
		if hasSigma {
			if _, err := fmt.Sscanf(sigmaPart, "%g", &vd.sigma); err != nil || vd.sigma < 0 {
				return nil, fmt.Errorf("bad -views sigma in %q", entry)
			}
		} else {
			vd.sigma = float64(vd.level-1) * step
		}
		if hasMembers && memberPart != "" {
			vd.members = strings.Split(memberPart, ";")
		}
		if n := len(out); n > 0 {
			if vd.level <= out[n-1].level {
				return nil, fmt.Errorf("-views levels must be strictly increasing (%d after %d)", vd.level, out[n-1].level)
			}
			if vd.sigma < out[n-1].sigma {
				return nil, fmt.Errorf("-views noise must be non-decreasing (%g after %g)", vd.sigma, out[n-1].sigma)
			}
		}
		out = append(out, vd)
	}
	return out, nil
}

// attachViews copies -views definitions onto one group spec; every view
// serves an instance of the group's model.
func attachViews(spec *protocol.GroupSpec, views []viewDef) {
	for _, vd := range views {
		spec.Views = append(spec.Views, protocol.ViewSpec{
			Level:      vd.level,
			NoiseSigma: vd.sigma,
			Members:    append([]string(nil), vd.members...),
		})
	}
}

// viewReportSample caps the records the serve-time coalition report
// evaluates: the attack suite is quadratic-ish in records, and a few
// hundred suffice for the headline numbers.
const viewReportSample = 300

// reportViewPrivacy prints a multi-level group's per-view privacy levels
// and the coalition (diversity-attack) headline before serving: each view's
// minimum attack-suite guarantee on this group's data, and the largest
// privacy gain any coalition of views achieves by pooling — which the
// correlated noise ladder keeps at ~0. Best-effort: evaluation failures are
// reported and serving proceeds.
func reportViewPrivacy(spec protocol.GroupSpec) {
	if len(spec.Views) == 0 {
		return
	}
	x := spec.Unified.FeaturesT()
	if x.Cols() > viewReportSample {
		x = x.Slice(0, x.Rows(), 0, viewReportSample)
	}
	sigmas := make([]float64, len(spec.Views))
	for i, v := range spec.Views {
		sigmas[i] = v.NoiseSigma
	}
	// The same deterministic seeding the serving shard uses, so the report
	// describes the ladder the service actually draws from.
	seed := fnv.New64a()
	seed.Write([]byte(spec.ID))
	rng := rand.New(rand.NewSource(int64(seed.Sum64())))
	ladder, err := perturb.NoiseLadder(rng, x.Rows(), x.Cols(), sigmas)
	if err != nil {
		fmt.Printf("group %q: view privacy report skipped: %v\n", spec.ID, err)
		return
	}
	views := make([]privacy.TrustView, len(spec.Views))
	for i, v := range spec.Views {
		views[i] = privacy.TrustView{Level: v.Level, Sigma: v.NoiseSigma, Data: x.Add(ladder[i])}
	}
	rep, err := privacy.FastEvaluator().EvaluateCoalitions(x, views, privacy.Knowledge{})
	if err != nil {
		fmt.Printf("group %q: view privacy report skipped: %v\n", spec.ID, err)
		return
	}
	for _, v := range rep.Views {
		fmt.Printf("group %q view %d: σ=%.3g privacy guarantee %.4f\n",
			spec.ID, v.Level, v.Sigma, v.Report.MinGuarantee)
	}
	fmt.Printf("group %q: max coalition gain over weakest member %.4f across %d coalition(s) (correlated ladder bounds this at ~0)\n",
		spec.ID, rep.MaxGain, len(rep.Coalitions))
}

// parseGroups maps a -groups id=unified.csv list to protocol group specs,
// one freshly built model per group.
func parseGroups(spec, modelName string, float32Payloads bool) ([]protocol.GroupSpec, error) {
	var groups []protocol.GroupSpec
	for _, pair := range strings.Split(spec, ",") {
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return nil, fmt.Errorf("bad group %q (want id=unified.csv)", pair)
		}
		f, err := os.Open(kv[1])
		if err != nil {
			return nil, err
		}
		data, err := dataset.ReadCSV(f, kv[1])
		f.Close()
		if err != nil {
			return nil, err
		}
		model, err := buildModel(modelName)
		if err != nil {
			return nil, err
		}
		groups = append(groups, protocol.GroupSpec{ID: kv[0], Unified: data, Model: model, Float32: float32Payloads})
	}
	return groups, nil
}

// serveGroups stands up one model shard per id=unified.csv pair and serves
// all of them from this process — the many-contract deployment: each stored
// unified dataset is an earlier contract's result in its own target space.
// A -views list applies to every group: each splits into the same
// multi-level trust structure over its own data.
func serveGroups(conn transport.Conn, spec, modelName string, views []viewDef, workers, maxBatch, refitEvery int, d time.Duration, sink metrics.Metrics, wire protocol.WireOptions, adminToken string) error {
	groups, err := parseGroups(spec, modelName, wire.Float32)
	if err != nil {
		return err
	}
	for i := range groups {
		attachViews(&groups[i], views)
		reportViewPrivacy(groups[i])
	}
	svc, err := protocol.NewGroupedMiningService(conn, groups,
		protocol.ServiceConfig{Workers: workers, MaxBatch: maxBatch, RefitEvery: refitEvery, Metrics: sink, AdminToken: adminToken})
	if err != nil {
		return err
	}
	return serveLoop(svc, fmt.Sprintf("mining service online (%s model, %d groups); serving queries…",
		modelName, len(groups)), d)
}

// serveCluster joins this miner to a cluster: the id=csv group list is
// partitioned across the name=addr node list by rendezvous hashing (every
// node derives the identical table locally), and this process hosts its
// share — leading some groups, following others as a read replica. The
// other cluster nodes are added as transport peers so replication and
// forwarded client traffic can reach them.
func serveCluster(node *transport.TCPNode, name, clusterSpec string, replicas int,
	groupsSpec, modelName string, views []viewDef, workers, maxBatch, refitEvery int,
	failGrace, antiEntropy, d time.Duration, sink metrics.Metrics, wire protocol.WireOptions, adminToken string) error {
	groups, err := parseGroups(groupsSpec, modelName, wire.Float32)
	if err != nil {
		return err
	}
	for i := range groups {
		attachViews(&groups[i], views)
		reportViewPrivacy(groups[i])
	}
	var names []string
	member := false
	for _, pair := range strings.Split(clusterSpec, ",") {
		kv := strings.SplitN(pair, "=", 2)
		if len(kv) != 2 || kv[0] == "" || kv[1] == "" {
			return fmt.Errorf("bad cluster node %q (want name=addr)", pair)
		}
		names = append(names, kv[0])
		if kv[0] == name {
			member = true
		} else {
			node.AddPeer(kv[0], kv[1])
		}
	}
	if !member {
		return fmt.Errorf("-cluster list does not include this node's -name %q", name)
	}
	ids := make([]string, len(groups))
	for i, g := range groups {
		ids[i] = g.ID
	}
	table, err := cluster.NewRendezvousTable(ids, names, replicas)
	if err != nil {
		return err
	}
	n, err := cluster.NewNode(cluster.NodeConfig{
		Name: name, Conn: node, Table: table, Groups: groups,
		Service:          protocol.ServiceConfig{Workers: workers, MaxBatch: maxBatch, RefitEvery: refitEvery, Metrics: sink, AdminToken: adminToken},
		FailoverGrace:    failGrace,
		AntiEntropyEvery: antiEntropy})
	if err != nil {
		return err
	}
	return serveLoop(n, fmt.Sprintf("cluster node online (%s model): leading %v, following %v of %d groups; serving queries…",
		modelName, n.Leads(), n.Follows(), len(groups)), d)
}

// runAdmin executes one authenticated control-plane call against the live
// mining service named by -miner: register stands a new group up from a
// stored target-space CSV (the model is fitted locally first, proving the
// spec trains before it ships), evict retires a serving group, list prints
// every hosted group. The service must have been armed with the same
// -admin-token.
func runAdmin(ctx context.Context, conn transport.Conn, cmd, miner, token, group,
	dataPath, modelName string, refitEvery, workers, maxBatch int, float32Payloads bool,
	quota protocol.GroupQuota) error {
	if miner == "" {
		return fmt.Errorf("-admin needs -miner (the service endpoint to administer)")
	}
	if token == "" {
		return fmt.Errorf("-admin needs -admin-token")
	}
	admin, err := protocol.NewAdminClient(conn, miner, token)
	if err != nil {
		return err
	}
	defer admin.Close()

	switch cmd {
	case "register":
		if group == "" {
			return fmt.Errorf("-admin register needs -group (the new group's id)")
		}
		if dataPath == "" {
			return fmt.Errorf("-admin register needs -data (the group's target-space training CSV)")
		}
		f, err := os.Open(dataPath)
		if err != nil {
			return err
		}
		data, err := dataset.ReadCSV(f, dataPath)
		f.Close()
		if err != nil {
			return err
		}
		model, err := buildModel(modelName)
		if err != nil {
			return err
		}
		if err := model.Fit(data.Clone()); err != nil {
			return fmt.Errorf("group %q model does not train on %s: %w", group, dataPath, err)
		}
		blob, err := classify.EncodeModel(model)
		if err != nil {
			return err
		}
		if err := admin.RegisterGroup(ctx, protocol.AdminGroupSpec{
			ID: group, X: data.X, Y: data.Y, Model: blob,
			RefitEvery: refitEvery, Workers: workers, MaxBatch: maxBatch,
			Float32: float32Payloads, Quota: quota,
		}); err != nil {
			return fmt.Errorf("register %q: %w", group, err)
		}
		fmt.Printf("group %q registered on %s (%d records, %s model)\n",
			group, miner, data.Len(), modelName)
		return nil

	case "evict":
		if group == "" {
			return fmt.Errorf("-admin evict needs -group")
		}
		if err := admin.EvictGroup(ctx, group); err != nil {
			return fmt.Errorf("evict %q: %w", group, err)
		}
		fmt.Printf("group %q evicted from %s\n", group, miner)
		return nil

	case "list":
		infos, err := admin.ListGroups(ctx)
		if err != nil {
			return fmt.Errorf("list groups: %w", err)
		}
		fmt.Printf("%s hosts %d group(s)\n", miner, len(infos))
		for _, info := range infos {
			line := fmt.Sprintf("  %s: workers=%d maxbatch=%d refit=%d ingested=%d",
				info.ID, info.Workers, info.MaxBatch, info.RefitEvery, info.Ingested)
			if info.Quota.RecordsPerSec > 0 {
				line += fmt.Sprintf(" quota=%g/s", info.Quota.RecordsPerSec)
			}
			if info.SyncFrom != "" {
				line += " sync-from=" + info.SyncFrom
			}
			if len(info.Members) > 0 {
				line += " members=" + strings.Join(info.Members, "+")
			}
			fmt.Println(line)
		}
		return nil

	default:
		return fmt.Errorf("unknown -admin command %q (want register, evict or list)", cmd)
	}
}

// serveLoop runs a built service until the duration elapses (or, when
// negative, until SIGINT/SIGTERM).
func serveLoop(svc interface{ Serve(context.Context) error }, banner string, d time.Duration) error {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if d > 0 {
		var cancelTimeout context.CancelFunc
		ctx, cancelTimeout = context.WithTimeout(ctx, d)
		defer cancelTimeout()
	}
	fmt.Println(banner)
	if err := svc.Serve(ctx); err != nil {
		return err
	}
	fmt.Println("mining service stopped")
	return nil
}

// streamToService streams a labeled CSV into the serving miner's training
// set: records are re-chunked, perturbed with the provider's own
// perturbation, adapted into the target space, and pushed one chunk per
// round trip. With -drift set, the pipeline re-derives its transform when
// the input distribution drifts.
func streamToService(ctx context.Context, conn transport.Conn, miner, group string,
	pert, target *perturb.Perturbation, rng *rand.Rand, path string, chunk int, drift float64,
	sink metrics.Metrics, wire protocol.WireOptions) error {
	if miner == "" {
		return fmt.Errorf("missing -miner")
	}
	if target == nil {
		return fmt.Errorf("no target perturbation (run the protocol first)")
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := dataset.ReadCSV(f, path)
	if err != nil {
		return err
	}
	pipe, err := stream.New(stream.Config{
		Perturbation:   pert,
		Target:         target,
		Rng:            rng,
		ChunkSize:      chunk,
		DriftThreshold: drift,
		Metrics:        sink,
	})
	if err != nil {
		return err
	}
	client, err := protocol.NewGroupServiceClient(conn, miner, group)
	if err != nil {
		return err
	}
	defer client.Close()
	// A daemon pushing a long stream is patient: give busy rejections (the
	// group's bounded ingest queue filled faster than its lane drains) a
	// longer capped-exponential retry budget than the client default before
	// ErrBusy ends the stream.
	client.SetBackoff(protocol.Backoff{Tries: 10, Base: 5 * time.Millisecond, Max: 500 * time.Millisecond})
	client.SetWireOptions(wire)

	// The pipeline gets its own cancellable context so an early return (a
	// rejected push) stops the producer instead of leaving it blocked on
	// the bounded buffer.
	pipeCtx, stopPipe := context.WithCancel(ctx)
	defer stopPipe()
	done := make(chan error, 1)
	go func() { done <- pipe.Run(pipeCtx, stream.DatasetSource(d)) }()
	pushed, chunks, total := 0, 0, 0
	for c := range pipe.Out() {
		total, err = client.PushChunk(ctx, c.Data.X, c.Data.Y)
		if errors.Is(err, protocol.ErrRefit) {
			// The chunk landed; only the model refresh failed. Keep
			// streaming on the previous fit.
			fmt.Printf("stream chunk %d: %v (records kept; model refresh pending)\n", c.Seq, err)
		} else if err != nil {
			return fmt.Errorf("stream chunk %d: %w", c.Seq, err)
		}
		pushed += c.Data.Len()
		chunks++
	}
	if err := <-done; err != nil {
		return err
	}
	fmt.Printf("streamed %d records in %d chunks (%d re-derivations); service training set now %d records\n",
		pushed, chunks, pipe.Epoch(), total)
	return nil
}

// queryService classifies a CSV of clear records through the mining service:
// each batch is transformed into the target space with G_t (received during
// the run) and answered in one round trip. When the CSV carries labels, the
// agreement rate is reported.
func queryService(ctx context.Context, conn transport.Conn, miner, group string, target *perturb.Perturbation, path string, batchSize int, wire protocol.WireOptions) error {
	if miner == "" {
		return fmt.Errorf("missing -miner")
	}
	if target == nil {
		return fmt.Errorf("no target perturbation (run the protocol first)")
	}
	if batchSize <= 0 {
		batchSize = 64
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	q, err := dataset.ReadCSV(f, path)
	if err != nil {
		return err
	}
	yq, err := target.ApplyNoiseless(q.FeaturesT())
	if err != nil {
		return err
	}
	client, err := protocol.NewGroupServiceClient(conn, miner, group)
	if err != nil {
		return err
	}
	defer client.Close()
	client.SetWireOptions(wire)

	labels := make([]int, 0, q.Len())
	records := yq.Columns()
	for lo := 0; lo < q.Len(); lo += batchSize {
		hi := lo + batchSize
		if hi > q.Len() {
			hi = q.Len()
		}
		got, err := client.ClassifyBatch(ctx, records[lo:hi])
		if err != nil {
			return fmt.Errorf("query batch at %d: %w", lo, err)
		}
		labels = append(labels, got...)
	}
	correct := 0
	for i, label := range labels {
		if label == q.Y[i] {
			correct++
		}
	}
	fmt.Printf("classified %d records in %d round trips; %d/%d agree with the CSV labels\n",
		len(labels), (q.Len()+batchSize-1)/batchSize, correct, len(labels))
	return nil
}

// loadAndOptimize reads a local CSV dataset and optimizes its geometric
// perturbation against the fast attack suite.
func loadAndOptimize(path string, rng *rand.Rand, sigma float64, cands, steps int) (*dataset.Dataset, *perturb.Perturbation, error) {
	if path == "" {
		return nil, nil, fmt.Errorf("missing -data")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	d, err := dataset.ReadCSV(f, path)
	if err != nil {
		return nil, nil, err
	}
	opt := privacy.NewOptimizer(privacy.OptimizerConfig{
		Candidates: cands,
		LocalSteps: steps,
		NoiseSigma: sigma,
	})
	p, res, err := opt.Optimize(rng, d.FeaturesT())
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("local perturbation optimized: minimum privacy guarantee %.4f\n", res.Guarantee)
	return d, p, nil
}

// buildModel maps a -model flag value to a classifier.
func buildModel(name string) (classify.Classifier, error) {
	switch name {
	case "knn":
		return classify.NewKNN(5), nil
	case "svm":
		return classify.NewSVM(classify.SVMConfig{}), nil
	case "centroid":
		return classify.NewNearestCentroid(), nil
	default:
		return nil, fmt.Errorf("unknown model %q (want knn, svm or centroid)", name)
	}
}

// serveMetrics binds a metrics registry to an HTTP listener: GET /metrics
// answers the JSON snapshot, GET /healthz a liveness probe. The returned
// stop func closes the listener and any active connections — the process
// is exiting, so a scrape racing shutdown may see its connection reset.
func serveMetrics(addr string) (*metrics.Registry, func(), error) {
	reg := metrics.NewRegistry()
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = io.WriteString(w, "{\"status\":\"ok\"}\n")
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics listener: %w", err)
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("metrics on http://%s/metrics (liveness /healthz)\n", ln.Addr())
	return reg, func() { _ = srv.Close() }, nil
}

// serviceStash wraps a Conn so service frames received while the SAP
// protocol is still running are buffered instead of surfaced: the miner's
// protocol loop treats unexpected frames as violations, and a provider may
// start querying the instant its own run completes — before the miner has
// merged. Once beginServe is called, stashed frames are replayed first.
type serviceStash struct {
	transport.Conn
	mu      sync.Mutex
	stash   []transport.Envelope
	serving bool
}

func newServiceStash(conn transport.Conn) *serviceStash {
	return &serviceStash{Conn: conn}
}

// Recv implements transport.Conn.
func (s *serviceStash) Recv(ctx context.Context) (transport.Envelope, error) {
	s.mu.Lock()
	if s.serving && len(s.stash) > 0 {
		env := s.stash[0]
		s.stash = s.stash[1:]
		s.mu.Unlock()
		return env, nil
	}
	serving := s.serving
	s.mu.Unlock()
	for {
		env, err := s.Conn.Recv(ctx)
		if err != nil {
			return env, err
		}
		if !serving && protocol.IsServiceFrame(env.Payload) {
			s.mu.Lock()
			s.stash = append(s.stash, env)
			s.mu.Unlock()
			continue
		}
		return env, nil
	}
}

// beginServe switches the stash into replay mode.
func (s *serviceStash) beginServe() {
	s.mu.Lock()
	s.serving = true
	s.mu.Unlock()
}
