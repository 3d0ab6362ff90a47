package protocol

// The admin control plane: authenticated wire frames that register, evict
// and reconfigure serving groups on a live MiningService. The client half
// (AdminClient) and the wire types it shares with the service live here; the
// service-side execution (dynamic shard lifecycle) lives in registry.go.

import (
	"context"
	"crypto/subtle"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/transport"
)

// GroupQuota is a per-group ingest rate limit: a records-per-second token
// bucket checked before a chunk is queued, so an over-quota producer gets a
// typed ErrQuota within one round trip instead of crowding out the group's
// queue. The zero value means unlimited.
type GroupQuota struct {
	// RecordsPerSec refills the bucket; zero or negative disables the
	// quota.
	RecordsPerSec float64
	// Burst caps the bucket — the largest record count admitted at once
	// after an idle spell. Zero selects RecordsPerSec (rounded up, at least
	// one record).
	Burst int
}

// enabled reports whether the quota limits anything.
func (q GroupQuota) enabled() bool { return q.RecordsPerSec > 0 }

// tokenBucket is the runtime form of a GroupQuota: a mutex-protected
// continuous-refill bucket. One per shard, touched once per ingest frame, so
// the lock is uncontended compared to the queue behind it.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

// newTokenBucket builds a bucket for q, or nil when q is unlimited. The
// bucket starts full, so a freshly (re)configured group admits one burst
// immediately.
func newTokenBucket(q GroupQuota) *tokenBucket {
	if !q.enabled() {
		return nil
	}
	burst := float64(q.Burst)
	if burst <= 0 {
		burst = q.RecordsPerSec
		if burst < 1 {
			burst = 1
		}
	}
	return &tokenBucket{rate: q.RecordsPerSec, burst: burst, tokens: burst, last: time.Now()}
}

// take spends n tokens if the refilled bucket holds them; a false return
// spends nothing (quota rejections must not eat into future budget).
func (b *tokenBucket) take(n float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// AdminGroupSpec is the wire form of a group registration: everything a
// live service needs to stand the group up, including its initial training
// records (already perturbed into the group's target space — the admin plane
// never moves clear data) and an encoded classifier to fit on them.
type AdminGroupSpec struct {
	// ID names the new serving group. Must be unused on the target service.
	ID string
	// X and Y are the group's initial training records and labels, in the
	// group's perturbed target space.
	X [][]float64
	Y []int
	// Model is the group's classifier in classify.EncodeModel format. The
	// service decodes it and fits it on X/Y before the group serves.
	Model []byte
	// RefitEvery, Workers and MaxBatch tune the group exactly like their
	// GroupSpec counterparts (zero picks the service defaults; negative
	// RefitEvery disables automatic refits).
	RefitEvery int
	Workers    int
	MaxBatch   int
	// Members is the group's ACL (empty admits any peer).
	Members []string
	// Float32 marks the group's replication traffic for packed-float32
	// model blobs.
	Float32 bool
	// Quota is the group's ingest rate limit (zero: unlimited).
	Quota GroupQuota
	// Views is the group's ordered trust-view list, mirroring
	// GroupSpec.Views: every view fits its own instance of Model. Nil
	// registers one open level-1 view.
	Views []AdminViewSpec
}

// AdminViewSpec is one trust view in a group registration. A ViewSpec is
// plain data, so the registry's own form travels as is.
type AdminViewSpec = ViewSpec

// AdminUpdate names the limits a kindAdminUpdate changes on a live group.
// Each Set flag gates its field, so an update touches exactly what the
// operator asked for and nothing else.
type AdminUpdate struct {
	// SetQuota replaces the group's ingest quota with Quota (the zero
	// GroupQuota removes the limit).
	SetQuota bool
	Quota    GroupQuota
	// SetMaxBatch replaces the group's per-request batch cap.
	SetMaxBatch bool
	MaxBatch    int
	// SetRefitEvery replaces the group's refit cadence (negative disables
	// automatic refits).
	SetRefitEvery bool
	RefitEvery    int
	// SetMembers replaces the group's ACL (empty admits any peer).
	SetMembers bool
	Members    []string
	// SetViewMembers replaces the per-view ACLs named in ViewMembers (one
	// row per view level; an empty member list opens the view to every
	// group member). Levels the group does not serve reject the whole
	// update, applying nothing.
	SetViewMembers bool
	ViewMembers    []AdminViewMembers
}

// AdminViewMembers names one trust view's replacement ACL in an AdminUpdate.
type AdminViewMembers struct {
	Level   int
	Members []string
}

// AdminGroupInfo describes one hosted group in a kindAdminList answer.
type AdminGroupInfo struct {
	ID         string
	Workers    int
	MaxBatch   int
	RefitEvery int
	Members    []string
	// SyncFrom is the leader this group replicates from ("" when the group
	// leads itself).
	SyncFrom string
	Float32  bool
	Quota    GroupQuota
	// Ingested is the group's total stream-ingested record count.
	Ingested int64
	// Views describes the group's trust views in ascending level order.
	Views []AdminViewInfo
}

// AdminViewInfo describes one trust view of a hosted group.
type AdminViewInfo struct {
	Level      int
	NoiseSigma float64
	Members    []string
}

// groupSpec converts the wire spec into the registry's GroupSpec: the
// training set is rebuilt and the model blob decoded. The caller (the
// service's admin goroutine) fits the model afterwards via newModelShard.
func (w *AdminGroupSpec) groupSpec() (GroupSpec, error) {
	if w.ID == "" {
		return GroupSpec{}, fmt.Errorf("register without a group ID")
	}
	ds, err := dataset.New(w.ID, w.X, w.Y)
	if err != nil {
		return GroupSpec{}, fmt.Errorf("group %q training set: %v", w.ID, err)
	}
	if len(w.Model) == 0 {
		return GroupSpec{}, fmt.Errorf("group %q: no model blob", w.ID)
	}
	model, err := classify.DecodeModel(w.Model)
	if err != nil {
		return GroupSpec{}, fmt.Errorf("group %q model: %v", w.ID, err)
	}
	return GroupSpec{
		ID:         w.ID,
		Unified:    ds,
		Model:      model,
		RefitEvery: w.RefitEvery,
		Workers:    w.Workers,
		MaxBatch:   w.MaxBatch,
		Members:    w.Members,
		Float32:    w.Float32,
		Quota:      w.Quota,
		Views:      w.Views,
	}, nil
}

// adminTokenOK authenticates one admin frame against the configured token in
// constant time. An empty configured token admits nothing.
func adminTokenOK(configured, presented string) bool {
	if configured == "" {
		return false
	}
	return subtle.ConstantTimeCompare([]byte(configured), []byte(presented)) == 1
}

// AdminClient drives the admin control plane of one mining service:
// registering, evicting, updating and listing serving groups at runtime.
// Safe for concurrent use; Close releases the underlying demultiplexer.
type AdminClient struct {
	inner *ServiceClient
	token string
}

// NewAdminClient binds an admin client to a service endpoint. The token must
// match the service's ServiceConfig.AdminToken; an empty token is rejected
// here because it could never authenticate.
func NewAdminClient(conn transport.Conn, miner, token string) (*AdminClient, error) {
	if token == "" {
		return nil, fmt.Errorf("%w: empty admin token", ErrBadConfig)
	}
	inner, err := NewServiceClient(conn, miner)
	if err != nil {
		return nil, err
	}
	return &AdminClient{inner: inner, token: token}, nil
}

// Close stops the client's response demultiplexer.
func (a *AdminClient) Close() error { return a.inner.Close() }

// call is one authenticated admin round trip with the response code mapped
// to a typed error.
func (a *AdminClient) call(ctx context.Context, w *serviceWire) (*serviceWire, error) {
	w.Token = a.token
	resp, err := a.inner.roundTrip(ctx, a.inner.miner, w)
	if err != nil {
		return nil, err
	}
	if err := responseErr(resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// RegisterGroup stands a new serving group up on the live service: the
// service fits the spec's model on its training records off the serving
// loop, starts the group's queues and goroutines, and (in a cluster) leads
// the group under a fresh epoch-bumped routing row so clients discover it
// without any restart. ErrGroupExists if the ID is already hosted.
func (a *AdminClient) RegisterGroup(ctx context.Context, spec AdminGroupSpec) error {
	if spec.ID == "" {
		return fmt.Errorf("%w: register without a group ID", ErrBadConfig)
	}
	_, err := a.call(ctx, &serviceWire{Kind: kindAdminRegister, Group: spec.ID, Spec: &spec})
	return err
}

// EvictGroup removes a serving group from the live service: its ingest
// queue drains (queued chunks still fold in), queued classifies answer, the
// refit goroutine stops, and subsequent frames for the group are rejected
// with ErrUnknownGroup. Other groups are unaffected. ErrUnknownGroup if the
// service does not host the group.
func (a *AdminClient) EvictGroup(ctx context.Context, group string) error {
	if group == "" {
		return fmt.Errorf("%w: evict without a group", ErrBadConfig)
	}
	_, err := a.call(ctx, &serviceWire{Kind: kindAdminEvict, Group: group})
	return err
}

// UpdateGroup changes a live group's limits in place — quota, batch cap,
// refit cadence, members ACL — per the update's Set flags. In-flight
// requests finish under the limits they were admitted with; the next frame
// sees the new ones.
func (a *AdminClient) UpdateGroup(ctx context.Context, group string, u AdminUpdate) error {
	if group == "" {
		return fmt.Errorf("%w: update without a group", ErrBadConfig)
	}
	if !u.SetQuota && !u.SetMaxBatch && !u.SetRefitEvery && !u.SetMembers && !u.SetViewMembers {
		return fmt.Errorf("%w: update changes nothing", ErrBadConfig)
	}
	_, err := a.call(ctx, &serviceWire{Kind: kindAdminUpdate, Group: group, Update: &u})
	return err
}

// ListGroups describes every group the service currently hosts, in serving
// order.
func (a *AdminClient) ListGroups(ctx context.Context) ([]AdminGroupInfo, error) {
	resp, err := a.call(ctx, &serviceWire{Kind: kindAdminList})
	if err != nil {
		return nil, err
	}
	return resp.Infos, nil
}

// sortedMembers flattens a members set for an AdminGroupInfo row.
func sortedMembers(set map[string]struct{}) []string {
	if len(set) == 0 {
		return nil
	}
	members := make([]string, 0, len(set))
	for m := range set {
		members = append(members, m)
	}
	sort.Strings(members)
	return members
}
