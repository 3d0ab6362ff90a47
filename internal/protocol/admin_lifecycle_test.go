package protocol

// Lifecycle tests for the admin control plane: registering, evicting and
// rate-limiting groups on a live service, with client traffic in flight. Run
// with -race — the whole point of the shard lifecycle design is that admin
// mutations and the serving path never touch shared state unsynchronized.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// offsetLine builds an n-record 1-D dataset whose record i sits at i/n and
// carries label offset+i, so groups answer from disjoint label ranges.
func offsetLine(t *testing.T, n, offset int) *dataset.Dataset {
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

// adminSpecFor wires a dataset into a registration spec the way an operator
// client would: fit locally, encode, ship records and blob.
func adminSpecFor(t *testing.T, id string, d *dataset.Dataset, quota GroupQuota) AdminGroupSpec {
	t.Helper()
	model := classify.NewKNN(1)
	if err := model.Fit(d.Clone()); err != nil {
		t.Fatal(err)
	}
	blob, err := classify.EncodeModel(model)
	if err != nil {
		t.Fatal(err)
	}
	return AdminGroupSpec{ID: id, X: d.X, Y: d.Y, Model: blob, Quota: quota}
}

// startAdminService serves the given groups with the admin plane armed and
// returns the transport net plus a cleanup.
func startAdminService(t *testing.T, specs []GroupSpec, cfg ServiceConfig) (*transport.MemNetwork, func()) {
	t.Helper()
	net := transport.NewMemNetwork()
	conn, err := net.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewGroupedMiningService(conn, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := svc.Serve(ctx); err != nil {
			t.Error(err)
		}
	}()
	cleanup := func() {
		cancel()
		<-done
		conn.Close()
	}
	return net, cleanup
}

// groupClient opens a group-stamped service client on its own endpoint.
func adminGroupClient(t *testing.T, net *transport.MemNetwork, name, group string) *ServiceClient {
	t.Helper()
	conn, err := net.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewGroupServiceClient(conn, "svc", group)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); conn.Close() })
	return c
}

// adminClient opens an authenticated admin client on its own endpoint.
func adminClient(t *testing.T, net *transport.MemNetwork, name, token string) *AdminClient {
	t.Helper()
	conn, err := net.Endpoint(name)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAdminClient(conn, "svc", token)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); conn.Close() })
	return a
}

// TestAdminRegisterWhileServing registers a new group while another group's
// queries are in full flight: the hammered group never misses a beat, and the
// new group answers the moment RegisterGroup returns.
func TestAdminRegisterWhileServing(t *testing.T) {
	net, cleanup := startAdminService(t,
		[]GroupSpec{{ID: "g-a", Unified: offsetLine(t, 4, 0), Model: classify.NewKNN(1)}},
		ServiceConfig{AdminToken: "tok", Workers: 2})
	defer cleanup()
	ctx := testCtx(t)

	hammer := adminGroupClient(t, net, "hammer", "g-a")
	stop := make(chan struct{})
	var hammerErr error
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
			if label, err := hammer.Classify(ctx, []float64{0.01}); err != nil {
				hammerErr = err
				return
			} else if label != 0 {
				hammerErr = errors.New("g-a answered a foreign label")
				return
			}
		}
	}()

	admin := adminClient(t, net, "admin", "tok")
	if err := admin.RegisterGroup(ctx, adminSpecFor(t, "g-b", offsetLine(t, 4, 100), GroupQuota{})); err != nil {
		t.Fatalf("register g-b: %v", err)
	}
	// A duplicate registration is refused with the typed code.
	if err := admin.RegisterGroup(ctx, adminSpecFor(t, "g-b", offsetLine(t, 4, 100), GroupQuota{})); !errors.Is(err, ErrGroupExists) {
		t.Fatalf("duplicate register err = %v, want ErrGroupExists", err)
	}

	fresh := adminGroupClient(t, net, "fresh", "g-b")
	label, err := fresh.Classify(ctx, []float64{0.01})
	if err != nil {
		t.Fatalf("g-b classify after register: %v", err)
	}
	if label != 100 {
		t.Fatalf("g-b answered %d, want 100", label)
	}

	close(stop)
	wg.Wait()
	if hammerErr != nil {
		t.Fatalf("g-a traffic during register: %v", hammerErr)
	}
}

// TestAdminEvictWhileIngesting evicts a group that is being streamed into:
// the pusher sees clean typed errors once the group is gone, the sibling
// group keeps serving, and nothing races or deadlocks.
func TestAdminEvictWhileIngesting(t *testing.T) {
	net, cleanup := startAdminService(t,
		[]GroupSpec{
			{ID: "g-a", Unified: offsetLine(t, 4, 0), Model: classify.NewKNN(1), RefitEvery: 2},
			{ID: "g-b", Unified: offsetLine(t, 4, 100), Model: classify.NewKNN(1)},
		},
		ServiceConfig{AdminToken: "tok", Workers: 2})
	defer cleanup()
	ctx := testCtx(t)

	pusher := adminGroupClient(t, net, "pusher", "g-a")
	stop := make(chan struct{})
	var pushErr error
	sawUnknown := false
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
			_, err := pusher.PushChunk(ctx, [][]float64{{0.5}}, []int{3})
			switch {
			case err == nil, errors.Is(err, ErrRefit), errors.Is(err, ErrBusy):
			case errors.Is(err, ErrUnknownGroup):
				// The evict landed mid-stream: exactly the typed rejection a
				// producer needs to stop pushing.
				sawUnknown = true
				return
			default:
				pushErr = err
				return
			}
		}
	}()

	// Let a few chunks land before the rug-pull.
	time.Sleep(20 * time.Millisecond)
	admin := adminClient(t, net, "admin", "tok")
	if err := admin.EvictGroup(ctx, "g-a"); err != nil {
		t.Fatalf("evict g-a: %v", err)
	}
	close(stop)
	wg.Wait()
	if pushErr != nil {
		t.Fatalf("pusher error: %v", pushErr)
	}
	_ = sawUnknown // the pusher may also have stopped before its next push

	// The evicted group answers ErrUnknownGroup; the sibling is untouched.
	gone := adminGroupClient(t, net, "gone", "g-a")
	if _, err := gone.Classify(ctx, []float64{0.01}); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("evicted group err = %v, want ErrUnknownGroup", err)
	}
	alive := adminGroupClient(t, net, "alive", "g-b")
	if label, err := alive.Classify(ctx, []float64{0.01}); err != nil || label != 100 {
		t.Fatalf("sibling after evict: label %d err %v, want 100 nil", label, err)
	}
	// A second evict of the same group is a typed miss, not a hang.
	if err := admin.EvictGroup(ctx, "g-a"); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("double evict err = %v, want ErrUnknownGroup", err)
	}
}

// TestAdminEvictThenReRegister recycles a group ID: evicting g-x and
// registering a different g-x under the same name must serve the new
// training set, proving the old shard fully died.
func TestAdminEvictThenReRegister(t *testing.T) {
	net, cleanup := startAdminService(t,
		[]GroupSpec{{ID: "g-x", Unified: offsetLine(t, 4, 0), Model: classify.NewKNN(1)}},
		ServiceConfig{AdminToken: "tok", Workers: 1})
	defer cleanup()
	ctx := testCtx(t)

	admin := adminClient(t, net, "admin", "tok")
	old := adminGroupClient(t, net, "old", "g-x")
	if label, err := old.Classify(ctx, []float64{0.01}); err != nil || label != 0 {
		t.Fatalf("pre-evict: label %d err %v, want 0 nil", label, err)
	}
	if err := admin.EvictGroup(ctx, "g-x"); err != nil {
		t.Fatalf("evict: %v", err)
	}
	if _, err := old.Classify(ctx, []float64{0.01}); !errors.Is(err, ErrUnknownGroup) {
		t.Fatalf("post-evict err = %v, want ErrUnknownGroup", err)
	}
	if err := admin.RegisterGroup(ctx, adminSpecFor(t, "g-x", offsetLine(t, 4, 500), GroupQuota{})); err != nil {
		t.Fatalf("re-register: %v", err)
	}
	reborn := adminGroupClient(t, net, "reborn", "g-x")
	if label, err := reborn.Classify(ctx, []float64{0.01}); err != nil || label != 500 {
		t.Fatalf("re-registered group: label %d err %v, want 500 nil", label, err)
	}
}

// TestAdminQuotaExhaustion drives a quota-limited group over its burst: the
// over-quota chunk bounces with a typed ErrQuota within one round trip (no
// backoff retries — quota is policy, not congestion), the rejection counts
// under rejects.quota, and records below the burst still land.
func TestAdminQuotaExhaustion(t *testing.T) {
	reg := metrics.NewRegistry()
	net, cleanup := startAdminService(t,
		[]GroupSpec{{ID: "g-q", Unified: offsetLine(t, 4, 0), Model: classify.NewKNN(1),
			Quota: GroupQuota{RecordsPerSec: 1, Burst: 2}}},
		ServiceConfig{AdminToken: "tok", Workers: 1, Metrics: reg})
	defer cleanup()
	ctx := testCtx(t)

	client := adminGroupClient(t, net, "cli", "g-q")
	start := time.Now()
	_, err := client.PushChunk(ctx, [][]float64{{0.1}, {0.2}, {0.3}}, []int{1, 1, 1})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("over-quota push err = %v, want ErrQuota", err)
	}
	// One round trip: the client's busy backoff (tries with sleeps in the
	// hundreds of milliseconds) must NOT engage for a quota rejection.
	if elapsed > time.Second {
		t.Fatalf("quota rejection took %v — the client retried a policy error", elapsed)
	}
	if got := reg.Snapshot().Counters["service.g-q.rejects.quota"]; got != 1 {
		t.Fatalf("rejects.quota = %d, want 1", got)
	}
	// A failed take spends nothing: the 2-record burst is still available.
	if _, err := client.PushChunk(ctx, [][]float64{{0.1}, {0.2}}, []int{1, 1}); err != nil &&
		!errors.Is(err, ErrRefit) {
		t.Fatalf("in-quota push: %v", err)
	}
	// An admin update lifting the quota takes effect on the next frame.
	admin := adminClient(t, net, "admin", "tok")
	if err := admin.UpdateGroup(ctx, "g-q", AdminUpdate{SetQuota: true}); err != nil {
		t.Fatalf("update: %v", err)
	}
	if _, err := client.PushChunk(ctx, [][]float64{{0.1}, {0.2}, {0.3}}, []int{1, 1, 1}); err != nil &&
		!errors.Is(err, ErrRefit) {
		t.Fatalf("post-update push: %v", err)
	}
}
