package cluster

// Admin control plane on a live cluster: a group registered through the
// admin frames must enter the node's routing table under an epoch-bumped row
// and become discoverable — and servable — by cluster clients without any
// restart; an evicted group's row retires with its shard.

import (
	"errors"
	"testing"

	"repro/internal/classify"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// TestClusterAdminRegisterDiscovery registers a third group on a serving
// two-node cluster and checks the full discovery loop: the node's epoch
// bumps, a route-missing client re-discovers, and the new group classifies.
// Evicting the group retires its row and clients lose the route.
func TestClusterAdminRegisterDiscovery(t *testing.T) {
	net := transport.NewMemNetwork()
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-a", Node: "n1"},
		{Group: "g-b", Node: "n2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocol.ServiceConfig{AdminToken: "tok"}
	n1, _ := startNode(t, net, "n1", table, twoGroupSpecs(t), cfg)
	startNode(t, net, "n2", table, twoGroupSpecs(t), cfg)
	cli := startClient(t, net, "cli", []string{"n1", "n2"}, nil)
	ctx := testCtx(t)

	// Warm the client's routing table on the base epoch.
	if label, err := cli.Classify(ctx, "g-a", []float64{0.01}); err != nil || label != 0 {
		t.Fatalf("g-a warmup: label %d err %v, want 0 nil", label, err)
	}
	if label, err := cli.Classify(ctx, "g-b", []float64{0.01}); err != nil || label != 100 {
		t.Fatalf("g-b warmup: label %d err %v, want 100 nil", label, err)
	}
	baseEpoch := n1.Epoch()

	// Register g-c on n1 through the admin plane. The registration hook must
	// install an epoch-bumped routing row for the new group.
	adminConn, err := net.Endpoint("admin")
	if err != nil {
		t.Fatal(err)
	}
	defer adminConn.Close()
	admin, err := protocol.NewAdminClient(adminConn, "n1", "tok")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	model := twoGroupSpecs(t)[0].Model
	data := clusterLine(t, 4, 200)
	if err := model.Fit(data.Clone()); err != nil {
		t.Fatal(err)
	}
	blob, err := classify.EncodeModel(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.RegisterGroup(ctx, protocol.AdminGroupSpec{
		ID: "g-c", X: data.X, Y: data.Y, Model: blob}); err != nil {
		t.Fatalf("register g-c: %v", err)
	}
	if got := n1.Epoch(); got <= baseEpoch {
		t.Fatalf("epoch after register = %d, want > %d", got, baseEpoch)
	}

	// The client's cached table predates g-c: the route miss triggers a
	// re-discovery that finds the bumped row, and the group answers — no
	// restart anywhere.
	label, err := cli.Classify(ctx, "g-c", []float64{0.01})
	if err != nil {
		t.Fatalf("g-c classify after register: %v", err)
	}
	if label != 200 {
		t.Fatalf("g-c answered %d, want 200", label)
	}

	// Evict g-c: the shard dies with its routing row. A client holding the
	// stale row gets the service's typed ErrUnknownGroup (the re-discovery
	// merge keeps the highest-epoch row it has seen); a client discovering
	// fresh finds no route at all. Either way the group is typed-gone.
	if err := admin.EvictGroup(ctx, "g-c"); err != nil {
		t.Fatalf("evict g-c: %v", err)
	}
	_, err = cli.Classify(ctx, "g-c", []float64{0.01})
	if !errors.Is(err, protocol.ErrUnknownGroup) && !errors.Is(err, ErrNoRoute) {
		t.Fatalf("evicted g-c err = %v, want ErrUnknownGroup or ErrNoRoute", err)
	}
	if label, err := cli.Classify(ctx, "g-a", []float64{0.01}); err != nil || label != 0 {
		t.Fatalf("g-a after evict: label %d err %v, want 0 nil", label, err)
	}
}
