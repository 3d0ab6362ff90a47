package protocol_test

// The size of the admin register frame the operator facade actually sends:
// a trust-view group ships its training set and one prototype model, so
// splitting a group into views must not multiply the frame.

import (
	"context"
	"testing"
	"time"

	sap "repro"
)

// registerFrameBytes captures the kindAdminRegister frame sap.Admin sends for
// a KNN(5) group on data with the given views, and returns its length.
func registerFrameBytes(t *testing.T, data *sap.Dataset, views []sap.ViewConfig) int {
	t.Helper()
	net := sap.NewMemNetwork()
	miner, err := net.Endpoint("miner")
	if err != nil {
		t.Fatal(err)
	}
	defer miner.Close()
	opConn, err := net.Endpoint("operator")
	if err != nil {
		t.Fatal(err)
	}
	defer opConn.Close()
	admin, err := sap.NewAdmin(opConn, "miner", "frame-token")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sent := make(chan error, 1)
	go func() {
		sent <- admin.RegisterGroup(ctx, sap.GroupConfig{
			ID: "diabetes", Data: data, Model: sap.NewKNN(5), Views: views})
	}()
	env, err := miner.Recv(ctx)
	if err != nil {
		t.Fatalf("no register frame: %v (register: %v)", err, <-sent)
	}
	// Nobody answers the frame; release the waiting register call.
	cancel()
	<-sent
	return len(env.Payload)
}

func TestAdminRegisterFrameCarriesOneModel(t *testing.T) {
	data, err := sap.GenerateDataset("Diabetes", 7)
	if err != nil {
		t.Fatal(err)
	}
	single := registerFrameBytes(t, data, nil)
	tiered := registerFrameBytes(t, data, []sap.ViewConfig{
		{Level: 1, NoiseSigma: 0, Members: []string{"analyst"}},
		{Level: 2, NoiseSigma: 0.2, Members: []string{"analyst", "partner"}},
		{Level: 3, NoiseSigma: 0.8},
	})
	t.Logf("register frame: single view %d B, three views %d B", single, tiered)
	if limit := single + single/100; tiered > limit {
		t.Errorf("3-view register frame is %d B, want at most %d B (1%% above the single-view %d B)",
			tiered, limit, single)
	}
}
