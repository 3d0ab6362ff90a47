package sap_test

// The admin plane's multi-level path through the public facade: a trust-view
// group registered at runtime with Admin.RegisterGroup on a live ServeGroups
// miner lists its views and serves each of them to its own members.

import (
	"context"
	"errors"
	"reflect"
	"testing"

	sap "repro"
)

func TestAdminRegisterTrustViews(t *testing.T) {
	host, _ := runGroupSession(t, "Iris", 141, "host", sap.WithAdminToken("views-token"))
	tiers, holdout := runGroupSession(t, "Iris", 142, "tiers")

	net := sap.NewMemNetwork()
	svcConn, err := net.Endpoint("mining-service")
	if err != nil {
		t.Fatal(err)
	}
	defer svcConn.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- sap.ServeGroups(ctx, svcConn, sap.Group{Session: host, Model: sap.NewKNN(3)}) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Error(err)
		}
	}()

	adminConn, err := net.Endpoint("operator")
	if err != nil {
		t.Fatal(err)
	}
	defer adminConn.Close()
	admin, err := sap.NewAdmin(adminConn, "mining-service", "views-token")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	views := []sap.ViewConfig{
		{Level: 1, NoiseSigma: 0, Members: []string{"analyst"}},
		{Level: 2, NoiseSigma: 0.3, Members: []string{"partner", "analyst"}},
		{Level: 3, NoiseSigma: 1.5},
	}
	if err := admin.RegisterGroup(runCtx(t), sap.GroupConfig{
		ID: "tiers", Data: tiers.Unified(), Model: sap.NewKNN(3), Views: views,
	}); err != nil {
		t.Fatal(err)
	}

	infos, err := admin.ListGroups(runCtx(t))
	if err != nil {
		t.Fatal(err)
	}
	var got []sap.GroupViewInfo
	found := false
	for _, info := range infos {
		if info.ID == "tiers" {
			got, found = info.Views, true
		}
	}
	if !found {
		t.Fatalf("registered group missing from the admin list %+v", infos)
	}
	want := []sap.GroupViewInfo{
		{Level: 1, NoiseSigma: 0, Members: []string{"analyst"}},
		{Level: 2, NoiseSigma: 0.3, Members: []string{"analyst", "partner"}},
		{Level: 3, NoiseSigma: 1.5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("listed views = %+v, want %+v", got, want)
	}

	classifyAs := func(endpoint string, view int) error {
		conn, err := net.Endpoint(endpoint)
		if err != nil {
			return err
		}
		defer conn.Close()
		client, err := tiers.NewClient(conn, sap.ClientConfig{Miner: "mining-service", View: view})
		if err != nil {
			return err
		}
		defer client.Close()
		labels, err := client.ClassifyBatch(runCtx(t), holdout.X)
		if err == nil && len(labels) != holdout.Len() {
			t.Errorf("%s on view %d: %d labels for %d records", endpoint, view, len(labels), holdout.Len())
		}
		return err
	}
	for _, tc := range []struct {
		endpoint string
		view     int
		member   bool
	}{
		{"analyst", 1, true},
		{"analyst", 2, true},
		{"analyst", 3, true},
		{"partner", 1, false},
		{"partner", 2, true},
		{"public", 1, false},
		{"public", 2, false},
		{"public", 3, true},
	} {
		err := classifyAs(tc.endpoint, tc.view)
		switch {
		case tc.member && err != nil:
			t.Errorf("%s on view %d: %v", tc.endpoint, tc.view, err)
		case !tc.member && !errors.Is(err, sap.ErrNotMember):
			t.Errorf("%s on view %d: err = %v, want ErrNotMember", tc.endpoint, tc.view, err)
		}
	}
}
