package cluster

import (
	"testing"
	"time"

	"repro/internal/classify"
	"repro/internal/metrics"
	"repro/internal/protocol"
)

// TestMultiViewReplication replicates a two-view trust group (levels 1 and
// 2, noise σ 0 and 0.1) from leader n1 to replica n2 over the TCP fixture:
// one refit installs both views under one shared sequence, the replica's
// per-view models answer exactly as the leader's do, and after a leader
// restart and its handshake floor the next refit lands both views again.
func TestMultiViewReplication(t *testing.T) {
	table, err := NewStaticTable([]protocol.RouteEntry{
		{Group: "g-v", Node: "n1", Replicas: []string{"n2"}}})
	if err != nil {
		t.Fatal(err)
	}
	specs := func() []protocol.GroupSpec {
		return []protocol.GroupSpec{{ID: "g-v", Unified: clusterLine(t, 4, 0), Model: classify.NewKNN(1), Views: []protocol.ViewSpec{
			{Level: 1, NoiseSigma: 0},
			{Level: 2, NoiseSigma: 0.1},
		}}}
	}
	c := newChaos(t, table, []string{"n1", "n2"}, specs,
		func(reg *metrics.Registry) protocol.ServiceConfig {
			return protocol.ServiceConfig{RefitEvery: 4, Metrics: reg}
		}, 25*time.Millisecond, -1)
	cliConn := c.peer("cli")
	c.startAll()

	ctx := testCtx(t)
	cli, err := NewClient(ClientConfig{Conn: cliConn, Seeds: []string{"n1", "n2"},
		AttemptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = cli.Close() })

	reg2 := c.nodes["n2"].registry()
	// bothViewsAt reports whether n2 installed exactly `installs` models per
	// view and both views sit at one shared sequence, returned.
	bothViewsAt := func(installs int64) (uint64, bool) {
		s1 := gaugeOf(reg2, "service.g-v.view.1.sync.seq")
		s2 := gaugeOf(reg2, "service.g-v.view.2.sync.seq")
		ok := counterOf(reg2, "service.g-v.view.1.sync.installs") == installs &&
			counterOf(reg2, "service.g-v.view.2.sync.installs") == installs &&
			s1 == s2 && s1 > 0
		return uint64(s1), ok
	}
	// agree checks every view of n2 predicts as n1's does over a grid that
	// spans the seed and the pushed records; view 2's noisy fit is only
	// reproduced by installing the leader's blob.
	agree := func(stage string) {
		t.Helper()
		leader, err := c.nodes["n1"].current().Service().GroupViewModels("g-v")
		if err != nil {
			t.Fatal(err)
		}
		replica, err := c.nodes["n2"].current().Service().GroupViewModels("g-v")
		if err != nil {
			t.Fatal(err)
		}
		if len(leader) != 2 || len(replica) != 2 {
			t.Fatalf("%s: %d leader and %d replica views, want 2 each", stage, len(leader), len(replica))
		}
		for i := range leader {
			if leader[i].Level != replica[i].Level {
				t.Fatalf("%s: view %d levels %d vs %d", stage, i, leader[i].Level, replica[i].Level)
			}
			for x := -0.5; x < 10; x += 0.05 {
				want, err1 := leader[i].Model.Predict([]float64{x})
				got, err2 := replica[i].Model.Predict([]float64{x})
				if err1 != nil || err2 != nil || got != want {
					t.Fatalf("%s: view %d at x=%.2f: n2 = %d (%v), n1 = %d (%v)",
						stage, leader[i].Level, x, got, err2, want, err1)
				}
			}
		}
	}

	xs, ys := chunkAt(2, 50)
	if _, err := cli.Push(ctx, "g-v", xs, ys); err != nil {
		t.Fatal(err)
	}
	var first uint64
	waitFor(t, "first refit's views installed on n2 under one sequence", func() bool {
		var ok bool
		first, ok = bothViewsAt(1)
		return ok
	})
	agree("first refit")

	c.nodes["n1"].proc.Kill()
	if err := c.nodes["n1"].proc.Start(); err != nil {
		t.Fatal(err)
	}
	reg1b := c.nodes["n1"].registry()
	waitFor(t, "restarted leader handshake", func() bool {
		return counterOf(reg1b, "cluster.handshake_floors") >= 1
	})

	xs, ys = chunkAt(6, 60)
	if _, err := cli.Push(ctx, "g-v", xs, ys); err != nil {
		t.Fatal(err)
	}
	var second uint64
	waitFor(t, "post-restart refit's views installed on n2 under one sequence", func() bool {
		var ok bool
		second, ok = bothViewsAt(2)
		return ok
	})
	if second <= first {
		t.Fatalf("post-restart sequence %d, want above %d", second, first)
	}
	agree("post-restart refit")
}
