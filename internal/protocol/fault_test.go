package protocol

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster/faultnet"
	"repro/internal/dataset"
	"repro/internal/perturb"
	"repro/internal/transport"
)

// runFaultySession wires a 3-party session over TCP, every endpoint behind
// a faultnet proxy that its peers dial instead of the endpoint itself, and
// returns the miner error within timeout. lossy makes every proxy drop the
// frames the first provider (p1) sends; the returned count is how many
// frames the proxies dropped.
func runFaultySession(t *testing.T, lossy bool, timeout time.Duration) (int64, error) {
	t.Helper()
	rng := rand.New(rand.NewSource(51))
	d, err := dataset.GenerateByName("Iris", rng)
	if err != nil {
		t.Fatal(err)
	}
	norm, _, err := dataset.Normalize(d)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := dataset.Partition(norm, rng, 3, dataset.PartitionUniform)
	if err != nil {
		t.Fatal(err)
	}

	names := []string{"p1", "p2", "coord", "miner"}
	conns := make(map[string]*transport.TCPNode, len(names))
	proxies := make(map[string]*faultnet.Proxy, len(names))
	for _, name := range names {
		conn, err := transport.NewTCPNode(name, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		proxy, err := faultnet.Listen(conn.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { proxy.Close() })
		if lossy {
			proxy.SetHook(func(_ faultnet.Dir, frame []byte) faultnet.Verdict {
				if from, _, err := transport.PeekSender(frame); err == nil && from == "p1" {
					return faultnet.Drop
				}
				return faultnet.Pass
			})
		}
		conns[name], proxies[name] = conn, proxy
	}
	for _, name := range names {
		for _, peer := range names {
			if peer != name {
				conns[name].AddPeer(peer, proxies[peer].Addr())
			}
		}
	}

	perts := make([]*perturb.Perturbation, 3)
	for i := range perts {
		p, err := perturb.NewRandom(rng, norm.Dim(), 0.05)
		if err != nil {
			t.Fatal(err)
		}
		perts[i] = p
	}
	// Each role runs on its own goroutine and therefore needs its own rng.
	prov1, err := NewProvider(conns["p1"], ProviderConfig{
		Coordinator: "coord", Miner: "miner", Data: parts[0], Perturbation: perts[0],
		Rng: rand.New(rand.NewSource(61)),
	})
	if err != nil {
		t.Fatal(err)
	}
	prov2, err := NewProvider(conns["p2"], ProviderConfig{
		Coordinator: "coord", Miner: "miner", Data: parts[1], Perturbation: perts[1],
		Rng: rand.New(rand.NewSource(62)),
	})
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(conns["coord"], CoordinatorConfig{
		Providers: []string{"p1", "p2"}, Miner: "miner",
		Data: parts[2], Perturbation: perts[2],
		Rng: rand.New(rand.NewSource(63)),
	})
	if err != nil {
		t.Fatal(err)
	}
	miner, err := NewMiner(conns["miner"], MinerConfig{Coordinator: "coord", Parties: 3})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	go func() { _ = prov1.Run(ctx) }()
	go func() { _ = prov2.Run(ctx) }()
	go func() { _ = coord.Run(ctx) }()
	_, err = miner.Run(ctx)
	var dropped int64
	for _, proxy := range proxies {
		dropped += proxy.Dropped()
	}
	return dropped, err
}

func TestSessionSurvivesNoFaults(t *testing.T) {
	dropped, err := runFaultySession(t, false, 20*time.Second)
	if err != nil {
		t.Fatalf("fault-free session failed: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("fault-free proxies dropped %d frames", dropped)
	}
}

func TestSessionTimesOutCleanlyOnMessageLoss(t *testing.T) {
	// Losing everything the provider sends (its dataset and adaptor) must
	// starve the pipeline and surface as a clean ErrMissingPiece — never a
	// hang (the ctx deadline bounds the test) or a partial unification.
	dropped, err := runFaultySession(t, true, 500*time.Millisecond)
	if err == nil {
		t.Fatal("lossy session produced a unified dataset")
	}
	if !errors.Is(err, ErrMissingPiece) {
		t.Fatalf("err = %v, want ErrMissingPiece", err)
	}
	if dropped == 0 {
		t.Fatal("lossy proxies dropped nothing")
	}
}
