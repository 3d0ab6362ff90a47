// Multigroup: one miner process serving several contract groups. Two
// independent consortia — hospitals pooling Diabetes records and vintners
// pooling Wine assays — each run their own SAP session, ending with their
// own target space and unified training set. A single mining service hosts
// both as model shards (sap.ServeGroups): wire frames carry a group ID,
// the router maps each query to its group's model, and member lists stop
// one consortium's clients from probing the other's model. This is the
// many-contract deployment: the service provider sells mining to any number
// of disjoint contracts from one process.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	sap "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// runGroup executes one consortium's SAP session over its own parties.
func runGroup(ctx context.Context, groupID, dataset string, seed int64) (*sap.Session, *sap.Dataset, error) {
	pool, err := sap.GenerateDataset(dataset, seed)
	if err != nil {
		return nil, nil, err
	}
	train, holdout, err := sap.TrainTestSplit(pool, 0.2, seed+1)
	if err != nil {
		return nil, nil, err
	}
	parties, err := sap.Split(train, 3, sap.PartitionUniform, seed+2)
	if err != nil {
		return nil, nil, err
	}
	sess, err := sap.Run(ctx,
		sap.WithParties(parties...),
		sap.WithSeed(seed+3),
		sap.WithOptimizer(4, 4),
		sap.WithGroupID(groupID),
	)
	if err != nil {
		return nil, nil, err
	}
	return sess, holdout, nil
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	// Phase 1: two disjoint consortia unify independently. Distinct seeds
	// mean distinct target spaces — nothing is shared between the groups.
	hospitals, diabHoldout, err := runGroup(ctx, "hospitals", "Diabetes", 11)
	if err != nil {
		return err
	}
	vintners, wineHoldout, err := runGroup(ctx, "vintners", "Wine", 22)
	if err != nil {
		return err
	}
	fmt.Printf("two contracts unified: hospitals (%d records), vintners (%d records)\n",
		hospitals.Unified().Len(), vintners.Unified().Len())

	// Phase 2: ONE miner process serves both groups. Each group gets its
	// own model shard; member lists pin each group to its own clients.
	net := sap.NewMemNetwork()
	svcConn, err := net.Endpoint("mining-service")
	if err != nil {
		return err
	}
	defer svcConn.Close()
	serveCtx, stopServe := context.WithCancel(ctx)
	defer stopServe()
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- sap.ServeGroups(serveCtx, svcConn,
			sap.Group{Session: hospitals, Model: sap.NewKNN(5), Members: []string{"clinic"}},
			sap.Group{Session: vintners, Model: sap.NewKNN(5), Members: []string{"cellar"}},
		)
	}()

	// Phase 3: each consortium's client queries its own group. Clients
	// transform clear queries with their own session's G_t and stamp their
	// group ID on every frame.
	clinicConn, err := net.Endpoint("clinic")
	if err != nil {
		return err
	}
	defer clinicConn.Close()
	clinic, err := hospitals.NewClient(clinicConn, sap.ClientConfig{Miner: "mining-service"})
	if err != nil {
		return err
	}
	defer clinic.Close()

	cellarConn, err := net.Endpoint("cellar")
	if err != nil {
		return err
	}
	defer cellarConn.Close()
	cellar, err := vintners.NewClient(cellarConn, sap.ClientConfig{Miner: "mining-service"})
	if err != nil {
		return err
	}
	defer cellar.Close()

	for _, q := range []struct {
		name    string
		client  *sap.Client
		holdout *sap.Dataset
	}{
		{"hospitals", clinic, diabHoldout},
		{"vintners", cellar, wineHoldout},
	} {
		labels, err := q.client.ClassifyBatch(ctx, q.holdout.X)
		if err != nil {
			return err
		}
		agree := 0
		for i, label := range labels {
			if label == q.holdout.Y[i] {
				agree++
			}
		}
		fmt.Printf("group %q: %d/%d holdout labels agree\n", q.name, agree, len(labels))
	}

	// Phase 4: isolation. The clinic tries the vintners' group: it is not
	// on that group's member list, so the router refuses before a single
	// record reaches the model. (The first client is closed first — a
	// connection's receive side belongs to one client at a time.)
	clinic.Close()
	trespass, err := hospitals.NewClient(clinicConn, sap.ClientConfig{Miner: "mining-service", Group: "vintners"})
	if err != nil {
		return err
	}
	defer trespass.Close()
	if _, err := trespass.Classify(ctx, diabHoldout.X[0]); errors.Is(err, sap.ErrNotMember) {
		fmt.Println("cross-group query refused: clinic is not a vintners member")
	} else {
		return fmt.Errorf("cross-group query was not refused (err = %v)", err)
	}

	stopServe()
	return <-serveDone
}
