package core

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/blockcrypto"
	"repro/internal/chain"
	"repro/internal/consensus/pbft"
	"repro/internal/sim"
	"repro/internal/tee"
	"repro/internal/txn"
)

// TestProbeBatch11 is a resharding regression on 11-replica shards with a
// tight checkpoint window: a swap-batch reshard at t=60s takes replicas
// down and back while a 100 tx/s pump keeps writing. Every up replica of a
// shard must agree on the state digest shortly after the reshard and at
// the end, and throughput must recover to the offered load.
func TestProbeBatch11(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping shard-size-11 batch probe simulation in -short mode")
	}
	s := NewSystem(Config{
		Seed: 2, Shards: 2, ShardSize: 11, RefSize: 0,
		Variant: pbft.VariantAHLPlus, Clients: 1,
		Costs: tee.FreeCosts(),
		Tune:  func(o *pbft.Options) { o.CheckpointEvery = 8; o.Window = 8 },
	})
	var id uint64
	var pump func()
	pump = func() {
		for i := 0; i < 10; i++ {
			id++
			key := "k" + strconv.FormatUint(id, 10)
			shard := s.ShardOfKey(key)
			tx := chain.Tx{ID: id, Chaincode: "kvstore", Fn: "put", Args: []string{key, "v"}}
			target := s.Topology.ShardNodes[shard][id%uint64(len(s.Topology.ShardNodes[shard]))]
			txn.SubmitPlain(s.Net.Endpoint(s.Client(0).ID()), target, tx)
		}
		if s.Engine.Now() < sim.Time(180*time.Second) {
			s.Engine.Schedule(100*time.Millisecond, pump)
		}
	}
	s.Engine.Schedule(0, pump)
	sampler := s.SampleThroughput(10*time.Second, 200*time.Second)
	s.ReshardAt(60*time.Second, 777, DefaultReshardConfig(ReshardSwapBatch))

	// checkDigests asserts every up replica of each shard holds the same
	// state digest.
	checkDigests := func(when string) {
		for si, bc := range s.ShardCommittees {
			up := 0
			var want blockcrypto.Digest
			for ri, r := range bc.Replicas {
				if s.Net.Endpoint(s.Topology.ShardNodes[si][ri]).Down() {
					continue
				}
				got := r.Store().Digest()
				if up++; up == 1 {
					want = got
				} else if got != want {
					t.Errorf("%s: shard %d replica %d digest %v, want %v", when, si, ri, got, want)
				}
			}
			if up == 0 {
				t.Errorf("%s: shard %d has no up replica", when, si)
			}
		}
	}
	s.Engine.At(sim.Time(85*time.Second), func() { checkDigests("t=85s") })
	s.Run(200 * time.Second)
	checkDigests("end")

	// Sample i covers ((i)·10s, (i+1)·10s]; the pump offers 100 tx/s.
	for i := 10; i < 17; i++ {
		if tps := sampler.Samples[i]; tps < 95 {
			t.Errorf("throughput %.1f tx/s in (%ds, %ds], want >= 95", tps, i*10, (i+1)*10)
		}
	}
}
