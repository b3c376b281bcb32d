package core

import (
	"testing"

	"repro/internal/consensus/pbft"
)

// specOptions returns the options replica index of spec's committee is
// built with, following pbft.BuildReplica: defaults, then spec.Tune.
func specOptions(spec pbft.CommitteeSpec, index int) pbft.Options {
	o := pbft.DefaultOptions(spec.Variant, spec.Variant.Committee(spec.Nodes), index)
	spec.Tune(&o)
	return o
}

// TestConsensusRegimes pins the two regimes the runtimes pick: live
// replicas are pipelined and adaptively batched with no
// modelled execution or verification cost; simulated replicas keep the
// pbft.Options zero values that the published figures were measured with.
func TestConsensusRegimes(t *testing.T) {
	addrs := func(first, n int) []NodeAddr {
		out := make([]NodeAddr, n)
		for i := range out {
			out[i] = NodeAddr{ID: first + i, Addr: "h:1"}
		}
		return out
	}
	cc := &ClusterConfig{
		Seed:      1,
		Shards:    [][]NodeAddr{addrs(0, 4), addrs(4, 4)},
		Reference: addrs(8, 4),
		Clients:   addrs(12, 1),
	}
	if err := cc.Validate(); err != nil {
		t.Fatal(err)
	}
	live := cc.liveConfig()
	topo := cc.Topology()
	for _, c := range []struct {
		name string
		spec pbft.CommitteeSpec
	}{
		{"live shard", ShardSpec(live, topo.ShardNodes[1], nil)},
		{"live reference", RefSpec(live, topo.RefNodes, nil)},
	} {
		name, o := c.name, specOptions(c.spec, 1)
		if o.PipelineDepth != 8 || !o.AdaptiveBatch {
			t.Errorf("%s: depth %d adaptive %v, want 8 true", name, o.PipelineDepth, o.AdaptiveBatch)
		}
		if o.ExecPerTx != 0 || o.RequestVerify != 0 {
			t.Errorf("%s: modelled costs exec %v verify %v, want 0 0", name, o.ExecPerTx, o.RequestVerify)
		}
	}

	s := NewSystem(Config{Seed: 1, Shards: 2, ShardSize: 4, RefSize: 4,
		Variant: pbft.VariantAHLPlus, Clients: 1})
	for _, c := range []struct {
		name string
		spec pbft.CommitteeSpec
	}{
		{"sim shard", ShardSpec(s.Config, s.ShardCommittees[1].Committee.Nodes, nil)},
		{"sim reference", RefSpec(s.Config, s.RefCommittee.Committee.Nodes, nil)},
	} {
		name, o := c.name, specOptions(c.spec, 1)
		if o.PipelineDepth != 0 || o.AdaptiveBatch {
			t.Errorf("%s: depth %d adaptive %v, want 0 false", name, o.PipelineDepth, o.AdaptiveBatch)
		}
	}
}
