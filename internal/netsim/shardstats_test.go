package netsim_test

import (
	"testing"

	"mixnet/internal/collective"
	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/packetsim"
	"mixnet/internal/parallel"
	"mixnet/internal/topo"
)

// TestCollectivePhasesDecompose pins the tentpole's premise on the real
// quick-scale Mixtral MixNet configuration: the phases the collective
// compiler emits for the topology-aware all-to-all decompose into multiple
// link-disjoint components (per-server staging, per-circuit transfers), so
// the sharded packet backend has parallelism to exploit. It logs the
// decomposition and the event-count speedup bound that PERF.md quotes.
func TestCollectivePhasesDecompose(t *testing.T) {
	m := moe.Mixtral8x7B
	plan := moe.SimPlans()[m.Name]
	plan.DP = 1
	spec := topo.DefaultSpec(plan.GPUs()/8, 400*topo.Gbps)
	spec.RegionServers = parallel.RegionServersPerEPGroup(plan, spec.GPUsPerServer)
	c := topo.BuildMixNet(spec)
	place, err := parallel.NewPlacement(c, plan)
	if err != nil {
		t.Fatal(err)
	}
	ctx := collective.NewCtx(c)
	gpus := make([]topo.NodeID, plan.EP)
	for ep := 0; ep < plan.EP; ep++ {
		gpus[ep] = place.GPUNode(parallel.Rank{DP: 0, PP: 0, EP: ep, TP: 0})
	}
	it := moe.NewGateSim(m, plan, moe.DefaultGateConfig(1)).Next()
	region := c.RegionOf(place.ServerOfEPRank(0, 0, 0))
	phases, err := collective.TopologyAwareAllToAll(ctx, region, gpus, it.Layers[0].RankMatrix)
	if err != nil {
		t.Fatal(err)
	}

	p := netsim.NewPartitioner()
	sim := packetsim.NewSim()
	cfg := packetsim.Config{MTU: netsim.PacketMTU}
	decomposed := 0
	var totalEvents, maxShardEvents uint64
	for pi, fs := range phases {
		if len(fs) == 0 {
			continue
		}
		shards := p.Partition(len(c.G.Links), fs)
		covered := 0
		var phaseEvents uint64
		for _, s := range shards {
			covered += len(s)
			// Event count per shard: the work the parallel pool schedules.
			pf := make([]*packetsim.Flow, len(s))
			for i, f := range s {
				pf[i] = &packetsim.Flow{ID: f.ID, Path: f.Path, Bytes: int64(f.Bytes)}
			}
			res, err := sim.Simulate(c.G, pf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			totalEvents += res.Events
			phaseEvents += res.Events
			if res.Events > maxShardEvents {
				maxShardEvents = res.Events
			}
		}
		t.Logf("phase %d: %3d flows -> %2d shards, %d events", pi, len(fs), len(shards), phaseEvents)
		if len(shards) > 1 {
			decomposed++
		}
		// Invariant: partitioning preserves every flow exactly once.
		if covered != len(fs) {
			t.Fatalf("phase %d: partition covers %d of %d flows", pi, covered, len(fs))
		}
	}
	if decomposed == 0 {
		t.Error("no topology-aware A2A phase decomposed into >1 shard: sharding has nothing to parallelise")
	}
	// All (phase, shard) jobs of one Makespan call share the worker pool, so
	// the parallel speedup is bounded by the largest single job. Quick-scale
	// Mixtral measures ~2.5x; larger regions decompose further.
	bound := float64(totalEvents) / float64(maxShardEvents)
	t.Logf("event-count speedup bound: %.2fx (%d events total, largest shard %d)",
		bound, totalEvents, maxShardEvents)
	if bound < 2 {
		t.Errorf("speedup bound %.2fx < 2x: decomposition too coarse for the sharded backend to pay off", bound)
	}
}
