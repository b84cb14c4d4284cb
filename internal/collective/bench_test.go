package collective

import (
	"math/rand"
	"testing"

	"mixnet/internal/metrics"
	"mixnet/internal/topo"
)

// a2aWorkload is a MixNet region of 8 servers with two EP ranks per server
// (GPUs 0 and 4, on different NUMA hubs) and a seeded random demand.
func a2aWorkload(seed int64) (*topo.Cluster, []topo.NodeID, *metrics.Matrix) {
	c := topo.BuildMixNet(topo.DefaultSpec(8, 100*topo.Gbps))
	var gpus []topo.NodeID
	for s := 0; s < 8; s++ {
		gpus = append(gpus, c.GPU(s, 0), c.GPU(s, 4))
	}
	rng := rand.New(rand.NewSource(seed))
	d := metrics.NewMatrix(len(gpus), len(gpus))
	for i := range gpus {
		for j := range gpus {
			if i != j && rng.Intn(4) != 0 {
				d.Set(i, j, float64(1+rng.Intn(100))*1e6)
			}
		}
	}
	return c, gpus, d
}

// BenchmarkTopologyAwareAllToAll compiles MixNet's five-step all-to-all
// over the region's uniform circuits on one warm Ctx, the per-layer compile
// of a MixNet training step.
func BenchmarkTopologyAwareAllToAll(b *testing.B) {
	c, gpus, d := a2aWorkload(1)
	ctx := NewCtx(c)
	if _, err := TopologyAwareAllToAll(ctx, 0, gpus, d); err != nil { // warm routes and scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TopologyAwareAllToAll(ctx, 0, gpus, d); err != nil {
			b.Fatal(err)
		}
	}
}
