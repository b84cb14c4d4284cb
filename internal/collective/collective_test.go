package collective

import (
	"math"
	"testing"

	"mixnet/internal/metrics"
	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

func fatTreeCtx(t *testing.T, servers int) *Ctx {
	t.Helper()
	return NewCtx(topo.BuildFatTree(topo.DefaultSpec(servers, 100*topo.Gbps)))
}

func mixnetCtx(t *testing.T, servers int) *Ctx {
	t.Helper()
	return NewCtx(topo.BuildMixNet(topo.DefaultSpec(servers, 100*topo.Gbps)))
}

func phaseBytes(p Phases) float64 { return netsim.PhaseBytes(p) }

func TestRingAllReduceVolume(t *testing.T) {
	ctx := fatTreeCtx(t, 4)
	gpus := []topo.NodeID{ctx.Cluster.GPU(0, 0), ctx.Cluster.GPU(1, 0), ctx.Cluster.GPU(2, 0), ctx.Cluster.GPU(3, 0)}
	p, err := RingAllReduce(ctx, gpus, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || len(p[0]) != 4 {
		t.Fatalf("phases/flows = %d/%d, want 1/4", len(p), len(p[0]))
	}
	want := 2 * 1e9 * 3 / 4.0
	for _, f := range p[0] {
		if math.Abs(f.Bytes-want) > 1 {
			t.Errorf("ring flow bytes %v, want %v", f.Bytes, want)
		}
	}
}

func TestRingAllReduceDegenerate(t *testing.T) {
	ctx := fatTreeCtx(t, 4)
	if p, err := RingAllReduce(ctx, []topo.NodeID{ctx.Cluster.GPU(0, 0)}, 1e9); err != nil || p != nil {
		t.Errorf("single-node ring should be empty: %v %v", p, err)
	}
	if p, _ := RingAllReduce(ctx, nil, 1e9); p != nil {
		t.Error("empty ring should be nil")
	}
}

func TestHierarchicalAllReducePhases(t *testing.T) {
	ctx := fatTreeCtx(t, 4)
	p, err := HierarchicalAllReduce(ctx, []int{0, 1, 2, 3}, 0, 1e8)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 3 {
		t.Fatalf("phases = %d, want 3 (reduce, ring, broadcast)", len(p))
	}
	// Stage 1: 7 intra-host flows per server.
	if len(p[0]) != 4*7 {
		t.Errorf("reduce flows = %d, want 28", len(p[0]))
	}
	// Stage 2: ring among 4 gateways.
	if len(p[1]) != 4 {
		t.Errorf("ring flows = %d, want 4", len(p[1]))
	}
	if len(p[2]) != 4*7 {
		t.Errorf("broadcast flows = %d, want 28", len(p[2]))
	}
	if _, err := netsim.NewFluid().Makespan(ctx.Cluster.G, p); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalSingleServer(t *testing.T) {
	ctx := fatTreeCtx(t, 4)
	p, err := HierarchicalAllReduce(ctx, []int{2}, 0, 1e8)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 2 {
		t.Errorf("single-server phases = %d, want 2 (no inter-host ring)", len(p))
	}
}

func TestDirectAllToAll(t *testing.T) {
	ctx := fatTreeCtx(t, 2)
	gpus := []topo.NodeID{ctx.Cluster.GPU(0, 0), ctx.Cluster.GPU(0, 1), ctx.Cluster.GPU(1, 0), ctx.Cluster.GPU(1, 1)}
	d := metrics.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				d.Set(i, j, 1e6)
			}
		}
	}
	p, err := DirectAllToAll(ctx, gpus, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) != 1 || len(p[0]) != 12 {
		t.Fatalf("flows = %d, want 12", len(p[0]))
	}
	if got := phaseBytes(p); got != 12e6 {
		t.Errorf("total bytes %v, want 12e6", got)
	}
	// Diagonal must be skipped even if set.
	d.Set(1, 1, 5)
	p2, _ := DirectAllToAll(ctx, gpus, d)
	if phaseBytes(p2) != 12e6 {
		t.Error("diagonal traffic leaked into flows")
	}
}

// epDemand builds a demand where every rank pair exchanges base bytes and
// the (hotA,hotB) pair exchanges extra.
func epDemand(n int, base, hot float64, hotA, hotB int) *metrics.Matrix {
	d := metrics.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := base
			if (i == hotA && j == hotB) || (i == hotB && j == hotA) {
				v += hot
			}
			d.Set(i, j, v)
		}
	}
	return d
}

func leaderGPUs(c *topo.Cluster, n int) []topo.NodeID {
	gpus := make([]topo.NodeID, n)
	for i := range gpus {
		gpus[i] = c.GPU(i, 0) // one EP rank per server, leader GPU 0
	}
	return gpus
}

func TestTopologyAwareAllToAllUsesCircuits(t *testing.T) {
	ctx := mixnetCtx(t, 8)
	gpus := leaderGPUs(ctx.Cluster, 8)
	d := epDemand(8, 1e6, 0, 0, 0)
	p, err := TopologyAwareAllToAll(ctx, 0, gpus, d)
	if err != nil {
		t.Fatal(err)
	}
	if len(p) == 0 {
		t.Fatal("no phases")
	}
	// With uniform circuits installed, some inter-host flows must traverse
	// circuit links.
	usedCircuit := false
	for _, fs := range p {
		for _, f := range fs {
			for _, lid := range f.Path {
				if ctx.Cluster.G.Link(lid).Circuit {
					usedCircuit = true
				}
			}
		}
	}
	if !usedCircuit {
		t.Error("topology-aware A2A never used an optical circuit")
	}
}

func TestTopologyAwareAllToAllConservesBytes(t *testing.T) {
	ctx := mixnetCtx(t, 8)
	gpus := leaderGPUs(ctx.Cluster, 8)
	d := epDemand(8, 1e6, 5e6, 0, 1)
	p, err := TopologyAwareAllToAll(ctx, 0, gpus, d)
	if err != nil {
		t.Fatal(err)
	}
	// Bytes crossing a server boundary (via circuit or EPS fallback) must
	// equal the total off-diagonal demand.
	g := ctx.Cluster.G
	var interBytes, circuitBytes float64
	for _, fs := range p {
		for _, f := range fs {
			crossed, viaCircuit := false, false
			for _, lid := range f.Path {
				l := g.Link(lid)
				if g.Node(l.From).Server != g.Node(l.To).Server {
					crossed = true
				}
				if l.Circuit {
					viaCircuit = true
				}
			}
			if crossed {
				interBytes += f.Bytes
			}
			if viaCircuit {
				circuitBytes += f.Bytes
			}
		}
	}
	want := d.Total() // all ranks on distinct servers, diagonal zero
	if math.Abs(interBytes-want)/want > 1e-9 {
		t.Errorf("inter-host bytes %v, want %v", interBytes, want)
	}
	if circuitBytes <= 0.5*want {
		t.Errorf("only %v of %v bytes used circuits; expected the majority", circuitBytes, want)
	}
}

func TestTopologyAwareIntraServerStaysLocal(t *testing.T) {
	// Two EP ranks on the same server exchange bytes: flows must stay on
	// NVSwitch (no NIC/ToR links).
	ctx := mixnetCtx(t, 8)
	gpus := []topo.NodeID{ctx.Cluster.GPU(0, 0), ctx.Cluster.GPU(0, 4)}
	d := metrics.NewMatrix(2, 2)
	d.Set(0, 1, 1e6)
	d.Set(1, 0, 1e6)
	p, err := TopologyAwareAllToAll(ctx, 0, gpus, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, fs := range p {
		for _, f := range fs {
			for _, lid := range f.Path {
				k := ctx.Cluster.G.Node(ctx.Cluster.G.Link(lid).To).Kind
				if k == topo.KindTor || k == topo.KindNIC {
					t.Fatal("intra-server exchange left the NVSwitch")
				}
			}
		}
	}
}

func TestTopologyAwareEPSFallback(t *testing.T) {
	// Remove all circuits: the all-to-all must still complete over EPS.
	ctx := mixnetCtx(t, 8)
	ctx.Cluster.SetRegionCircuits(0, nil)
	gpus := leaderGPUs(ctx.Cluster, 8)
	d := epDemand(8, 1e6, 0, 0, 0)
	p, err := TopologyAwareAllToAll(ctx, 0, gpus, d)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := netsim.NewFluid().Makespan(ctx.Cluster.G, p)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 {
		t.Error("EPS fallback produced zero makespan")
	}
}

func TestMixNetBeatsEPSOnSkewedTraffic(t *testing.T) {
	// The core claim at small scale: with a hot pair, circuits tailored to
	// the demand (3 parallel circuits on the hot pair) beat the 2-NIC EPS
	// path.
	ctx := mixnetCtx(t, 8)
	c := ctx.Cluster
	s0, s1 := c.Servers[0].OCSNICs(), c.Servers[1].OCSNICs()
	c.SetRegionCircuits(0, []topo.CircuitPair{
		{A: s0[0].Node, B: s1[0].Node},
		{A: s0[1].Node, B: s1[1].Node},
		{A: s0[2].Node, B: s1[2].Node},
	})
	gpus := leaderGPUs(c, 8)
	d := metrics.NewMatrix(8, 8)
	d.Set(0, 1, 3e9)
	d.Set(1, 0, 3e9)
	pMix, err := TopologyAwareAllToAll(ctx, 0, gpus, d)
	if err != nil {
		t.Fatal(err)
	}
	tMix, err := netsim.NewFluid().Makespan(c.G, pMix)
	if err != nil {
		t.Fatal(err)
	}

	// Same demand on the EPS-only path of the same cluster.
	c.SetRegionCircuits(0, nil)
	ctxEPS := NewCtx(c)
	pEPS, err := DirectAllToAll(ctxEPS, gpus, d)
	if err != nil {
		t.Fatal(err)
	}
	tEPS, err := netsim.NewFluid().Makespan(c.G, pEPS)
	if err != nil {
		t.Fatal(err)
	}
	if tMix >= tEPS {
		t.Errorf("MixNet %.4fs !< EPS %.4fs on skewed demand", tMix, tEPS)
	}
}

func TestMakespanEmptyPhases(t *testing.T) {
	ctx := fatTreeCtx(t, 2)
	ms, err := netsim.NewFluid().Makespan(ctx.Cluster.G, Phases{{}, nil})
	if err != nil || ms != 0 {
		t.Errorf("empty phases: %v %v", ms, err)
	}
}
