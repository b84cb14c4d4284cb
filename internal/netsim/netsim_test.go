package netsim

import (
	"math"
	"testing"

	"mixnet/internal/topo"
)

// a2aPhases compiles a uniform all-to-all among GPU 0 of every server into
// one neutral phase, routing over the cluster's fabric.
func a2aPhases(t *testing.T, c *topo.Cluster, bytes float64) Phases {
	t.Helper()
	r := topo.NewBFSRouter(c.G)
	n := len(c.Servers)
	var fs []*Flow
	id := 0
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			rt, err := r.Route(c.GPU(i, 0), c.GPU(j, 0), uint64(id))
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, &Flow{ID: id, Path: rt, Bytes: bytes})
			id++
		}
	}
	return Phases{fs}
}

func TestBackendRegistry(t *testing.T) {
	for _, name := range append(Names(), "") {
		b, err := New(Config{Backend: name})
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = DefaultName
		}
		if b.Name() != want {
			t.Errorf("New(%q).Name() = %q", name, b.Name())
		}
	}
	if _, err := New(Config{Backend: "quantum"}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestBackendsCrossValidate is the backend cross-validation suite: on
// identical netsim.Phases over small fat-tree and MixNet topologies the
// fluid, packet and analytic backends must agree within tolerance.
func TestBackendsCrossValidate(t *testing.T) {
	clusters := map[string]*topo.Cluster{
		"fat-tree": topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps)),
		"mixnet":   topo.BuildMixNet(topo.DefaultSpec(4, 100*topo.Gbps)),
	}
	for tname, c := range clusters {
		phases := a2aPhases(t, c, 8<<20)
		times := map[string]float64{}
		for _, name := range Names() {
			b, err := New(Config{Backend: name})
			if err != nil {
				t.Fatal(err)
			}
			ms, err := b.Makespan(c.G, phases)
			if err != nil {
				t.Fatalf("%s/%s: %v", tname, name, err)
			}
			if ms <= 0 {
				t.Fatalf("%s/%s: non-positive makespan %v", tname, name, ms)
			}
			times[name] = ms
			for _, f := range phases[0] {
				if f.Finish <= 0 {
					t.Errorf("%s/%s: flow %d Finish not populated", tname, name, f.ID)
				}
			}
		}
		fm := times["fluid"]
		for _, other := range []string{"packet", "analytic"} {
			gap := math.Abs(times[other]-fm) / fm
			if gap > 0.25 {
				t.Errorf("%s: %s %.4fs vs fluid %.4fs (gap %.0f%% > 25%%)",
					tname, other, times[other], fm, gap*100)
			}
		}
		// Analytic is a lower bound: it must not exceed the fluid makespan
		// by more than float tolerance.
		if times["analytic"] > fm*(1+1e-9) {
			t.Errorf("%s: analytic %.6fs above fluid %.6fs", tname, times["analytic"], fm)
		}
	}
}

func TestBackendsMultiPhaseAndStarts(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(2, 100*topo.Gbps))
	r := topo.NewBFSRouter(c.G)
	rt, err := r.Route(c.GPU(0, 0), c.GPU(1, 0), 1)
	if err != nil {
		t.Fatal(err)
	}
	back, err := r.Route(c.GPU(1, 0), c.GPU(0, 0), 2)
	if err != nil {
		t.Fatal(err)
	}
	phases := Phases{
		{{ID: 1, Path: rt, Bytes: 1 << 20}},
		{{ID: 2, Path: back, Bytes: 1 << 20, Start: 1e-3}},
		{}, // empty phases contribute nothing
	}
	for _, name := range Names() {
		b, _ := New(Config{Backend: name})
		ms, err := b.Makespan(c.G, phases)
		if err != nil {
			t.Fatal(err)
		}
		// Phase 2's flow starts at 1 ms, so the sum must exceed it.
		if ms <= 1e-3 {
			t.Errorf("%s: multi-phase makespan %v <= start offset", name, ms)
		}
	}
}

func TestNewCC(t *testing.T) {
	// Adaptive controllers resolve only with the packet backend.
	for _, cc := range []string{"dcqcn", "swift"} {
		b, err := New(Config{Backend: "packet", CC: cc})
		if err != nil {
			t.Fatalf("packet/%s: %v", cc, err)
		}
		if b.Name() != "packet" {
			t.Errorf("packet/%s: backend %q", cc, b.Name())
		}
		for _, backend := range []string{"", "fluid", "analytic"} {
			if _, err := New(Config{Backend: backend, CC: cc}); err == nil {
				t.Errorf("%q/%s accepted: adaptive cc must require the packet backend", backend, cc)
			}
		}
	}
	// "fixed" and "" are harmless everywhere.
	for _, backend := range []string{"", "fluid", "packet", "analytic"} {
		for _, cc := range []string{"", "fixed"} {
			if _, err := New(Config{Backend: backend, CC: cc}); err != nil {
				t.Errorf("%q/%q: %v", backend, cc, err)
			}
		}
	}
	if _, err := New(Config{Backend: "packet", CC: "bbr"}); err == nil {
		t.Error("unknown controller accepted")
	}
}

// TestPacketCCBackendsCrossValidate runs the cross-validation suite's
// uniform all-to-all through the packet backend under each controller: the
// adaptive controllers must stay within the same 25% envelope of fluid.
func TestPacketCCBackendsCrossValidate(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	phases := a2aPhases(t, c, 8<<20)
	fluid, err := NewFluid().Makespan(c.G, phases)
	if err != nil {
		t.Fatal(err)
	}
	for _, cc := range []string{"fixed", "dcqcn", "swift"} {
		b, err := New(Config{Backend: "packet", CC: cc})
		if err != nil {
			t.Fatal(err)
		}
		ms, err := b.Makespan(c.G, phases)
		if err != nil {
			t.Fatalf("%s: %v", cc, err)
		}
		if gap := math.Abs(ms-fluid) / fluid; gap > 0.25 {
			t.Errorf("packet/%s %.4fs vs fluid %.4fs (gap %.0f%% > 25%%)", cc, ms, fluid, gap*100)
		}
	}
}

// TestAnalyticZeroCapacityErrors is the regression test for the silent
// +Inf/NaN makespan: a zero-capacity link must error out like a down link.
func TestAnalyticZeroCapacityErrors(t *testing.T) {
	g := topo.NewGraph()
	a := g.AddNode(topo.KindNIC, "", -1, -1, -1)
	b := g.AddNode(topo.KindNIC, "", -1, -1, -1)
	g.AddDuplex(a, b, 0, 1e-6) // zero Bps
	r := topo.NewBFSRouter(g)
	rt, err := r.Route(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	phases := Phases{{{ID: 1, Path: rt, Bytes: 1 << 20}}}
	ms, err := NewAnalytic().Makespan(g, phases)
	if err == nil {
		t.Fatalf("zero-capacity link accepted: makespan %v", ms)
	}
	// The packet backend rejects it too.
	if _, err := NewPacket(Config{}).Makespan(g, phases); err == nil {
		t.Error("packet backend accepted zero-capacity link")
	}
}

// TestAnalyticEmptyPathFlow: an intra-node no-op flow (empty path) must not
// trip the zero-capacity sentinel handling.
func TestAnalyticEmptyPathFlow(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(2, 100*topo.Gbps))
	phases := Phases{{{ID: 1, Path: nil, Bytes: 1 << 20, Start: 1e-4}}}
	ms, err := NewAnalytic().Makespan(c.G, phases)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(ms) || math.IsInf(ms, 0) {
		t.Fatalf("empty-path flow produced %v", ms)
	}
	if ms != 1e-4 {
		t.Errorf("empty-path flow makespan %v, want start offset 1e-4", ms)
	}
}

func TestBackendsRejectDownLink(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(2, 100*topo.Gbps))
	phases := a2aPhases(t, c, 1<<20)
	down := phases[0][0].Path[0]
	c.G.SetLinkUp(down, false)
	for _, name := range Names() {
		b, _ := New(Config{Backend: name})
		if _, err := b.Makespan(c.G, phases); err == nil {
			t.Errorf("%s: down link accepted", name)
		}
	}
}

// steadyStateAllocs measures per-call heap allocations of a backend after
// one warm-up call over the same phases.
func steadyStateAllocs(t *testing.T, b Backend, c *topo.Cluster, phases Phases) float64 {
	t.Helper()
	if _, err := b.Makespan(c.G, phases); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(10, func() {
		if _, err := b.Makespan(c.G, phases); err != nil {
			t.Fatal(err)
		}
	})
}

func TestFluidSteadyStateZeroAllocs(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	phases := a2aPhases(t, c, 8<<20)
	if allocs := steadyStateAllocs(t, NewFluid(), c, phases); allocs != 0 {
		t.Errorf("fluid backend: %v allocs/op in steady state, want 0", allocs)
	}
}

func TestAnalyticSteadyStateZeroAllocs(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	phases := a2aPhases(t, c, 8<<20)
	if allocs := steadyStateAllocs(t, NewAnalytic(), c, phases); allocs != 0 {
		t.Errorf("analytic backend: %v allocs/op in steady state, want 0", allocs)
	}
}

func TestAnalyticSingleBottleneckExact(t *testing.T) {
	// Two flows sharing one NIC uplink: the bandwidth bound is tight, so
	// analytic and fluid agree to float precision.
	c := topo.BuildFatTree(topo.DefaultSpec(2, 100*topo.Gbps))
	r := topo.NewBFSRouter(c.G)
	var fs []*Flow
	for i, dst := range []int{1, 2} {
		rt, err := r.Route(c.GPU(0, 0), c.GPU(1, dst), uint64(77)) // same salt: same uplink
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, &Flow{ID: i, Path: rt, Bytes: 16 << 20})
	}
	phases := Phases{fs}
	fluid, err := NewFluid().Makespan(c.G, phases)
	if err != nil {
		t.Fatal(err)
	}
	ana, err := NewAnalytic().Makespan(c.G, phases)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fluid-ana)/fluid > 0.05 {
		t.Errorf("single bottleneck: analytic %.6fs vs fluid %.6fs", ana, fluid)
	}
}

func benchBackend(b *testing.B, name string) {
	c := topo.BuildFatTree(topo.DefaultSpec(8, 100*topo.Gbps))
	r := topo.NewBFSRouter(c.G)
	var fs []*Flow
	id := 0
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == j {
				continue
			}
			rt, err := r.Route(c.GPU(i, 0), c.GPU(j, 0), uint64(id))
			if err != nil {
				b.Fatal(err)
			}
			fs = append(fs, &Flow{ID: id, Path: rt, Bytes: 4 << 20})
			id++
		}
	}
	phases := Phases{fs}
	back, err := New(Config{Backend: name})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := back.Makespan(c.G, phases); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := back.Makespan(c.G, phases); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBackendFluid(b *testing.B)    { benchBackend(b, "fluid") }
func BenchmarkBackendPacket(b *testing.B)   { benchBackend(b, "packet") }
func BenchmarkBackendAnalytic(b *testing.B) { benchBackend(b, "analytic") }
