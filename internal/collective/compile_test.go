package collective

import (
	"testing"

	"mixnet/internal/metrics"
	"mixnet/internal/topo"
)

// compileWorkload compiles an interleaved mix of direct all-to-alls and
// hierarchical all-reduces — rounds times each, same shapes every round,
// the access pattern of a training loop — and returns every phase list in
// compile order.
func compileWorkload(t *testing.T, ctx *Ctx, rounds int) []Phases {
	t.Helper()
	c := ctx.Cluster
	leaders := []topo.NodeID{c.GPU(0, 0), c.GPU(1, 0), c.GPU(2, 0), c.GPU(3, 0)}
	demand := metrics.NewMatrix(4, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i != j {
				demand.Set(i, j, float64(1+i+j)*1e8)
			}
		}
	}
	var out []Phases
	for k := 0; k < rounds; k++ {
		p, err := DirectAllToAll(ctx, leaders, demand)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
		p, err = HierarchicalAllReduce(ctx, []int{0, 1, 2, 3}, 0, 5e8)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// requirePhasesEqual compares two compiled workloads flow by flow.
func requirePhasesEqual(t *testing.T, a, b []Phases) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("compile count %d vs %d", len(a), len(b))
	}
	for k := range a {
		if len(a[k]) != len(b[k]) {
			t.Fatalf("compile %d: %d vs %d phases", k, len(a[k]), len(b[k]))
		}
		for ph := range a[k] {
			if len(a[k][ph]) != len(b[k][ph]) {
				t.Fatalf("compile %d phase %d: %d vs %d flows", k, ph, len(a[k][ph]), len(b[k][ph]))
			}
			for i, fa := range a[k][ph] {
				fb := b[k][ph][i]
				if fa.ID != fb.ID || fa.Bytes != fb.Bytes || fa.Start != fb.Start ||
					!routeEqual(fa.Path, fb.Path) {
					t.Fatalf("compile %d phase %d flow %d: %+v vs %+v", k, ph, i, fa, fb)
				}
			}
		}
	}
}

func routeEqual(a, b topo.Route) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestFoldedCompileMatchesEager: compiling on a symmetry-folded fat-tree
// must emit flow-for-flow exactly what the eager build emits — same IDs,
// bytes, paths — across enough rounds to wrap every pair's ECMP salt ring.
func TestFoldedCompileMatchesEager(t *testing.T) {
	t.Parallel()
	const rounds = ecmpSpread + 8
	spec := topo.DefaultSpec(8, 100*topo.Gbps)
	spec.SwitchRadix = 8 // 3-tier, so the fold is real
	folded := NewCtx(topo.BuildFatTree(spec))
	if !folded.Cluster.Folded() {
		t.Fatal("radix-8 fat-tree built unfolded")
	}
	spec.Eager = true
	eager := NewCtx(topo.BuildFatTree(spec))
	requirePhasesEqual(t, compileWorkload(t, folded, rounds), compileWorkload(t, eager, rounds))
}

// TestCompileRoutesAroundFailure: mutating the graph (a failure) must
// retire every cached route through it — flows compiled after the mutation
// route around the downed link.
func TestCompileRoutesAroundFailure(t *testing.T) {
	t.Parallel()
	ctx := fatTreeCtx(t, 8)
	before := compileWorkload(t, ctx, 1)

	// Down one inter-switch link that the compiled flows traverse.
	var victim topo.LinkID
	found := false
	for _, p := range before {
		for _, fs := range p {
			for _, f := range fs {
				for _, lid := range f.Path {
					l := ctx.Cluster.G.Link(lid)
					if ctx.Cluster.G.Node(l.From).Kind != topo.KindGPU &&
						ctx.Cluster.G.Node(l.To).Kind != topo.KindGPU {
						victim, found = lid, true
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no switch-level link in compiled flows")
	}
	ctx.Cluster.G.SetLinkUp(victim, false)

	after := compileWorkload(t, ctx, 1)
	for _, p := range after {
		for _, fs := range p {
			for _, f := range fs {
				for _, lid := range f.Path {
					if lid == victim {
						t.Fatal("post-failure compile routed a flow over the downed link")
					}
				}
			}
		}
	}
}

// TestResetRunStateRewindsCompile: after ResetRunState a used Ctx must
// compile exactly what a fresh Ctx on the same cluster compiles — the same
// flow IDs, paths and bytes. MixNet's topology-aware all-to-all checks the
// flow IDs; a direct all-to-all on a fat-tree, where the ECMP salt picks
// among equal-cost paths, checks the salt rotation.
func TestResetRunStateRewindsCompile(t *testing.T) {
	c, gpus, d := a2aWorkload(2)
	used := NewCtx(c)
	for k := 0; k < 5; k++ {
		if _, err := TopologyAwareAllToAll(used, 0, gpus, d); err != nil {
			t.Fatal(err)
		}
	}
	used.ResetRunState()
	got, err := TopologyAwareAllToAll(used, 0, gpus, d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := TopologyAwareAllToAll(NewCtx(c), 0, gpus, d)
	if err != nil {
		t.Fatal(err)
	}
	requirePhasesEqual(t, []Phases{got}, []Phases{want})

	ft := fatTreeCtx(t, 8)
	for k := 0; k < 5; k++ {
		compileWorkload(t, ft, 1)
	}
	ft.ResetRunState()
	requirePhasesEqual(t, compileWorkload(t, ft, 3), compileWorkload(t, NewCtx(ft.Cluster), 3))
}
