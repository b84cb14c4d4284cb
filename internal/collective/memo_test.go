package collective

import (
	"testing"

	"mixnet/internal/metrics"
	"mixnet/internal/topo"
)

// unmemoized drops ctx's compile memo, making it the reference compiler
// the memoized one must match flow for flow.
func unmemoized(ctx *Ctx) *Ctx {
	ctx.memo = nil
	return ctx
}

// memoWorkload compiles an interleaved mix of direct all-to-alls and
// hierarchical all-reduces — rounds times each, same shapes every round,
// the access pattern of a training loop — and returns every phase list in
// compile order.
func memoWorkload(t *testing.T, ctx *Ctx, rounds int) []Phases {
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
					t.Fatalf("compile %d phase %d flow %d: memo %+v nomemo %+v", k, ph, i, fa, fb)
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

// TestMemoizedCompilationDeterministic: the memoized compiler must emit
// flow-for-flow exactly what the unmemoized compiler emits — same IDs,
// bytes, paths — across enough rounds to wrap the per-shape salt ring and
// serve real hits, on both an eager and a folded cluster.
func TestMemoizedCompilationDeterministic(t *testing.T) {
	t.Parallel()
	// 24 rounds x 2 collectives: the ring (ecmpSpread slots) wraps at least
	// once per shape.
	const rounds = ecmpSpread + 8
	for _, fold := range []bool{false, true} {
		spec := topo.DefaultSpec(8, 100*topo.Gbps)
		spec.SwitchRadix = 8 // 3-tier, so fold is real
		spec.Eager = !fold
		memoCtx := NewCtx(topo.BuildFatTree(spec))
		ref := memoWorkload(t, memoCtx, rounds)

		spec.Eager = true
		plainCtx := unmemoized(NewCtx(topo.BuildFatTree(spec)))
		requirePhasesEqual(t, ref, memoWorkload(t, plainCtx, rounds))

		ms := memoCtx.MemoStats()
		if ms.Hits == 0 {
			t.Errorf("fold=%v: no memo hits after %d rounds: %+v", fold, rounds, ms)
		}
		if ms.Misses == 0 || ms.Misses > uint64(2*ecmpSpread) {
			t.Errorf("fold=%v: implausible miss count %+v", fold, ms)
		}
		if ps := plainCtx.MemoStats(); ps.Hits != 0 || ps.Misses != 0 {
			t.Errorf("fold=%v: memo disabled but counted %+v", fold, ps)
		}
	}
}

// TestMemoLRUBound: with a tiny capacity the memo must stay within its
// bound under an alternating two-shape workload — evicting, not growing —
// while the compiled output stays flow-for-flow identical to unmemoized.
func TestMemoLRUBound(t *testing.T) {
	t.Parallel()
	ctx := fatTreeCtx(t, 8)
	ctx.memo.SetCap(1) // one shape's variants at a time; the other evicts it
	got := memoWorkload(t, ctx, ecmpSpread+8)

	plain := unmemoized(fatTreeCtx(t, 8))
	requirePhasesEqual(t, got, memoWorkload(t, plain, ecmpSpread+8))

	if n := ctx.memo.Len(); n > 1 {
		t.Errorf("memo holds %d shapes, cap is 1", n)
	}
	// The alternating workload thrashes a cap-1 cache: every compile after
	// the first per shape is a fresh miss, never a hit.
	if ms := ctx.MemoStats(); ms.Hits != 0 {
		t.Errorf("cap-1 alternating workload served %d hits, want 0", ms.Hits)
	}
	// Raising the cap back stops the thrash: once the variant-slot cursor
	// wraps the ring, stored slots get revisited and hit.
	ctx.memo.SetCap(DefaultMemoCap)
	before := ctx.MemoStats().Hits
	memoWorkload(t, ctx, ecmpSpread+1)
	if ctx.MemoStats().Hits == before {
		t.Error("no hits after raising the cap")
	}
}

// TestMemoInvalidatesOnTopologyChange: mutating the graph (a failure)
// must drop memoized plans — flows compiled after the mutation route
// around it instead of replaying stale paths.
func TestMemoInvalidatesOnTopologyChange(t *testing.T) {
	t.Parallel()
	ctx := fatTreeCtx(t, 8)
	before := memoWorkload(t, ctx, 1)
	hitsBefore := ctx.MemoStats().Hits

	// Down one inter-switch link that the compiled flows traverse.
	var victim topo.LinkID = topo.LinkID(0)
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

	after := memoWorkload(t, ctx, 1)
	for _, p := range after {
		for _, fs := range p {
			for _, f := range fs {
				for _, lid := range f.Path {
					if lid == victim {
						t.Fatal("post-failure compile replayed a flow over the downed link")
					}
				}
			}
		}
	}
	if h := ctx.MemoStats().Hits; h != hitsBefore {
		t.Errorf("memo hits advanced across a topology epoch: %d -> %d", hitsBefore, h)
	}
}
