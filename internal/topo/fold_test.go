package topo

import (
	"runtime"
	"slices"
	"testing"
)

// foldSpec is small enough for exhaustive comparison yet deep enough to
// fold: radix 8 gives 4 down ports per leaf, so 6 servers x 8 NICs = 48
// endpoints need 12 leaves in 3 pods — a genuine 3-tier Clos.
func foldSpec(servers int) Spec {
	s := DefaultSpec(servers, 100*Gbps)
	s.SwitchRadix = 8
	return s
}

// buildPair builds the same fat-tree eagerly and folded.
func buildPair(servers int, oversub float64) (eager, folded *Cluster) {
	se := foldSpec(servers)
	sf := foldSpec(servers)
	se.Eager = true
	if oversub > 1 {
		se.Oversub, sf.Oversub = oversub, oversub
		return BuildOverSubFatTree(se), BuildOverSubFatTree(sf)
	}
	return BuildFatTree(se), BuildFatTree(sf)
}

// sortedLinks returns a sorted copy of an adjacency list. Folded graphs
// materialize a node's links lazily, so their per-node adjacency order can
// interleave link classes differently from the eager build; the link *sets*
// must match (and ECMP ties only ever form within one class, which both
// builds emit in the same relative order — the route tests below verify
// that end to end).
func sortedLinks(ls []LinkID) []LinkID {
	out := slices.Clone(ls)
	slices.Sort(out)
	return out
}

// requireGraphsEqual compares two graphs element by element across the full
// logical ID space.
func requireGraphsEqual(t *testing.T, ge, gf *Graph) {
	t.Helper()
	if ge.NumNodes() != gf.NumNodes() || ge.NumLinks() != gf.NumLinks() {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d links",
			ge.NumNodes(), gf.NumNodes(), ge.NumLinks(), gf.NumLinks())
	}
	for id := NodeID(0); int(id) < ge.NumNodes(); id++ {
		ne, nf := *ge.Node(id), *gf.Node(id)
		if ne != nf {
			t.Fatalf("node %d: eager %+v folded %+v", id, ne, nf)
		}
		if !slices.Equal(sortedLinks(ge.Out(id)), sortedLinks(gf.Out(id))) {
			t.Fatalf("node %d out-links: eager %v folded %v", id, ge.Out(id), gf.Out(id))
		}
		if !slices.Equal(sortedLinks(ge.In(id)), sortedLinks(gf.In(id))) {
			t.Fatalf("node %d in-links: eager %v folded %v", id, ge.In(id), gf.In(id))
		}
	}
	for id := LinkID(0); int(id) < ge.NumLinks(); id++ {
		le, lf := *ge.Link(id), *gf.Link(id)
		if le != lf {
			t.Fatalf("link %d: eager %+v folded %+v", id, le, lf)
		}
	}
}

// TestFoldedFatTreeUnfoldsByteIdentical: materializing every server of a
// folded fat-tree must reproduce the eager build exactly — nodes, links,
// adjacency, BOM and server inventory — for both the non-blocking and the
// tapered (oversubscribed) variant.
func TestFoldedFatTreeUnfoldsByteIdentical(t *testing.T) {
	t.Parallel()
	for _, oversub := range []float64{1, 3} {
		eager, folded := buildPair(6, oversub)
		if !folded.Folded() {
			t.Fatalf("oversub=%v: folded build did not fold", oversub)
		}
		if folded.MaterializedServers() != 0 {
			t.Fatalf("oversub=%v: %d servers materialized at build", oversub, folded.MaterializedServers())
		}
		folded.MaterializeAll()
		requireGraphsEqual(t, eager.G, folded.G)
		if eager.BOM != folded.BOM {
			t.Errorf("oversub=%v: BOM eager %+v folded %+v", oversub, eager.BOM, folded.BOM)
		}
		if len(eager.Servers) != len(folded.Servers) {
			t.Fatalf("oversub=%v: server count %d/%d", oversub, len(eager.Servers), len(folded.Servers))
		}
		for s := range eager.Servers {
			se, sf := eager.Servers[s], folded.Servers[s]
			if se.Index != sf.Index || se.Region != sf.Region || se.NVSwitch != sf.NVSwitch ||
				!slices.Equal(se.GPUs, sf.GPUs) || !slices.Equal(se.Hubs, sf.Hubs) ||
				!slices.Equal(se.NICs, sf.NICs) {
				t.Errorf("oversub=%v server %d: eager %+v folded %+v", oversub, s, se, sf)
			}
		}
		if err := folded.G.Validate(); err != nil {
			t.Errorf("oversub=%v: folded graph invalid after unfold: %v", oversub, err)
		}
	}
}

// TestFoldedRoutesMatchEager: routes on a partially materialized folded
// graph must equal the eager graph's, for inter-server, intra-server and
// many-salt ECMP cases — and materialization must stay partial.
func TestFoldedRoutesMatchEager(t *testing.T) {
	t.Parallel()
	eager, folded := buildPair(12, 1)
	re, rf := NewBFSRouter(eager.G), NewBFSRouter(folded.G)
	pairs := [][4]int{
		{0, 0, 5, 3}, // cross-pod
		{0, 1, 1, 6}, // near servers
		{2, 7, 4, 0},
		{3, 0, 3, 7}, // intra-server (replayed off the representative)
		{5, 2, 5, 3},
	}
	for _, p := range pairs {
		src := eager.GPU(p[0], p[1])
		dst := eager.GPU(p[2], p[3])
		// Cluster accessors materialize the endpoint servers on the folded
		// build — the router's contract is that route endpoints have been
		// touched through the Cluster.
		if fsrc, fdst := folded.GPU(p[0], p[1]), folded.GPU(p[2], p[3]); fsrc != src || fdst != dst {
			t.Fatalf("GPU IDs diverge: %d/%d vs %d/%d", src, dst, fsrc, fdst)
		}
		for salt := uint64(0); salt < 8; salt++ {
			key := FlowKey(src, dst, salt)
			rte, err := re.Route(src, dst, key)
			if err != nil {
				t.Fatal(err)
			}
			rtf, err := rf.Route(src, dst, key)
			if err != nil {
				t.Fatalf("folded route %v->%v: %v", src, dst, err)
			}
			if !slices.Equal(rte, rtf) {
				t.Fatalf("route %v->%v salt %d: eager %v folded %v", src, dst, salt, rte, rtf)
			}
		}
	}
	if m := folded.MaterializedServers(); m == 0 || m == folded.NumServers() {
		t.Errorf("materialized %d of %d servers; want partial", m, folded.NumServers())
	}
	if ff := folded.FoldFactor(); ff <= 1 {
		t.Errorf("fold factor %v, want > 1", ff)
	}
}

// TestFoldedFailureAutoUnfolds: downing a link on a folded graph must keep
// routing consistent with the eager graph under the same failure — the
// injector materializes what it touches and the dirty server is excluded
// from representative-route replay.
func TestFoldedFailureAutoUnfolds(t *testing.T) {
	t.Parallel()
	eager, folded := buildPair(12, 1)
	// Down server 2's first NIC uplink (NIC -> ToR) in both builds. On the
	// folded cluster, Server(2) materializes the server before mutating it
	// and SetLinkUp marks it dirty, disabling representative replay for it.
	fail := func(c *Cluster) {
		nic := c.Server(2).NICs[0].Node
		for _, lid := range c.G.Out(nic) {
			c.G.SetLinkUp(lid, false)
		}
		for _, lid := range c.G.In(nic) {
			c.G.SetLinkUp(lid, false)
		}
	}
	fail(eager)
	fail(folded)
	re, rf := NewBFSRouter(eager.G), NewBFSRouter(folded.G)
	for _, p := range [][4]int{{2, 0, 4, 0}, {2, 3, 2, 5}, {0, 0, 2, 1}} {
		src, dst := eager.GPU(p[0], p[1]), eager.GPU(p[2], p[3])
		folded.GPU(p[0], p[1])
		folded.GPU(p[2], p[3])
		for salt := uint64(0); salt < 4; salt++ {
			key := FlowKey(src, dst, salt)
			rte, errE := re.Route(src, dst, key)
			rtf, errF := rf.Route(src, dst, key)
			if (errE == nil) != (errF == nil) {
				t.Fatalf("route %v->%v: eager err %v folded err %v", src, dst, errE, errF)
			}
			if !slices.Equal(rte, rtf) {
				t.Fatalf("route %v->%v salt %d under failure: eager %v folded %v", src, dst, salt, rte, rtf)
			}
		}
	}
}

// TestFoldedBuildAllocGuard: at 8k GPUs the folded build must allocate a
// small fraction of the eager build's bytes, and the eager build itself —
// with counted pre-sizing throughout the hot paths — must stay within a
// fixed budget. Build times and peak heap are benchmarked by
// mixnet-bench -scale large; this guards against allocation regressions in
// CI. The folded BOM, computed arithmetically, must equal the eager count
// at this cost-model scale (radix 64, as internal/cost builds), for both
// fat-tree builders.
func TestFoldedBuildAllocGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("8k-GPU build in -short mode")
	}
	for _, oversub := range []float64{1, 3} {
		builder := BuildFatTree
		if oversub > 1 {
			builder = BuildOverSubFatTree
		}
		build := func(eager bool) (*Cluster, uint64) {
			spec := DefaultSpec(1024, 400*Gbps) // 8192 GPUs
			spec.Eager, spec.Oversub = eager, oversub
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			c := builder(spec)
			runtime.ReadMemStats(&after)
			if c.GPUCount() != 8192 || c.Folded() == eager {
				t.Fatalf("oversub=%v: built %d GPUs, folded=%v", oversub, c.GPUCount(), c.Folded())
			}
			return c, after.TotalAlloc - before.TotalAlloc
		}
		eager, eagerBytes := build(true)
		folded, foldedBytes := build(false)
		t.Logf("oversub=%v 8k-GPU build: eager %.1f MB, folded %.2f MB", oversub, float64(eagerBytes)/(1<<20), float64(foldedBytes)/(1<<20))
		if eagerBytes > 64<<20 {
			t.Errorf("oversub=%v: eager 8k build allocated %d MB, budget 64 MB — pre-sizing regressed", oversub, eagerBytes>>20)
		}
		if foldedBytes*5 > eagerBytes {
			t.Errorf("oversub=%v: folded build allocated %d bytes, eager %d: want at least 5x reduction", oversub, foldedBytes, eagerBytes)
		}
		if eager.BOM != folded.BOM {
			t.Errorf("oversub=%v: BOM eager %+v folded %+v", oversub, eager.BOM, folded.BOM)
		}
	}
}
