package topo

import (
	"runtime"
	"testing"
)

// benchFabric builds a small fat-tree with real ECMP fan-out.
func benchFabric() *Cluster {
	return BuildFatTree(DefaultSpec(16, 100*Gbps))
}

func BenchmarkRouteCached(b *testing.B) {
	c := benchFabric()
	r := NewBFSRouter(c.G)
	src, dst := c.GPU(0, 0), c.GPU(15, 7)
	if _, err := r.Route(src, dst, 7); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Route(src, dst, 7); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouteCold(b *testing.B) {
	c := benchFabric()
	r := NewBFSRouter(c.G)
	src, dst := c.GPU(0, 0), c.GPU(15, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Invalidate()
		if _, err := r.Route(src, dst, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// reconfigFabric builds a one-region MixNet fabric, two circuit
// configurations to alternate between, and the pairs a topology-aware
// all-to-all routes after each retarget: every GPU to every OCS NIC of its
// server and back (gather and scatter), and GPU 0 of every server to GPU 0
// of every other.
func reconfigFabric() (c *Cluster, configs [2][]CircuitPair, pairs [][2]NodeID) {
	c = BuildMixNet(DefaultSpec(8, 100*Gbps))
	configs[0] = UniformCircuits(c, 0)
	// The second configuration pairs NIC j of server i with NIC j+1 of
	// server i+j/2+1, using every OCS NIC once.
	m := len(c.Servers)
	for i := range c.Servers {
		nics := c.Servers[i].OCSNICs()
		for j := 0; j+1 < len(nics); j += 2 {
			peer := c.Servers[(i+j/2+1)%m].OCSNICs()
			configs[1] = append(configs[1], CircuitPair{A: nics[j].Node, B: peer[j+1].Node})
		}
	}
	for i := range c.Servers {
		for _, gpu := range c.Servers[i].GPUs {
			for _, nic := range c.Servers[i].OCSNICs() {
				pairs = append(pairs, [2]NodeID{gpu, nic.Node}, [2]NodeID{nic.Node, gpu})
			}
		}
		for j := range c.Servers {
			if i != j {
				pairs = append(pairs, [2]NodeID{c.GPU(i, 0), c.GPU(j, 0)})
			}
		}
	}
	return c, configs, pairs
}

// routePairs routes every pair once under one flow key.
func routePairs(tb testing.TB, r *BFSRouter, pairs [][2]NodeID) {
	for _, p := range pairs {
		if _, err := r.Route(p[0], p[1], 7); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkRouteAfterReconfig times what a collective compile pays for
// routing right after the OCS retargets a region: every op installs the
// other circuit configuration (untimed), which drops every cached field and
// route, then routes the compile's pairs afresh.
func BenchmarkRouteAfterReconfig(b *testing.B) {
	c, configs, pairs := reconfigFabric()
	r := NewBFSRouter(c.G)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := c.SetRegionCircuits(0, configs[i%2]); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		routePairs(b, r, pairs)
	}
}

// TestRouteAfterReconfigAllocs guards the recycled distance fields: once a
// router has warmed up on a MixNet fabric, re-routing the same pairs after
// another circuit retarget allocates only the returned Route slices.
func TestRouteAfterReconfigAllocs(t *testing.T) {
	c, configs, pairs := reconfigFabric()
	r := NewBFSRouter(c.G)
	for i := 0; i < 3; i++ {
		if err := c.SetRegionCircuits(0, configs[i%2]); err != nil {
			t.Fatal(err)
		}
		routePairs(t, r, pairs)
	}
	if err := c.SetRegionCircuits(0, configs[1]); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	routePairs(t, r, pairs)
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got > uint64(len(pairs)) {
		t.Errorf("re-routing %d pairs after a retarget made %d allocations, want at most one Route slice per pair",
			len(pairs), got)
	}
}

// TestRouteAfterIdenticalRetargetAllocs guards the warm routes across a
// retarget to the installed circuits: it moves no epoch and adds no link,
// and routing the compile's pairs again under a new flow key allocates at
// most one Route per pair with an ECMP choice, because every single-path
// route comes from the per-pair cache.
func TestRouteAfterIdenticalRetargetAllocs(t *testing.T) {
	c, configs, pairs := reconfigFabric()
	r := NewBFSRouter(c.G)
	// Warm up as a compile loop does: a few retargets, each compile
	// routing under two keys, so the caches are at their working size.
	for i := 0; i < 3; i++ {
		if err := c.SetRegionCircuits(0, configs[i%2]); err != nil {
			t.Fatal(err)
		}
		routePairs(t, r, pairs)
		for _, p := range pairs {
			if _, err := r.Route(p[0], p[1], 8); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.SetRegionCircuits(0, configs[1]); err != nil {
		t.Fatal(err)
	}
	routePairs(t, r, pairs)
	epoch, links := c.G.Epoch(), len(c.G.Links)
	if err := c.SetRegionCircuits(0, configs[1]); err != nil {
		t.Fatal(err)
	}
	if c.G.Epoch() != epoch || len(c.G.Links) != links {
		t.Fatalf("identical retarget: epoch %d -> %d, links %d -> %d; want both unchanged",
			epoch, c.G.Epoch(), links, len(c.G.Links))
	}
	ref := &refRouter{g: c.G}
	choices := 0
	for _, p := range pairs {
		if ref.choice(p[0], p[1]) {
			choices++
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range pairs {
		if _, err := r.Route(p[0], p[1], 8); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := after.Mallocs - before.Mallocs
	t.Logf("%d of %d pairs have an ECMP choice; re-routing made %d allocations", choices, len(pairs), got)
	if got > uint64(choices) {
		t.Errorf("re-routing %d pairs under a new key after an identical retarget made %d allocations, want at most %d (the pairs with an ECMP choice)",
			len(pairs), got, choices)
	}
}

// TestRouteCachedZeroAllocs guards the router half of the tentpole: a
// steady-state Route call (warm distance field and route cache) must not
// allocate.
func TestRouteCachedZeroAllocs(t *testing.T) {
	c := benchFabric()
	r := NewBFSRouter(c.G)
	src, dst := c.GPU(0, 0), c.GPU(15, 7)
	if _, err := r.Route(src, dst, 7); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := r.Route(src, dst, 7); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cached Route allocates %v objects/run, want 0", allocs)
	}
}

// TestRouteCacheInvalidatesOnMutation proves cached routes do not survive
// graph mutation: downing a link on the cached path must reroute.
func TestRouteCacheInvalidatesOnMutation(t *testing.T) {
	c := benchFabric()
	r := NewBFSRouter(c.G)
	src, dst := c.GPU(0, 0), c.GPU(15, 7)
	rt, err := r.Route(src, dst, 7)
	if err != nil {
		t.Fatal(err)
	}
	mid := rt[len(rt)/2]
	c.G.SetLinkUp(mid, false)
	rt2, err := r.Route(src, dst, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, lid := range rt2 {
		if lid == mid {
			t.Fatalf("rerouted path still uses downed link %d", mid)
		}
	}
	c.G.SetLinkUp(mid, true)
}

// TestSetDuplexUpOddOffset regresses the ab^1 partner-lookup bug: a duplex
// pair allocated at an odd LinkID offset must still flip both directions.
func TestSetDuplexUpOddOffset(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindNIC, "a", -1, -1, -1)
	b := g.AddNode(KindNIC, "b", -1, -1, -1)
	x := g.AddNode(KindNIC, "x", -1, -1, -1)
	g.AddLink(x, a, Gbps, 0) // link 0: shifts the duplex pair to IDs (1, 2)
	ab, ba := g.AddDuplex(a, b, Gbps, 0)
	if ab%2 != 1 {
		t.Fatalf("test setup: pair not at odd offset (ab=%d)", ab)
	}
	for _, start := range []LinkID{ab, ba} {
		g.SetDuplexUp(start, false)
		if g.Link(ab).Up || g.Link(ba).Up {
			t.Fatalf("SetDuplexUp(%d, false): up=%v,%v, want both down",
				start, g.Link(ab).Up, g.Link(ba).Up)
		}
		g.SetDuplexUp(start, true)
		if !g.Link(ab).Up || !g.Link(ba).Up {
			t.Fatalf("SetDuplexUp(%d, true): up=%v,%v, want both up",
				start, g.Link(ab).Up, g.Link(ba).Up)
		}
	}
}

// TestSetDuplexUpParallelRails pins the multi-rail case: two duplex pairs
// between the same endpoints must flip as pairs, never across rails.
func TestSetDuplexUpParallelRails(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindNIC, "a", -1, -1, -1)
	b := g.AddNode(KindNIC, "b", -1, -1, -1)
	ab1, ba1 := g.AddDuplex(a, b, Gbps, 0)
	ab2, ba2 := g.AddDuplex(a, b, Gbps, 0)
	g.SetDuplexUp(ba1, false) // second ID of rail 1
	if g.Link(ab1).Up || g.Link(ba1).Up {
		t.Errorf("rail 1 not fully down: up=%v,%v", g.Link(ab1).Up, g.Link(ba1).Up)
	}
	if !g.Link(ab2).Up || !g.Link(ba2).Up {
		t.Errorf("rail 2 disturbed: up=%v,%v, want both up", g.Link(ab2).Up, g.Link(ba2).Up)
	}
	g.SetDuplexUp(ba1, true)
	g.SetDuplexUp(ab2, false) // first ID of rail 2
	if g.Link(ab2).Up || g.Link(ba2).Up {
		t.Errorf("rail 2 not fully down: up=%v,%v", g.Link(ab2).Up, g.Link(ba2).Up)
	}
	if !g.Link(ab1).Up || !g.Link(ba1).Up {
		t.Errorf("rail 1 disturbed: up=%v,%v, want both up", g.Link(ab1).Up, g.Link(ba1).Up)
	}
}
