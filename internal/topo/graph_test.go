package topo

import (
	"testing"
)

func lineGraph(t *testing.T, n int) (*Graph, []NodeID) {
	t.Helper()
	g := NewGraph()
	nodes := make([]NodeID, n)
	for i := range nodes {
		nodes[i] = g.AddNode(KindTor, "", -1, -1, -1)
	}
	for i := 0; i+1 < n; i++ {
		g.AddDuplex(nodes[i], nodes[i+1], 100*Gbps, 1e-6)
	}
	return g, nodes
}

func TestAddNodeLink(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindGPU, "a", 0, 0, -1)
	b := g.AddNode(KindNIC, "b", 0, 1, -1)
	id := g.AddLink(a, b, 1e9, 1e-6)
	if g.Link(id).From != a || g.Link(id).To != b {
		t.Error("link endpoints wrong")
	}
	if len(g.Out(a)) != 1 || len(g.In(b)) != 1 {
		t.Error("adjacency not updated")
	}
	if g.Node(a).Kind != KindGPU || g.Node(b).Name != "b" {
		t.Error("node fields wrong")
	}
}

func TestAddDuplex(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindNIC, "a", -1, -1, -1)
	b := g.AddNode(KindNIC, "b", -1, -1, -1)
	ab, ba := g.AddDuplex(a, b, 1e9, 0)
	if g.Link(ab).To != b || g.Link(ba).To != a {
		t.Error("duplex directions wrong")
	}
}

func TestEpochBumpsOnMutation(t *testing.T) {
	g := NewGraph()
	e0 := g.Epoch()
	a := g.AddNode(KindNIC, "", -1, -1, -1)
	if g.Epoch() == e0 {
		t.Error("AddNode did not bump epoch")
	}
	b := g.AddNode(KindNIC, "", -1, -1, -1)
	e1 := g.Epoch()
	id := g.AddLink(a, b, 1e9, 0)
	if g.Epoch() == e1 {
		t.Error("AddLink did not bump epoch")
	}
	e2 := g.Epoch()
	g.SetLinkUp(id, false)
	if g.Epoch() == e2 {
		t.Error("SetLinkUp did not bump epoch")
	}
	e3 := g.Epoch()
	g.SetLinkUp(id, false) // no-op
	if g.Epoch() != e3 {
		t.Error("no-op SetLinkUp bumped epoch")
	}
}

// TestStateHashWitnessesFlagRoundTrip: the engine pool's release rule
// relies on StateHash to prove a mutated graph was restored exactly: a
// downed-and-restored link must land back on the build hash, while the
// epoch keeps the forward count of both mutations.
func TestStateHashWitnessesFlagRoundTrip(t *testing.T) {
	g, _ := lineGraph(t, 6)
	h0, e0 := g.StateHash(), g.Epoch()
	l0 := g.NumLinks()

	g.SetLinkUp(LinkID(2), false)
	if g.StateHash() == h0 {
		t.Fatal("downing a link did not change StateHash")
	}
	g.SetLinkUp(LinkID(2), true)
	if g.StateHash() != h0 {
		t.Fatal("restored graph hashes differently from the original")
	}
	if g.NumLinks() != l0 {
		t.Fatal("flag flips must not allocate links")
	}
	if g.Epoch() != e0+2 {
		t.Fatalf("epoch %d after two mutations from %d: must bump on each, even when state round-trips", g.Epoch(), e0)
	}
}

// TestStateHashSeesAttributeChanges: equal shape with different link
// attributes must hash differently (the hash covers Bps, latency, flags).
func TestStateHashSeesAttributeChanges(t *testing.T) {
	g1, _ := lineGraph(t, 4)
	g2, _ := lineGraph(t, 4)
	if g1.StateHash() != g2.StateHash() {
		t.Fatal("identical builds hash differently")
	}
	g2.Links[1].Bps *= 2
	if g1.StateHash() == g2.StateHash() {
		t.Fatal("bandwidth change not visible in StateHash")
	}
}

func TestRemoveCircuits(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindNIC, "", -1, -1, 0)
	b := g.AddNode(KindNIC, "", -1, -1, 0)
	c := g.AddNode(KindNIC, "", -1, -1, 1)
	d := g.AddNode(KindNIC, "", -1, -1, 1)
	g.AddCircuit(a, b, 1e9, 0)
	g.AddCircuit(c, d, 1e9, 0)
	g.AddDuplex(a, c, 1e9, 0) // electrical, must survive
	if n := g.RemoveCircuits(0); n != 2 {
		t.Errorf("RemoveCircuits(0) = %d, want 2 directed links", n)
	}
	if len(g.Out(a)) != 1 {
		t.Errorf("node a out-degree = %d, want 1 (electrical only)", len(g.Out(a)))
	}
	if len(g.Out(c)) != 2 {
		t.Errorf("region-1 circuit should survive, out-degree = %d", len(g.Out(c)))
	}
	if n := g.RemoveCircuits(-1); n != 2 {
		t.Errorf("RemoveCircuits(-1) = %d, want 2", n)
	}
}

func TestValidate(t *testing.T) {
	g, _ := lineGraph(t, 4)
	if err := g.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	g.Links[0].Bps = -1
	if err := g.Validate(); err == nil {
		t.Error("Validate accepted negative bandwidth")
	}
}

func TestBFSRouterLine(t *testing.T) {
	g, nodes := lineGraph(t, 5)
	r := NewBFSRouter(g)
	rt, err := r.Route(nodes[0], nodes[4], 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rt) != 4 {
		t.Fatalf("route length %d, want 4", len(rt))
	}
	// Verify contiguity.
	cur := nodes[0]
	for _, id := range rt {
		if g.Link(id).From != cur {
			t.Fatal("route not contiguous")
		}
		cur = g.Link(id).To
	}
	if cur != nodes[4] {
		t.Fatal("route does not end at dst")
	}
}

func TestBFSRouterSelf(t *testing.T) {
	g, nodes := lineGraph(t, 2)
	r := NewBFSRouter(g)
	rt, err := r.Route(nodes[0], nodes[0], 0)
	if err != nil || len(rt) != 0 {
		t.Errorf("self route = %v, %v; want empty, nil", rt, err)
	}
}

func TestBFSRouterNoRoute(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindNIC, "", -1, -1, -1)
	b := g.AddNode(KindNIC, "", -1, -1, -1)
	r := NewBFSRouter(g)
	if _, err := r.Route(a, b, 0); err != ErrNoRoute {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestBFSRouterAvoidsDownLinks(t *testing.T) {
	// Diamond: a -> {b, c} -> d. Kill a-b; route must go via c.
	g := NewGraph()
	a := g.AddNode(KindNIC, "a", -1, -1, -1)
	b := g.AddNode(KindTor, "b", -1, -1, -1)
	c := g.AddNode(KindTor, "c", -1, -1, -1)
	d := g.AddNode(KindNIC, "d", -1, -1, -1)
	ab, _ := g.AddDuplex(a, b, 1e9, 0)
	g.AddDuplex(a, c, 1e9, 0)
	g.AddDuplex(b, d, 1e9, 0)
	g.AddDuplex(c, d, 1e9, 0)
	g.SetLinkUp(ab, false)
	r := NewBFSRouter(g)
	rt, err := r.Route(a, d, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range rt {
		if g.Link(id).From == a && g.Link(id).To == b {
			t.Error("route used downed link")
		}
	}
}

func TestBFSRouterECMPSpreads(t *testing.T) {
	// a connects to d via 4 parallel middle switches; different flow keys
	// should use more than one of them.
	g := NewGraph()
	a := g.AddNode(KindNIC, "a", -1, -1, -1)
	d := g.AddNode(KindNIC, "d", -1, -1, -1)
	for i := 0; i < 4; i++ {
		m := g.AddNode(KindTor, "m", -1, -1, -1)
		g.AddDuplex(a, m, 1e9, 0)
		g.AddDuplex(m, d, 1e9, 0)
	}
	r := NewBFSRouter(g)
	seen := map[LinkID]bool{}
	for k := uint64(0); k < 64; k++ {
		rt, err := r.Route(a, d, k)
		if err != nil {
			t.Fatal(err)
		}
		seen[rt[0]] = true
	}
	if len(seen) < 2 {
		t.Errorf("ECMP used only %d of 4 paths over 64 keys", len(seen))
	}
}

func TestBFSRouterStablePerKey(t *testing.T) {
	g, nodes := lineGraph(t, 6)
	r := NewBFSRouter(g)
	rt1, _ := r.Route(nodes[0], nodes[5], 42)
	rt2, _ := r.Route(nodes[0], nodes[5], 42)
	if len(rt1) != len(rt2) {
		t.Fatal("same key produced different routes")
	}
	for i := range rt1 {
		if rt1[i] != rt2[i] {
			t.Fatal("same key produced different routes")
		}
	}
}

func TestBFSRouterCacheInvalidation(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindNIC, "", -1, -1, -1)
	b := g.AddNode(KindNIC, "", -1, -1, -1)
	r := NewBFSRouter(g)
	if _, err := r.Route(a, b, 0); err != ErrNoRoute {
		t.Fatal("expected no route before link added")
	}
	g.AddDuplex(a, b, 1e9, 0)
	if _, err := r.Route(a, b, 0); err != nil {
		t.Errorf("route after mutation: %v (cache not invalidated?)", err)
	}
}

func TestPathHelpers(t *testing.T) {
	g := NewGraph()
	a := g.AddNode(KindNIC, "", -1, -1, -1)
	b := g.AddNode(KindTor, "", -1, -1, -1)
	c := g.AddNode(KindNIC, "", -1, -1, -1)
	l1 := g.AddLink(a, b, 100*Gbps, 1e-6)
	l2 := g.AddLink(b, c, 50*Gbps, 2e-6)
	rt := Route{l1, l2}
	if got := PathLatency(g, rt); got != 3e-6 {
		t.Errorf("PathLatency = %v, want 3e-6", got)
	}
	if got := PathMinBandwidth(g, rt); got != 50*Gbps {
		t.Errorf("PathMinBandwidth = %v, want 50G", got)
	}
	if got := PathMinBandwidth(g, nil); got != 0 {
		t.Errorf("PathMinBandwidth(empty) = %v, want 0", got)
	}
}
