package topo

import (
	"slices"
	"testing"
)

// TestResetCircuitsRestoresBuildTopology: runtime circuit retargeting must
// be fully reversible — ResetCircuits reinstalls the sealed build pairs,
// the restored graph hashes identically to the build (fresh link IDs
// notwithstanding), and a cluster already at its build configuration is
// left untouched, epoch included.
func TestResetCircuitsRestoresBuildTopology(t *testing.T) {
	c := BuildMixNet(DefaultSpec(16, 100*Gbps)) // 2 regions of 8
	g := c.G
	h0 := g.StateHash()
	build := slices.Clone(c.RegionCircuits(0))
	if len(build) == 0 {
		t.Fatal("no build circuits in region 0")
	}

	// Already at build configuration: a no-op that must not move the epoch.
	e0 := g.Epoch()
	if changed, err := c.ResetCircuits(); err != nil || changed {
		t.Fatalf("ResetCircuits on pristine cluster: changed=%v err=%v", changed, err)
	}
	if g.Epoch() != e0 {
		t.Fatal("no-op ResetCircuits moved the epoch")
	}

	// Retarget region 0 (drop half the circuits), then restore.
	if err := c.SetRegionCircuits(0, build[:len(build)/2]); err != nil {
		t.Fatal(err)
	}
	if g.StateHash() == h0 {
		t.Fatal("retargeting did not change StateHash")
	}
	links := g.NumLinks()
	changed, err := c.ResetCircuits()
	if err != nil || !changed {
		t.Fatalf("ResetCircuits after retarget: changed=%v err=%v", changed, err)
	}
	if !slices.Equal(c.RegionCircuits(0), build) {
		t.Fatal("restored circuits differ from the sealed build pairs")
	}
	if g.StateHash() != h0 {
		t.Fatal("restored cluster hashes differently from the build")
	}
	// Reinstallation allocates fresh IDs: the link table grows even though
	// the simulated topology is identical.
	if g.NumLinks() <= links {
		t.Fatalf("expected the link table to grow: %d -> %d", links, g.NumLinks())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestIdenticalRetargetLeavesGraphAlone: re-applying a region's installed
// circuits is a no-op (epoch, link table and StateHash unchanged), while a
// retarget at another bandwidth reinstalls on fresh links, and so does
// returning to the original bandwidth.
func TestIdenticalRetargetLeavesGraphAlone(t *testing.T) {
	c := BuildMixNet(DefaultSpec(8, 100*Gbps))
	g := c.G
	pairs := slices.Clone(c.RegionCircuits(0))
	epoch, links, hash := g.Epoch(), len(g.Links), g.StateHash()
	if err := c.SetRegionCircuits(0, pairs); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() != epoch || len(g.Links) != links || g.StateHash() != hash {
		t.Fatalf("identical retarget: epoch %d -> %d, links %d -> %d, hash moved %v; want all unchanged",
			epoch, g.Epoch(), links, len(g.Links), g.StateHash() != hash)
	}
	if changed, err := c.ResetCircuits(); err != nil || changed {
		t.Fatalf("ResetCircuits at the build configuration: changed=%v err=%v", changed, err)
	}
	for _, bps := range []float64{200 * Gbps, 100 * Gbps} {
		if err := c.SetRegionCircuitsBps(0, pairs, bps); err != nil {
			t.Fatal(err)
		}
		if g.Epoch() == epoch {
			t.Fatalf("retarget to %g bps did not move the epoch", bps)
		}
		epoch = g.Epoch()
		up := 0
		for i := links; i < len(g.Links); i++ {
			if l := &g.Links[i]; l.Circuit && !l.Detached && l.Up && l.Bps == bps {
				up++
			}
		}
		if up != 2*len(pairs) {
			t.Fatalf("retarget to %g bps: %d fresh circuit links up, want %d", bps, up, 2*len(pairs))
		}
		links = len(g.Links)
	}
	if g.StateHash() != hash {
		t.Fatal("back at the original bandwidth, StateHash differs from the build")
	}
}

// TestTeardownInvalidatesRoutes: tearing circuits down with nothing
// installed after them (a retarget to no pairs, tenant isolation) moves
// the epoch, so no cached route crosses a detached circuit.
func TestTeardownInvalidatesRoutes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		teardown func(c *Cluster) error
	}{
		{"retarget-to-nothing", func(c *Cluster) error { return c.SetRegionCircuits(0, nil) }},
		{"isolate-tenants", func(c *Cluster) error {
			_, err := c.IsolateTenants([]Tenant{{Name: "a", Regions: []int{0}}, {Name: "b", Regions: []int{1}}})
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := BuildMixNet(DefaultSpec(16, 100*Gbps)) // 2 regions of 8
			// A circuit across the two regions, which isolation tears down.
			a := c.Servers[0].OCSNICs()[5].Node
			b := c.Servers[15].OCSNICs()[5].Node
			if err := c.SetRegionCircuits(0, append(slices.Clone(c.RegionCircuits(0)), CircuitPair{A: a, B: b})); err != nil {
				t.Fatal(err)
			}
			r := NewBFSRouter(c.G)
			rt, err := r.Route(a, b, 7)
			if err != nil || len(rt) != 1 || !c.G.Link(rt[0]).Circuit {
				t.Fatalf("test setup: route %v, %v; want the one-hop circuit", rt, err)
			}
			epoch := c.G.Epoch()
			if err := tc.teardown(c); err != nil {
				t.Fatal(err)
			}
			if c.G.Epoch() == epoch {
				t.Errorf("teardown left the epoch at %d", epoch)
			}
			rt, err = r.Route(a, b, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, lid := range rt {
				if c.G.Link(lid).Detached {
					t.Fatalf("route %v after teardown crosses detached circuit link %d", rt, lid)
				}
			}
		})
	}
}
