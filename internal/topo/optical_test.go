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
