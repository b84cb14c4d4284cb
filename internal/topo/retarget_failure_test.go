package topo_test

import (
	"slices"
	"testing"

	"mixnet/internal/failure"
	"mixnet/internal/topo"
)

// TestRetargetAfterOCSNICFailureReinstalls: re-applying the installed
// circuits is a no-op only while every circuit link is up. After
// failure.FailOCSNIC has darkened one, the same retarget reinstalls: the
// epoch moves and the region's circuits come up on fresh links.
func TestRetargetAfterOCSNICFailureReinstalls(t *testing.T) {
	c := topo.BuildMixNet(topo.DefaultSpec(8, 100*topo.Gbps))
	g := c.G
	pairs := slices.Clone(c.RegionCircuits(0))
	restore, err := failure.FailOCSNIC(c, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer restore()
	epoch, links := g.Epoch(), len(g.Links)
	if err := c.SetRegionCircuits(0, pairs); err != nil {
		t.Fatal(err)
	}
	if g.Epoch() == epoch {
		t.Fatal("retarget over a downed circuit did not move the epoch")
	}
	up := 0
	for i := links; i < len(g.Links); i++ {
		if l := &g.Links[i]; l.Circuit && !l.Detached && l.Up {
			up++
		}
	}
	if up != 2*len(pairs) {
		t.Fatalf("%d fresh circuit links up after the retarget, want %d", up, 2*len(pairs))
	}
}
