package failure

import (
	"testing"

	"mixnet/internal/netsim"
	"mixnet/internal/topo"
	"mixnet/internal/trainsim"
)

// foldDrillEngine builds a 64-GPU engine (testPlan at DP 4 → 16 servers)
// on a radix-8 electrical fat-tree — 16 leaves in 4 pods, so the folded
// build is a real 3-tier quotient — with the analytic backend for speed.
func foldDrillEngine(fold bool) (*trainsim.Engine, error) {
	plan := testPlan
	plan.DP = 4
	spec := testSpec(16)
	spec.SwitchRadix = 8
	spec.Eager = !fold
	c := topo.BuildFatTree(spec)
	return trainsim.New(testModel, plan, c, trainsim.Options{
		GateSeed: 1, Config: netsim.Config{Backend: "analytic"},
	})
}

// TestFoldedDrillsByteIdentical: failure drills on a folded cluster must
// match the eager build bitwise — the injectors materialize and dirty what
// they touch, and re-routing around the failure is identical on the
// quotient graph. Covers a NIC failure (links downed on a lazily built
// server) and a whole-server replacement (placement override + controller
// exclusion).
func TestFoldedDrillsByteIdentical(t *testing.T) {
	drills := []struct {
		name   string
		inject func(e *trainsim.Engine) (Restore, error)
	}{
		{"fail-nic", func(e *trainsim.Engine) (Restore, error) {
			return FailEPSNICs(e.Cluster, 2, 1)
		}},
		{"fail-server", func(e *trainsim.Engine) (Restore, error) {
			return FailServer(e, 0, 15)
		}},
	}
	for _, d := range drills {
		run := func(fold bool) []trainsim.IterStats {
			e, err := foldDrillEngine(fold)
			if err != nil {
				t.Fatalf("%s fold=%v: %v", d.name, fold, err)
			}
			restore, err := d.inject(e)
			if err != nil {
				t.Fatalf("%s fold=%v inject: %v", d.name, fold, err)
			}
			defer restore()
			stats, err := e.Run(2)
			if err != nil {
				t.Fatalf("%s fold=%v run: %v", d.name, fold, err)
			}
			return stats
		}
		se, sf := run(false), run(true)
		if len(se) != len(sf) {
			t.Fatalf("%s: %d vs %d iterations", d.name, len(se), len(sf))
		}
		for i := range se {
			if se[i] != sf[i] {
				t.Errorf("%s iter %d: eager %+v folded %+v", d.name, i, se[i], sf[i])
			}
		}
	}
}

// TestFoldedDrillOverheadMatchesEager: the Figure 14 overhead metric —
// clean vs injected engine from the same factory — must agree exactly
// between build modes.
func TestFoldedDrillOverheadMatchesEager(t *testing.T) {
	inject := func(e *trainsim.Engine) (Restore, error) { return FailEPSNICs(e.Cluster, 1, 1) }
	overhead := func(fold bool) float64 {
		ov, err := Overhead(func() (*trainsim.Engine, error) { return foldDrillEngine(fold) }, inject, 2)
		if err != nil {
			t.Fatalf("fold=%v: %v", fold, err)
		}
		return ov
	}
	if oe, of := overhead(false), overhead(true); oe != of {
		t.Errorf("overhead eager %v != folded %v", oe, of)
	}
}
