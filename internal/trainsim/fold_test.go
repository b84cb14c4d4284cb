package trainsim

import (
	"testing"

	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// foldEngine builds an engine on tinyPlan widened to DP 4, so the cluster
// needs 16 servers — at radix 8 that is 16 leaves in 4 pods, a genuinely
// foldable 3-tier fat-tree.
func foldEngine(t *testing.T, fold bool, opts Options) *Engine {
	t.Helper()
	plan := tinyPlan
	plan.DP = 4
	spec := tinySpec(16)
	spec.SwitchRadix = 8
	spec.Eager = !fold
	c := topo.BuildFatTree(spec)
	if fold != c.Folded() {
		t.Fatalf("Folded() = %v, want %v", c.Folded(), fold)
	}
	opts.GateSeed = 1
	e, err := New(tinyModel, plan, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestFoldedEngineByteIdentical: a training engine on a symmetry-folded
// fat-tree must produce bitwise-identical per-iteration statistics to the
// eager build on every backend, including the sharded packet backend.
func TestFoldedEngineByteIdentical(t *testing.T) {
	configs := []netsim.Config{
		{Backend: "fluid"},
		{Backend: "analytic"},
		{Backend: "analytic-ecmp"},
		{Backend: "packet"},
	}
	for _, cfg := range configs {
		if testing.Short() && cfg.Backend == "packet" {
			continue // 64-GPU packet runs dominate -short/-race wall time
		}
		eager := foldEngine(t, false, Options{Config: cfg})
		folded := foldEngine(t, true, Options{Config: cfg})
		se, err := eager.Run(2)
		if err != nil {
			t.Fatalf("%s eager: %v", cfg.Backend, err)
		}
		sf, err := folded.Run(2)
		if err != nil {
			t.Fatalf("%s folded: %v", cfg.Backend, err)
		}
		if len(se) != len(sf) {
			t.Fatalf("%s: %d vs %d iterations", cfg.Backend, len(se), len(sf))
		}
		for i := range se {
			if se[i] != sf[i] {
				t.Errorf("%s iter %d: eager %+v folded %+v", cfg.Backend, i, se[i], sf[i])
			}
		}
	}
}
