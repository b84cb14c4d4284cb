package commplan_test

import (
	"testing"

	"mixnet/internal/commplan"
	"mixnet/internal/netsim"
	"mixnet/internal/scenario"
	"mixnet/internal/tenancy"
)

// TestEngineRoundsMatchReadyQueue checks the drain's rounds against the
// ready-queue oracle on every plan of a 2-iteration quick Mixtral run on
// each fabric under each overlap discipline.
func TestEngineRoundsMatchReadyQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs")
	}
	for _, fabric := range []string{"mixnet", "fat-tree", "oversub", "rail", "topoopt"} {
		for _, overlap := range []string{"none", "layer", "iter"} {
			name := fabric + "/" + overlap
			e, err := scenario.NewEngine(scenario.Config{Fabric: fabric, Seed: 7, Overlap: overlap})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for it := 0; it < 2; it++ {
				if _, err := e.RunIteration(); err != nil {
					t.Fatalf("%s: iteration %d: %v", name, it, err)
				}
				if _, err := commplan.CheckRounds([]*commplan.Plan{e.CommPlan()}); err != nil {
					t.Fatalf("%s: iteration %d: %v", name, it, err)
				}
			}
		}
	}
}

// TestMergedEngineRoundsMatchReadyQueue checks a merged two-tenant drain —
// quick Mixtral under the rolling window beside a DP=2 neighbour under
// layer overlap — round by round against the ready-queue oracle, and the
// merged round count against the executor's stats.
func TestMergedEngineRoundsMatchReadyQueue(t *testing.T) {
	if testing.Short() {
		t.Skip("engine runs")
	}
	cs, err := tenancy.New(
		tenancy.Config{Fabric: "mixnet", Config: netsim.Config{Backend: "fluid"}, LinkGbps: 100},
		[]tenancy.Job{
			{Name: "a", Model: "Mixtral 8x7B", Seed: 1, Overlap: "iter", Base: tenancy.AutoBase},
			{Name: "b", Model: "Mixtral 8x7B", DP: 2, Seed: 2, Overlap: "layer", Base: tenancy.AutoBase},
		})
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*commplan.Plan, len(cs.Tenants))
	for it := 0; it < 2; it++ {
		before := cs.MergedStats().Batches
		if err := cs.RunRound(); err != nil {
			t.Fatal(err)
		}
		for i, tr := range cs.Tenants {
			plans[i] = tr.Engine.CommPlan()
		}
		rounds, err := commplan.CheckRounds(plans)
		if err != nil {
			t.Fatalf("iteration %d: %v", it, err)
		}
		if got := cs.MergedStats().Batches - before; got != uint64(rounds) {
			t.Fatalf("iteration %d: merged drain ran %d rounds, oracle %d", it, got, rounds)
		}
	}
}
