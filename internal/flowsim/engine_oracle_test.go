package flowsim_test

import (
	"math"
	"testing"

	"mixnet/internal/flowsim"
	"mixnet/internal/scenario"
)

// TestSimulateMatchesOracleOnEnginePhases replays every fluid phase of the
// engine's communication plans through Sim.Simulate and the full-refill
// oracle and requires per-flow Finish times bitwise equal to the oracle's
// and to the ones the engine recorded. It covers a 2-iteration quick
// Mixtral run on every fabric and the five MixNet failure drills.
func TestSimulateMatchesOracleOnEnginePhases(t *testing.T) {
	for _, fabric := range []string{"mixnet", "fat-tree", "oversub", "rail", "topoopt"} {
		replayPhases(t, fabric, "")
	}
	for _, drill := range []string{scenario.FailNIC, scenario.FailGPU, scenario.FailServer, scenario.FailNICGPU, scenario.FailServerNIC} {
		replayPhases(t, "mixnet", drill)
	}
}

// replayPhases runs one engine for two iterations, with the named drill's
// fault injected when drill is set, and checks every phase of each
// iteration's plan against the oracle.
func replayPhases(t *testing.T, fabric, drill string) {
	t.Helper()
	name := fabric + " " + drill
	e, err := scenario.NewEngine(scenario.Config{Fabric: fabric, Seed: 7})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if drill != "" {
		inject, _ := scenario.DrillInjector(drill)
		restore, err := inject(e)
		if err != nil {
			t.Fatalf("%s: inject: %v", name, err)
		}
		defer restore()
	}
	sim := flowsim.NewSim()
	phases, flows := 0, 0
	for it := 0; it < 2; it++ {
		if _, err := e.RunIteration(); err != nil {
			t.Fatalf("%s: iteration %d: %v", name, it, err)
		}
		for _, s := range e.CommPlan().Steps() {
			for _, fs := range s.Phases {
				if len(fs) == 0 {
					continue
				}
				got, want := make([]*flowsim.Flow, len(fs)), make([]*flowsim.Flow, len(fs))
				for i, f := range fs {
					got[i] = &flowsim.Flow{ID: f.ID, Path: f.Path, Bytes: f.Bytes, Start: f.Start}
					w := *got[i]
					want[i] = &w
				}
				gr, err := sim.Simulate(e.Cluster.G, got)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				wr, err := flowsim.RefSimulate(e.Cluster.G, want)
				if err != nil {
					t.Fatalf("%s: oracle: %v", name, err)
				}
				if math.Float64bits(gr.Makespan) != math.Float64bits(wr.Makespan) {
					t.Fatalf("%s: phase makespan %v, oracle %v", name, gr.Makespan, wr.Makespan)
				}
				for i, f := range fs {
					if math.Float64bits(got[i].Finish) != math.Float64bits(want[i].Finish) ||
						math.Float64bits(got[i].Finish) != math.Float64bits(f.Finish) {
						t.Fatalf("%s: flow %d Finish %v, oracle %v, engine %v", name, f.ID, got[i].Finish, want[i].Finish, f.Finish)
					}
				}
				phases++
				flows += len(fs)
			}
		}
	}
	if phases == 0 {
		t.Fatalf("%s: no fluid phases replayed", name)
	}
	t.Logf("%s: %d phases, %d flows bitwise equal", name, phases, flows)
}
