package scenario

import (
	"math"
	"testing"
)

// quickCfg keeps runner tests cheap: the fluid substrate at a small
// iteration count (cluster size follows the model plan: 128 GPUs).
func quickCfg() Config {
	return Config{Seed: 7, Iterations: 2}
}

func TestSyntheticScenario(t *testing.T) {
	r, err := Run(Synthetic, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if r.Scenario != Synthetic || r.Backend != "fluid" {
		t.Errorf("result labels %q/%q", r.Scenario, r.Backend)
	}
	if r.MeanIterTime <= 0 || math.IsNaN(r.MeanIterTime) {
		t.Errorf("mean iteration time %v", r.MeanIterTime)
	}
	if r.GPUs != 128 || r.Servers != 16 {
		t.Errorf("cluster %d GPUs / %d servers, want 128/16", r.GPUs, r.Servers)
	}
	if r.IsDrill() {
		t.Error("synthetic scenario flagged as a drill")
	}
}

// TestTraceReplayMatchesSynthetic: the trace scenario records the synthetic
// gate with the same seed and replays it through internal/trace's JSON
// round trip, so its mean iteration time must equal the synthetic run's to
// float precision.
func TestTraceReplayMatchesSynthetic(t *testing.T) {
	synth, err := Run(Synthetic, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	replay, err := Run(TraceName, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(replay.MeanIterTime-synth.MeanIterTime) > 1e-9*synth.MeanIterTime {
		t.Errorf("trace replay mean %.9fs, synthetic %.9fs", replay.MeanIterTime, synth.MeanIterTime)
	}
}

func TestFailureDrills(t *testing.T) {
	for _, name := range []string{FailNIC, FailGPU, FailServer, FailNICGPU, FailServerNIC, CopilotDrill} {
		t.Run(name, func(t *testing.T) {
			r, err := Run(name, quickCfg())
			if err != nil {
				t.Fatal(err)
			}
			if !r.IsDrill() {
				t.Fatal("drill result missing baseline")
			}
			if r.MeanIterTime <= 0 || r.BaselineIterTime <= 0 {
				t.Fatalf("times %v/%v", r.MeanIterTime, r.BaselineIterTime)
			}
			// Failures may cost or (rarely, via replanned circuits) save a
			// little; a drill that halves iteration time means broken wiring.
			if r.Overhead < -0.5 || r.Overhead > 5 || math.IsNaN(r.Overhead) {
				t.Errorf("%s overhead %v implausible", name, r.Overhead)
			}
		})
	}
}

// TestComposedDrillsUnwind: a composed drill's restore must leave the
// engine-independent cluster state clean — a second, single-failure drill
// from the same config reproduces its standalone result exactly.
func TestComposedDrillsUnwind(t *testing.T) {
	single, err := Run(FailGPU, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(FailNICGPU, quickCfg()); err != nil {
		t.Fatal(err)
	}
	again, err := Run(FailGPU, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if single.MeanIterTime != again.MeanIterTime {
		t.Errorf("fail-gpu after composed drill: %.9fs, standalone %.9fs",
			again.MeanIterTime, single.MeanIterTime)
	}
}

// TestCopilotDrillBaseline: the copilot drill's baseline is a copilot-mode
// clean run, not the block-mode synthetic result.
func TestCopilotDrillBaseline(t *testing.T) {
	block, err := Run(Synthetic, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	cop, err := Run(CopilotDrill, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if cop.BaselineIterTime == block.MeanIterTime {
		t.Error("copilot drill reused the block-mode baseline")
	}
	if cop.BaselineIterTime >= block.MeanIterTime {
		t.Errorf("copilot clean baseline %.3fs not below block-mode %.3fs (reconfiguration not hidden?)",
			cop.BaselineIterTime, block.MeanIterTime)
	}
}

// TestMatrixAcrossBackends runs the full scenario set on two substrates in
// one call — the unified-runner property the packet backend inherits.
func TestMatrixAcrossBackends(t *testing.T) {
	results, err := RunMatrix(nil, []string{"fluid", "analytic-ecmp"}, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// analytic-ecmp cannot price contention, so the default set runs the
	// co-tenant pair on fluid only.
	want := len(Names())*2 - 2
	if len(results) != want {
		t.Fatalf("%d results, want %d", len(results), want)
	}
	coTenantRows := 0
	for _, r := range results {
		if r.MeanIterTime <= 0 {
			t.Errorf("%s/%s: mean %v", r.Scenario, r.Backend, r.MeanIterTime)
		}
		if r.Scenario == CoTenant || r.Scenario == CoTenantSteal {
			coTenantRows++
			if r.Backend != "fluid" {
				t.Errorf("%s ran on %s", r.Scenario, r.Backend)
			}
		}
	}
	if coTenantRows != 2 {
		t.Errorf("%d co-tenant rows, want 2 (fluid)", coTenantRows)
	}
	if _, err := RunMatrix([]string{CoTenant}, []string{"analytic-ecmp"}, quickCfg()); err == nil {
		t.Error("co-tenant on analytic-ecmp accepted when named")
	}
	// The drills' baseline is the memoized clean run: it must equal the
	// matrix's own synthetic result for the same backend exactly.
	synth := map[string]float64{}
	for _, r := range results {
		if r.Scenario == Synthetic {
			synth[r.Backend] = r.MeanIterTime
		}
	}
	for _, r := range results {
		switch r.Scenario {
		case CopilotDrill, CoTenant, CoTenantSteal:
			continue // measure their own baselines (copilot-mode / co-sim)
		}
		if r.IsDrill() && r.BaselineIterTime != synth[r.Backend] {
			t.Errorf("%s/%s: baseline %v != synthetic %v", r.Scenario, r.Backend, r.BaselineIterTime, synth[r.Backend])
		}
	}
}

// TestCoTenantScenarios: the interference entry prices the primary tenant
// against its solo run (contention can only add time), and the steal drill
// prices the neighbour against the clean co-sim.
func TestCoTenantScenarios(t *testing.T) {
	co, err := Run(CoTenant, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !co.IsDrill() {
		t.Fatal("co-tenant result missing solo baseline")
	}
	if co.Overhead < -1e-9 || math.IsNaN(co.Overhead) {
		t.Errorf("co-tenant interference overhead %v negative", co.Overhead)
	}
	if co.Servers != 48 {
		t.Errorf("co-located cluster has %d servers, want 48 (16 primary + 32 DP-heavy)", co.Servers)
	}
	steal, err := Run(CoTenantSteal, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if !steal.IsDrill() {
		t.Fatal("co-tenant-steal result missing clean co-sim baseline")
	}
	if steal.Overhead < -1e-9 || steal.Overhead > 5 || math.IsNaN(steal.Overhead) {
		t.Errorf("co-tenant-steal overhead %v implausible", steal.Overhead)
	}
}

func TestScenarioErrors(t *testing.T) {
	if _, err := Run("chaos-monkey", quickCfg()); err == nil {
		t.Error("unknown scenario accepted")
	}
	cfg := quickCfg()
	cfg.Model = "GPT-17"
	if _, err := Run(Synthetic, cfg); err == nil {
		t.Error("unknown model accepted")
	}
	cfg = quickCfg()
	cfg.Fabric = "hypercube"
	if _, err := Run(Synthetic, cfg); err == nil {
		t.Error("unknown fabric accepted")
	}
	cfg = quickCfg()
	cfg.Backend = "quantum"
	if _, err := Run(Synthetic, cfg); err == nil {
		t.Error("unknown backend accepted")
	}
	// The first-A2A mode is checked on every fabric, not only where it
	// selects a reconfiguration policy.
	for _, fabric := range []string{"mixnet", "fat-tree"} {
		cfg = quickCfg()
		cfg.Fabric, cfg.FirstA2A = fabric, "bogus"
		if _, err := Run(Synthetic, cfg); err == nil {
			t.Errorf("%s: unknown first-A2A mode accepted", fabric)
		}
	}
	// Numbers no run can mean: errors, not panics, hangs or negative times.
	for _, mut := range []func(*Config){
		func(c *Config) { c.Iterations = -1 },
		func(c *Config) { c.DP = -1 },
		func(c *Config) { c.LinkGbps = -400 },
		func(c *Config) { c.ReconfigDelaySec = -1 },
	} {
		cfg = quickCfg()
		mut(&cfg)
		for _, name := range []string{Synthetic, FailNIC, CoTenant} {
			if _, err := Run(name, cfg); err == nil {
				t.Errorf("%s: %+v accepted", name, cfg)
			}
		}
	}
}
