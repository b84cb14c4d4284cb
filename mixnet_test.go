package mixnet

import (
	"strings"
	"testing"

	"mixnet/internal/moe"
)

// TestListModels: every listed name resolves to a model and a training
// plan, so Simulate accepts it.
func TestListModels(t *testing.T) {
	models := ListModels()
	for _, m := range models {
		if _, _, err := moe.PlanFor(m, 0); err != nil {
			t.Errorf("listed model %q does not resolve: %v", m, err)
		}
	}
	found := false
	for _, m := range models {
		if m == "Mixtral 8x7B" {
			found = true
		}
	}
	if !found {
		t.Error("Mixtral 8x7B missing from registry")
	}
}

func TestSimulateDefaults(t *testing.T) {
	res, err := Simulate(SimConfig{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanIterTime <= 0 {
		t.Error("zero iteration time")
	}
	if res.GPUs != 128 || res.Servers != 16 {
		t.Errorf("default Mixtral cluster = %d GPUs / %d servers, want 128/16", res.GPUs, res.Servers)
	}
	if len(res.Stats) != 2 {
		t.Errorf("stats = %d, want 2", len(res.Stats))
	}
}

func TestSimulateMixNetCopilot(t *testing.T) {
	res, err := Simulate(SimConfig{
		Model: "Mixtral 8x7B", Fabric: MixNet, FirstA2A: "copilot",
		LinkGbps: 100, Iterations: 2, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[1].Reconfigs == 0 {
		t.Error("MixNet simulation performed no reconfigurations")
	}
}

func TestSimulateUnknownModel(t *testing.T) {
	if _, err := Simulate(SimConfig{Model: "GPT-9"}); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestSimulateUnknownMode(t *testing.T) {
	if _, err := Simulate(SimConfig{Fabric: MixNet, FirstA2A: "psychic"}); err == nil {
		t.Error("unknown FirstA2A accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cfg := SimConfig{Model: "Qwen-MoE", Fabric: MixNet, LinkGbps: 100, Iterations: 2, Seed: 11}
	a, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanIterTime != b.MeanIterTime {
		t.Errorf("same seed gave %v vs %v", a.MeanIterTime, b.MeanIterTime)
	}
}

func TestNetworkCost(t *testing.T) {
	ft, err := NetworkCost(FatTree, 128, 400)
	if err != nil {
		t.Fatal(err)
	}
	mx, err := NetworkCost(MixNet, 128, 400)
	if err != nil {
		t.Fatal(err)
	}
	if mx.Total() >= ft.Total() {
		t.Errorf("MixNet $%.0f !< fat-tree $%.0f", mx.Total(), ft.Total())
	}
	if _, err := NetworkCost(FatTree, 128, 123); err == nil {
		t.Error("unknown bandwidth accepted")
	}
	for _, servers := range []int{-1, 0} {
		if _, err := NetworkCost(FatTree, servers, 400); err == nil {
			t.Errorf("%d servers accepted", servers)
		}
	}
}

func TestExperimentDispatch(t *testing.T) {
	out, err := Experiment("tab2", false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Polatis") {
		t.Error("tab2 output missing Polatis row")
	}
	if _, err := Experiment("nope", false); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestExperimentIDsComplete(t *testing.T) {
	ids := ExperimentIDs()
	want := []string{"tab1", "tab2", "tab4", "fig2", "fig3", "fig4", "fig5", "fig10",
		"fig11", "fig12", "fig13", "fig14", "fig16", "fig19", "fig21", "fig22_23",
		"fig24", "fig25", "fig26", "fig27", "fig28"}
	have := map[string]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("experiment %s missing from registry", w)
		}
	}
}

func TestSimBackends(t *testing.T) {
	got := SimBackends()
	if len(got) != 4 || got[0] != "fluid" || got[1] != "packet" ||
		got[2] != "analytic" || got[3] != "analytic-ecmp" {
		t.Errorf("SimBackends() = %v", got)
	}
}

func TestSimulateAnalyticBackend(t *testing.T) {
	cfg := SimConfig{Model: "Mixtral 8x7B", Fabric: MixNet, LinkGbps: 100, Iterations: 2, Seed: 3}
	fluid, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Backend = "analytic"
	ana, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ana.MeanIterTime <= 0 {
		t.Fatal("analytic backend produced zero iteration time")
	}
	// The analytic substrate lower-bounds network time, so the full
	// iteration (dominated by compute) stays close to but not above fluid.
	if ana.MeanIterTime > fluid.MeanIterTime*(1+1e-9) {
		t.Errorf("analytic %.4fs above fluid %.4fs", ana.MeanIterTime, fluid.MeanIterTime)
	}
	if ana.MeanIterTime < fluid.MeanIterTime*0.5 {
		t.Errorf("analytic %.4fs implausibly far below fluid %.4fs", ana.MeanIterTime, fluid.MeanIterTime)
	}
}

func TestSimulateUnknownBackend(t *testing.T) {
	if _, err := Simulate(SimConfig{Exec: Exec{Backend: "quantum"}}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestSimulateRejectsMeaninglessNumbers: settings no run can mean are
// errors — not a hung solver, a panic, or a negative iteration time.
func TestSimulateRejectsMeaninglessNumbers(t *testing.T) {
	for _, cfg := range []SimConfig{
		{Fabric: MixNet, LinkGbps: -400},
		{Fabric: MixNet, Iterations: -1},
		{Fabric: MixNet, ReconfigDelaySec: -1},
		{Fabric: FatTree, DP: -1},
	} {
		if res, err := Simulate(cfg); err == nil {
			t.Errorf("%+v accepted: mean iteration time %v", cfg, res.MeanIterTime)
		}
	}
}
