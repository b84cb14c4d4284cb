package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSuffix(strings.TrimPrefix(s, "$"), "M"), "ms")
	s = strings.TrimSuffix(strings.TrimSuffix(s, "%"), "s")
	s = strings.TrimPrefix(s, "+")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestTab1RowsMatchPaper(t *testing.T) {
	t.Parallel()
	tab := Tab1()
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	if tab.Rows[0][0] != "Mixtral 8x7B" || tab.Rows[0][3] != "8" {
		t.Errorf("Mixtral row wrong: %v", tab.Rows[0])
	}
}

func TestTab2HasSevenTechnologies(t *testing.T) {
	t.Parallel()
	if got := len(Tab2().Rows); got != 7 {
		t.Errorf("rows = %d, want 7", got)
	}
}

func TestTab4HasFourBandwidths(t *testing.T) {
	t.Parallel()
	if got := len(Tab4().Rows); got != 4 {
		t.Errorf("rows = %d, want 4", got)
	}
}

func TestFig2Shape(t *testing.T) {
	t.Parallel()
	tab := Fig2()
	// Mixtral: TP > EP; LLaMA/Qwen: EP > 80.
	tp := parseF(t, tab.Rows[0][1])
	ep := parseF(t, tab.Rows[0][2])
	if tp <= ep {
		t.Errorf("Mixtral TP %.1f <= EP %.1f", tp, ep)
	}
	for _, r := range tab.Rows[1:] {
		if e := parseF(t, r[2]); e < 80 {
			t.Errorf("%s EP share %.1f < 80", r[0], e)
		}
	}
}

func TestFig3ExpertDominates(t *testing.T) {
	t.Parallel()
	tab, err := Fig3(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		expert := parseF(t, r[4])
		if expert < 100 {
			t.Errorf("mbs %s expert %.0fms < 100ms", r[0], expert)
		}
		frac := parseF(t, r[7])
		if frac <= 0 || frac >= 0.95 {
			t.Errorf("A2A fraction %v implausible", frac)
		}
	}
}

func TestFig4VariabilityDecays(t *testing.T) {
	t.Parallel()
	tab := Fig4(Quick)
	first := parseF(t, tab.Rows[0][1])
	last := parseF(t, tab.Rows[len(tab.Rows)-1][1])
	if last >= first {
		t.Errorf("CV did not decay: %v -> %v", first, last)
	}
	// Sparsity persists at the end.
	if sp := parseF(t, tab.Rows[len(tab.Rows)-1][2]); sp < 0.2 {
		t.Errorf("final sparsity %.2f too low", sp)
	}
}

func TestFig5Locality(t *testing.T) {
	t.Parallel()
	tab, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if loc := parseF(t, tab.Rows[0][1]); loc < 0.9 {
		t.Errorf("locality %.2f < 0.9", loc)
	}
}

func TestFig11MixNetCheaper(t *testing.T) {
	t.Parallel()
	tab, err := Fig11(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		ft := parseF(t, r[2])
		mix := parseF(t, r[6])
		if mix >= ft {
			t.Errorf("%s Gbps %s GPUs: MixNet %.2fM !< fat-tree %.2fM", r[0], r[1], mix, ft)
		}
	}
}

func TestFig19CopilotWins(t *testing.T) {
	t.Parallel()
	tab := Fig19(Quick)
	for _, r := range tab.Rows {
		random, unchanged, copilot := parseF(t, r[1]), parseF(t, r[2]), parseF(t, r[3])
		if copilot <= random || copilot <= unchanged {
			t.Errorf("K=%s: copilot %.3f not best (rand %.3f, unch %.3f)", r[0], copilot, random, unchanged)
		}
	}
}

func TestFig21DelaysUnder70ms(t *testing.T) {
	t.Parallel()
	tab := Fig21()
	for _, r := range tab.Rows {
		if p99 := parseF(t, r[3]); p99 > 70 {
			t.Errorf("pairs %s p99 %.1fms > 70ms", r[0], p99)
		}
	}
}

func TestFig24DACCheapest(t *testing.T) {
	t.Parallel()
	tab, err := Fig24(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		ftFiber, ftDac := parseF(t, r[1]), parseF(t, r[3])
		if ftDac >= ftFiber {
			t.Errorf("DAC not cheaper than fiber: %v vs %v", ftDac, ftFiber)
		}
		mixDac := parseF(t, r[6])
		if mixDac >= ftDac {
			t.Errorf("MixNet DAC %.2f !< fat-tree DAC %.2f", mixDac, ftDac)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	t.Parallel()
	if _, err := Run("nope", Quick); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestRunDispatch(t *testing.T) {
	t.Parallel()
	tab, err := Run("tab2", Quick)
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "tab2" {
		t.Errorf("dispatched wrong table %s", tab.ID)
	}
	if s := tab.String(); !strings.Contains(s, "Polatis") {
		t.Error("String() missing content")
	}
}

func TestAblationNUMAPermute(t *testing.T) {
	t.Parallel()
	tab, err := AblationNUMAPermute()
	if err != nil {
		t.Fatal(err)
	}
	bal := parseF(t, tab.Rows[0][1])
	unbal := parseF(t, tab.Rows[1][1])
	if bal >= unbal {
		t.Errorf("balanced %.1fms !< packed %.1fms", bal, unbal)
	}
}

func TestAblationFluidVsPacketAgree(t *testing.T) {
	t.Parallel()
	tab, err := AblationFluidVsPacket()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if gap := parseF(t, r[3]); gap > 15 {
			t.Errorf("%s: simulators %.1f%% apart", r[0], gap)
		}
	}
}

// TestAblationUniformNotFasterThanGreedy: never reconfiguring away from the
// uniform round-robin circuits must not beat Algorithm 1's greedy circuits.
// The upper edge of the band (the quick suite reads 1.04 on fluid, 1.06 on
// analytic) catches a uniform row that stops carrying the all-to-all.
func TestAblationUniformNotFasterThanGreedy(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("engine experiment")
	}
	tab, err := AblationGreedyVsUniform(Quick)
	if err != nil {
		t.Fatal(err)
	}
	greedy := parseF(t, tab.Rows[0][1])
	uniform := parseF(t, tab.Rows[2][1])
	if r := uniform / greedy; r < 1 || r > 1.25 {
		t.Errorf("uniform %.3fs / greedy %.3fs = %.3f, want within [1, 1.25]", uniform, greedy, r)
	}
}

func TestFig10MixNetComparable(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("engine experiment")
	}
	tab, err := Fig10(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		ratio := parseF(t, r[3])
		if ratio > 1.35 {
			t.Errorf("%s: MixNet/EPS = %.2f, want comparable (Figure 10)", r[0], ratio)
		}
	}
}

func TestFig14OverheadsBounded(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("engine experiment")
	}
	tab, err := Fig14(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		over := parseF(t, r[2])
		if over > 30 {
			t.Errorf("%s %s: overhead %.1f%% too large", r[0], r[1], over)
		}
	}
}

func TestFig28LatencySensitivity(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("engine experiment")
	}
	tab, err := Fig28(Quick)
	if err != nil {
		t.Fatal(err)
	}
	fast := parseF(t, tab.Rows[0][1])
	slow := parseF(t, tab.Rows[len(tab.Rows)-1][1])
	if slow <= fast {
		t.Errorf("1s reconfiguration (%.3fs) not slower than 1us (%.3fs)", slow, fast)
	}
}

func TestFig18NonUniformAcrossBlocks(t *testing.T) {
	t.Parallel()
	tab := Fig18(Quick)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 blocks", len(tab.Rows))
	}
	distinct := map[string]bool{}
	for _, r := range tab.Rows {
		if cv := parseF(t, r[4]); cv <= 0 {
			t.Errorf("block %s: converged distribution uniform (CV %v)", r[0], cv)
		}
		distinct[r[4]] = true
	}
	if len(distinct) < 2 {
		t.Error("token distribution identical across all blocks")
	}
}

func TestFig17A2AHeavierThanMixtral(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("engine experiment")
	}
	tab17, err := Fig17(Quick)
	if err != nil {
		t.Fatal(err)
	}
	tab3, err := Fig3(Quick)
	if err != nil {
		t.Fatal(err)
	}
	mixtralFrac := parseF(t, tab3.Rows[0][7])
	for _, r := range tab17.Rows {
		if frac := parseF(t, r[6]); frac <= mixtralFrac {
			t.Errorf("%s A2A fraction %.2f not above Mixtral's %.2f (Fig 17 shape)",
				r[0], frac, mixtralFrac)
		}
	}
}
