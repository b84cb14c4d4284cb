package experiments

import "testing"

// TestLargeScaleEcmpShape runs the -scale large quantification at toy
// sizing (the 8k-256k GPU clusters belong to mixnet-bench, not CI). Each
// scale yields an eager and a folded row whose makespans LargeScaleEcmp
// itself verifies bitwise identical; here we check the row/table shape, the
// bound ordering (fractional spreading only removes collision load on the
// symmetric fat-tree) and that the instrumentation fields are populated.
func TestLargeScaleEcmpShape(t *testing.T) {
	t.Parallel()
	tab, rows, err := LargeScaleEcmp([]int{256, 512}, 8, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || len(tab.Rows) != 4 {
		t.Fatalf("%d json rows / %d table rows, want 4/4 (eager+folded per scale)", len(rows), len(tab.Rows))
	}
	for i, r := range rows {
		if want := i%2 == 1; r.Folded != want {
			t.Errorf("row %d: Folded=%v, want %v", i, r.Folded, want)
		}
		if r.Flows != 8*7 {
			t.Errorf("%d GPUs: %d flows, want 56", r.GPUs, r.Flows)
		}
		if r.FluidSec <= 0 || r.AnalyticSec <= 0 || r.EcmpSec <= 0 {
			t.Errorf("%d GPUs: non-positive makespan %+v", r.GPUs, r)
		}
		if r.EcmpSec > r.AnalyticSec*(1+1e-9) {
			t.Errorf("%d GPUs: ecmp bound %.6f above sampled-path bound %.6f", r.GPUs, r.EcmpSec, r.AnalyticSec)
		}
		if r.AnalyticSec > r.FluidSec*(1+1e-9) {
			t.Errorf("%d GPUs: analytic bound %.6f above fluid %.6f", r.GPUs, r.AnalyticSec, r.FluidSec)
		}
		if r.FoldFactor < 1 {
			t.Errorf("%d GPUs folded=%v: fold factor %.2f < 1", r.GPUs, r.Folded, r.FoldFactor)
		}
		if r.BuildSec <= 0 || r.CompileSec <= 0 || r.WallSec <= 0 {
			t.Errorf("%d GPUs: missing timings %+v", r.GPUs, r)
		}
		if r.RecompileSec <= 0 {
			t.Errorf("%d GPUs: no recompile timing", r.GPUs)
		}
	}
	if _, _, err := LargeScaleEcmp([]int{8}, 4, 1<<20); err == nil {
		t.Error("degenerate scale accepted")
	}
}
