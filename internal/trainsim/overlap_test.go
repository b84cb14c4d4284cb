package trainsim

import (
	"testing"

	"mixnet/internal/commplan"
	"mixnet/internal/netsim"
	"mixnet/internal/ocs"
	"mixnet/internal/topo"
)

// TestOverlapNoneMatchesDefault is the byte-identity guard: Overlap "none"
// must run the historical serial accounting path exactly — the default
// engine drained through the serial reference against "none" drained in
// frontiers — on all four backends (the CI golden-table diff covers the CLI
// surface; this pins the engine).
func TestOverlapNoneMatchesDefault(t *testing.T) {
	backends := []string{"fluid", "packet", "analytic", "analytic-ecmp"}
	if testing.Short() {
		backends = []string{"fluid", "analytic"}
	}
	for _, backend := range backends {
		mk := func(overlap string) *Engine {
			return newEngine(t, topo.FabricMixNet, Options{
				GateSeed: 7, FirstA2A: FirstA2ABlock, Device: ocs.NewFixedDevice(25e-3),
				Config: netsim.Config{Backend: backend}, Overlap: overlap,
			})
		}
		runPair(t, backend+"/none-vs-default", mk(""), mk("none"), 2)
	}
}

func TestOverlapInvalidRejected(t *testing.T) {
	spec := tinySpec(4)
	_, err := New(tinyModel, tinyPlan, topo.BuildFatTree(spec), Options{Overlap: "microbatch"})
	if err == nil {
		t.Fatal("unknown overlap discipline accepted")
	}
}

// runDisciplines runs n iterations under each overlap discipline with
// otherwise identical options and returns the stats, indexed by discipline.
func runDisciplines(t *testing.T, mk func(overlap string) *Engine, n int) map[string][]IterStats {
	t.Helper()
	out := make(map[string][]IterStats)
	for _, ov := range OverlapModes() {
		e := mk(ov)
		stats, err := e.Run(n)
		if err != nil {
			t.Fatalf("overlap %s: %v", ov, err)
		}
		out[ov] = stats
	}
	return out
}

// TestOverlapTightensSlots: the DAG critical path can only shorten a slot
// relative to the serial sum (edges relax ordering, never add work), and
// overlap must leave the slot's composition — A2A, compute, blocked time,
// per-phase layer-0 breakdown — untouched: the same simulated makespans
// feed both accountings.
func TestOverlapTightensSlots(t *testing.T) {
	mk := func(ov string) *Engine {
		return newEngine(t, topo.FabricMixNet, Options{
			GateSeed: 11, FirstA2A: FirstA2ABlock, Device: ocs.NewFixedDevice(25e-3),
			Overlap: ov,
		})
	}
	res := runDisciplines(t, mk, 3)
	for it := range res["none"] {
		none, layer, iter := res["none"][it], res["layer"][it], res["iter"][it]
		for _, o := range []IterStats{layer, iter} {
			if o.A2A != none.A2A || o.Compute != none.Compute || o.Blocked != none.Blocked {
				t.Errorf("iter %d: slot composition diverged:\n  none %+v\n  overlap %+v", it, none, o)
			}
			if o.Layer0 != none.Layer0 {
				t.Errorf("iter %d: layer-0 breakdown diverged: %+v vs %+v", it, o.Layer0, none.Layer0)
			}
			if o.FwdStage > none.FwdStage || o.BwdStage > none.BwdStage {
				t.Errorf("iter %d: overlap slot exceeds serial sum: %+v vs %+v", it, o, none)
			}
			if o.FwdStage <= 0 || o.BwdStage <= 0 {
				t.Errorf("iter %d: degenerate overlap slots %+v", it, o)
			}
		}
		if layer.Time >= none.Time {
			t.Errorf("iter %d: overlap layer did not reduce iteration time: %v >= %v",
				it, layer.Time, none.Time)
		}
		if iter.Time > layer.Time {
			t.Errorf("iter %d: overlap iter slower than layer: %v > %v", it, iter.Time, layer.Time)
		}
		if it > 0 && iter.Reconfigs != none.Reconfigs {
			// Steady state: the prefetched layer-0 reconfiguration replaces
			// the skipped in-iteration one, so counts match from iteration 1.
			t.Errorf("iter %d: reconfig count %d != serial %d", it, iter.Reconfigs, none.Reconfigs)
		}
	}
}

// TestOverlapIterHidesDP: with DP replicas, the cross-iteration window must
// charge only the DP residual the prefetched layer-0 work cannot hide.
func TestOverlapIterHidesDP(t *testing.T) {
	spec := tinySpec(8)
	plan := tinyPlan
	plan.DP = 2
	mk := func(ov string) *Engine {
		e, err := New(tinyModel, plan, topo.BuildFatTree(spec), Options{
			GateSeed: 4, Overlap: ov,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	res := runDisciplines(t, mk, 3)
	for it := range res["none"] {
		layer, iter := res["layer"][it], res["iter"][it]
		if layer.DPTime <= 0 || iter.DPTime != layer.DPTime {
			t.Fatalf("iter %d: DP makespan diverged or missing: layer %v, iter %v",
				it, layer.DPTime, iter.DPTime)
		}
		// Same slots (static fabric, identical makespans) but iter charges
		// at most the DP residual: strictly less total unless nothing hides.
		if iter.FwdStage != layer.FwdStage || iter.BwdStage != layer.BwdStage {
			t.Errorf("iter %d: slot times diverged between layer and iter: %+v vs %+v",
				it, iter, layer)
		}
		if iter.Time >= layer.Time {
			t.Errorf("iter %d: cross-iteration window hid no DP time: %v >= %v",
				it, iter.Time, layer.Time)
		}
	}
}

// TestOverlapIterMatchesSerialOnPacket: the rolling window's frontier drain
// on the packet backend must reproduce the serial reference drain bitwise.
func TestOverlapIterMatchesSerialOnPacket(t *testing.T) {
	mk := func() *Engine {
		return newEngine(t, topo.FabricMixNet, Options{
			GateSeed: 21, FirstA2A: FirstA2ABlock, Device: ocs.NewFixedDevice(25e-3),
			Config: netsim.Config{Backend: "packet"}, Overlap: "iter",
		})
	}
	runPair(t, "overlap-iter-packet", mk(), mk(), 2)
}

// TestOverlapCrossIterationWindow inspects the rolling plan itself: the
// window must contain the next iteration's prefetched steps, fuse them
// with this iteration's first drain, and replay the carried layer-0
// dispatch as a zero-flow echo.
func TestOverlapCrossIterationWindow(t *testing.T) {
	e := newEngine(t, topo.FabricMixNet, Options{
		GateSeed: 5, FirstA2A: FirstA2ABlock, Device: ocs.NewFixedDevice(25e-3),
		Overlap: "iter",
	})
	if _, err := e.RunIteration(); err != nil {
		t.Fatal(err)
	}
	p := e.CommPlan()
	liMax := 2 // tiny: 4 blocks over PP=2
	s := p.Stats()
	// Forward dispatches + backward echoes + the cross-iteration prefix.
	if got := s.ByKind[commplan.KindA2A1]; got != 2*liMax+1 {
		t.Errorf("A2A1 steps %d, want %d (forward + backward echo + prefix)", got, 2*liMax+1)
	}
	if s.ByKind[commplan.KindCompute] == 0 {
		t.Error("no compute steps in the overlap plan")
	}
	// First drain fuses layer-0's dispatch with the prefetched next-iteration
	// dispatch: two adjacent iterations in one round.
	widths := p.BatchWidths()
	if len(widths) == 0 || widths[0] < 2 {
		t.Errorf("batch widths %v, want a first drain fusing >= 2 steps", widths)
	}
	if s.FrontierMax < 2 {
		t.Errorf("FrontierMax %d, want >= 2", s.FrontierMax)
	}

	// Second iteration: the carried layer-0 dispatch replays as a zero-flow
	// echo with the measured makespan.
	carried := e.carry
	if !carried.valid || carried.a2a1 <= 0 {
		t.Fatalf("no carry after the first window: %+v", carried)
	}
	if _, err := e.RunIteration(); err != nil {
		t.Fatal(err)
	}
	l0 := e.cplan.Step(e.recs[0].a2a1)
	if l0.Phases != nil {
		t.Error("carried layer-0 dispatch was recompiled instead of echoed")
	}
	if l0.Makespan != carried.a2a1 {
		t.Errorf("carried echo makespan %v, want measured %v", l0.Makespan, carried.a2a1)
	}
}

// TestOverlapModesAndFabrics smokes the remaining mode surface: copilot and
// reuse first-A2A handling under the cross-iteration window, and a static
// fabric without a controller.
func TestOverlapModesAndFabrics(t *testing.T) {
	cases := []struct {
		name string
		mk   func(ov string) *Engine
	}{
		{"copilot", func(ov string) *Engine {
			return newEngine(t, topo.FabricMixNet, Options{
				GateSeed: 13, FirstA2A: FirstA2ACopilot, Device: ocs.NewFixedDevice(25e-3),
				Overlap: ov,
			})
		}},
		{"reuse", func(ov string) *Engine {
			return newEngine(t, topo.FabricMixNet, Options{
				GateSeed: 13, FirstA2A: FirstA2AReuse, Device: ocs.NewFixedDevice(25e-3),
				Overlap: ov,
			})
		}},
		{"fat-tree", func(ov string) *Engine {
			return newEngine(t, topo.FabricFatTree, Options{
				GateSeed: 13, Overlap: ov,
			})
		}},
	}
	for _, tc := range cases {
		res := runDisciplines(t, tc.mk, 3)
		for it := range res["none"] {
			none := res["none"][it]
			for _, ov := range []string{"layer", "iter"} {
				o := res[ov][it]
				if o.Time <= 0 || o.Time > none.Time {
					t.Errorf("%s iter %d: overlap %s time %v vs serial %v", tc.name, it, ov, o.Time, none.Time)
				}
				if o.A2A != none.A2A || o.Compute != none.Compute {
					t.Errorf("%s iter %d: overlap %s changed slot composition", tc.name, it, ov)
				}
			}
		}
	}
}
