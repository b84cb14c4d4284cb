package trainsim

import (
	"testing"

	"mixnet/internal/dag"
	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/ocs"
	"mixnet/internal/topo"
)

// tinyModel is a scaled-down MoE for fast engine tests: 4 blocks, 8 experts,
// sized so expert computation (~60 ms) still dominates the 25 ms OCS
// reconfiguration window as in Figure 3.
var tinyModel = moe.Model{
	Name: "tiny", Blocks: 4, Hidden: 2048, FFN: 8192,
	Experts: 8, TopK: 2, Heads: 16, ParamsB: 0.5, BytesElem: 2,
}

// tinyPlan spreads one EP group over two 4-GPU servers.
var tinyPlan = moe.TrainPlan{EP: 8, TP: 1, PP: 2, DP: 1, SeqLen: 4096, MicroBatch: 4, NumMicroBatch: 4}

func tinySpec(servers int) topo.Spec {
	s := topo.DefaultSpec(servers, 100*topo.Gbps)
	s.GPUsPerServer = 4
	s.NICsPerServer = 4
	s.EPSNICs = 1
	s.OCSNICs = 3
	s.RegionServers = 2
	return s
}

func newEngine(t *testing.T, kind topo.FabricKind, opts Options) *Engine {
	t.Helper()
	c, err := topo.Build(kind, tinySpec(4))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tinyModel, tinyPlan, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestEngineFatTreeIteration(t *testing.T) {
	e := newEngine(t, topo.FabricFatTree, Options{GateSeed: 1})
	s, err := e.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if s.Time <= 0 || s.FwdStage <= 0 || s.BwdStage <= s.FwdStage/2 {
		t.Errorf("implausible stats: %+v", s)
	}
	if s.A2A <= 0 {
		t.Error("no all-to-all time recorded")
	}
	if s.Reconfigs != 0 {
		t.Error("static fabric performed reconfigurations")
	}
	if s.Layer0.Expert <= 0 || s.Layer0.A2A1 <= 0 {
		t.Errorf("layer-0 breakdown incomplete: %+v", s.Layer0)
	}
	frac := s.A2AFraction()
	if frac <= 0 || frac >= 0.95 {
		t.Errorf("A2A fraction %.2f implausible", frac)
	}
}

func TestEngineMixNetBlockMode(t *testing.T) {
	e := newEngine(t, topo.FabricMixNet, Options{
		GateSeed: 1, FirstA2A: FirstA2ABlock, Device: ocs.NewFixedDevice(25e-3),
	})
	s, err := e.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	// Block mode: 25 ms blocks per layer's first A2A appear in stage time.
	if s.Blocked < 2*25e-3*0.9 { // 2 layers in stage 0
		t.Errorf("Blocked = %v, want >= ~50ms (2 layers x 25ms)", s.Blocked)
	}
	// Two reconfigurations per layer (A2A1 + A2A2).
	if s.Reconfigs != 2*2 {
		t.Errorf("Reconfigs = %d, want 4", s.Reconfigs)
	}
}

// TestEngineMixNetWithoutDeviceNeverReconfigures: a nil Device means no
// runtime reconfiguration on MixNet too — the engine builds no controller
// and keeps the circuits the cluster was built with, in every first-A2A
// mode.
func TestEngineMixNetWithoutDeviceNeverReconfigures(t *testing.T) {
	for _, mode := range []FirstA2AMode{FirstA2ABlock, FirstA2AReuse, FirstA2ACopilot} {
		e := newEngine(t, topo.FabricMixNet, Options{GateSeed: 1, FirstA2A: mode})
		if e.Controller() != nil {
			t.Errorf("%v: engine without a Device built an OCS controller", mode)
		}
		stats, err := e.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range stats {
			if s.Reconfigs != 0 || s.Blocked != 0 {
				t.Errorf("%v iter %d: %d reconfigurations, %v s blocked; want none",
					mode, s.Iter, s.Reconfigs, s.Blocked)
			}
		}
	}
}

func TestParseFirstA2A(t *testing.T) {
	for _, mode := range []FirstA2AMode{FirstA2ABlock, FirstA2AReuse, FirstA2ACopilot} {
		if got, err := ParseFirstA2A(mode.String()); err != nil || got != mode {
			t.Errorf("ParseFirstA2A(%q) = %v, %v", mode.String(), got, err)
		}
	}
	if got, err := ParseFirstA2A(""); err != nil || got != FirstA2ABlock {
		t.Errorf(`ParseFirstA2A("") = %v, %v; want block`, got, err)
	}
	if _, err := ParseFirstA2A("bogus"); err == nil {
		t.Error("unknown first-A2A mode accepted")
	}
}

func TestEngineMixNetReuseAvoidsBlocking(t *testing.T) {
	block := newEngine(t, topo.FabricMixNet, Options{
		GateSeed: 1, FirstA2A: FirstA2ABlock, Device: ocs.NewFixedDevice(25e-3),
	})
	reuse := newEngine(t, topo.FabricMixNet, Options{
		GateSeed: 1, FirstA2A: FirstA2AReuse, Device: ocs.NewFixedDevice(25e-3),
	})
	sb, err := block.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := reuse.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Blocked >= sb.Blocked {
		t.Errorf("reuse blocked %v >= block-mode %v", sr.Blocked, sb.Blocked)
	}
	if sr.Reconfigs >= sb.Reconfigs {
		t.Errorf("reuse reconfigs %d >= block-mode %d", sr.Reconfigs, sb.Reconfigs)
	}
}

func TestEngineCopilotHidesReconfiguration(t *testing.T) {
	e := newEngine(t, topo.FabricMixNet, Options{
		GateSeed: 2, FirstA2A: FirstA2ACopilot, Device: ocs.NewFixedDevice(5e-3),
	})
	stats, err := e.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		if s.Blocked > 1e-9 {
			t.Errorf("iter %d: Copilot blocked %v, want hidden reconfiguration", s.Iter, s.Blocked)
		}
		if s.Reconfigs == 0 {
			t.Errorf("iter %d: Copilot performed no reconfigurations", s.Iter)
		}
	}
}

func TestEngineMixNetCompetitiveWithFatTree(t *testing.T) {
	// Figure 12's shape at miniature scale: MixNet with hidden
	// reconfiguration stays within ~25% of the non-blocking fat-tree and
	// beats the 3:1 over-subscribed tree.
	run := func(kind topo.FabricKind, opts Options) float64 {
		e := newEngine(t, kind, opts)
		stats, err := e.Run(3)
		if err != nil {
			t.Fatal(err)
		}
		return MeanIterTime(stats)
	}
	ft := run(topo.FabricFatTree, Options{GateSeed: 5})
	over := run(topo.FabricOverSubFatTree, Options{GateSeed: 5})
	mix := run(topo.FabricMixNet, Options{GateSeed: 5, FirstA2A: FirstA2ACopilot, Device: ocs.NewFixedDevice(25e-3)})
	if mix > ft*1.25 {
		t.Errorf("MixNet %.3fs not comparable to fat-tree %.3fs", mix, ft)
	}
	if over < ft {
		t.Errorf("oversubscribed tree %.3fs faster than full tree %.3fs", over, ft)
	}
}

func TestEngineTopoOptStaticFabric(t *testing.T) {
	e := newEngine(t, topo.FabricTopoOpt, Options{GateSeed: 3})
	s, err := e.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if s.Reconfigs != 0 {
		t.Error("TopoOpt must not reconfigure at runtime")
	}
	if s.Time <= 0 {
		t.Error("TopoOpt iteration time zero")
	}
}

func TestEngineDPAllReduce(t *testing.T) {
	spec := tinySpec(8) // 2 replicas of 4 servers
	c := topo.BuildFatTree(spec)
	plan := tinyPlan
	plan.DP = 2
	e, err := New(tinyModel, plan, c, Options{GateSeed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := e.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if s.DPTime <= 0 {
		t.Error("DP=2 produced no gradient all-reduce time")
	}
}

func TestEngineRegionMismatchRejected(t *testing.T) {
	spec := tinySpec(4)
	spec.RegionServers = 4 // EP group spans 2 servers, regions of 4: mismatch
	c := topo.BuildMixNet(spec)
	if _, err := New(tinyModel, tinyPlan, c, Options{}); err == nil {
		t.Error("expected region/EP-group mismatch error")
	}
}

func TestEngineInvalidCalibration(t *testing.T) {
	spec := tinySpec(4)
	c := topo.BuildFatTree(spec)
	_, err := New(tinyModel, tinyPlan, c, Options{Calib: dag.Calibration{PeakFLOPS: 1, Efficiency: 5, BackwardFactor: 2}})
	if err == nil {
		t.Error("expected calibration error")
	}
}

func TestEngineDeterministicBySeed(t *testing.T) {
	a := newEngine(t, topo.FabricMixNet, Options{GateSeed: 9, FirstA2A: FirstA2ABlock, Device: ocs.NewFixedDevice(25e-3)})
	b := newEngine(t, topo.FabricMixNet, Options{GateSeed: 9, FirstA2A: FirstA2ABlock, Device: ocs.NewFixedDevice(25e-3)})
	sa, err := a.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if sa.Time != sb.Time {
		t.Errorf("same seed, different times: %v vs %v", sa.Time, sb.Time)
	}
}

func TestMeanIterTime(t *testing.T) {
	stats := []IterStats{{Time: 100}, {Time: 2}, {Time: 4}}
	if got := MeanIterTime(stats); got != 3 {
		t.Errorf("MeanIterTime = %v, want 3 (warm-up skipped)", got)
	}
	if got := MeanIterTime(stats[:1]); got != 100 {
		t.Errorf("single-iteration mean = %v, want 100", got)
	}
	if got := MeanIterTime(nil); got != 0 {
		t.Errorf("empty mean = %v, want 0", got)
	}
}

func TestEngineBandwidthSensitivity(t *testing.T) {
	// Higher link bandwidth must not slow the iteration down.
	mk := func(bps float64) float64 {
		spec := tinySpec(4)
		spec.NICBps = bps
		c := topo.BuildFatTree(spec)
		e, err := New(tinyModel, tinyPlan, c, Options{GateSeed: 6})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.Run(2)
		if err != nil {
			t.Fatal(err)
		}
		return MeanIterTime(stats)
	}
	slow := mk(100 * topo.Gbps)
	fast := mk(400 * topo.Gbps)
	if fast > slow {
		t.Errorf("400G iteration %.3fs slower than 100G %.3fs", fast, slow)
	}
}

// replaySource yields a fixed iteration forever; an empty one tests the
// source guard.
type replaySource struct{ it *moe.Iteration }

func (r replaySource) Next() *moe.Iteration { return r.it }

func TestEngineCustomSource(t *testing.T) {
	spec := tinySpec(4)
	c := topo.BuildFatTree(spec)
	// Record one gate iteration, then replay it through a fresh engine.
	gs := moe.NewGateSim(tinyModel, tinyPlan, moe.DefaultGateConfig(2))
	recorded := gs.Next()
	e, err := New(tinyModel, tinyPlan, c, Options{Source: replaySource{recorded}})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := e.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	// ECMP flow keys are salted per flow, so path choices (and thus times)
	// may differ marginally between replays of the same demand.
	if diff := (s1.Time - s2.Time) / s1.Time; diff > 0.05 || diff < -0.05 {
		t.Errorf("replayed identical iterations differ by %.1f%%: %v vs %v",
			diff*100, s1.Time, s2.Time)
	}
}

func TestEngineRejectsShortSource(t *testing.T) {
	spec := tinySpec(4)
	c := topo.BuildFatTree(spec)
	e, err := New(tinyModel, tinyPlan, c, Options{Source: replaySource{nil}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.RunIteration(); err == nil {
		t.Error("nil iteration accepted")
	}
}

func TestEngineBackendsAgree(t *testing.T) {
	// The same tiny MixNet run at all three fidelities: packet must land
	// within 15% of fluid, and the analytic lower bound must not exceed it.
	times := map[string]float64{}
	for _, backend := range []string{"fluid", "packet", "analytic"} {
		e := newEngine(t, topo.FabricMixNet, Options{
			GateSeed: 8, FirstA2A: FirstA2ABlock, Device: ocs.NewFixedDevice(25e-3),
			Config: netsim.Config{Backend: backend},
		})
		stats, err := e.Run(2)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		times[backend] = MeanIterTime(stats)
		if times[backend] <= 0 {
			t.Fatalf("%s: non-positive iteration time", backend)
		}
	}
	fluid := times["fluid"]
	if gap := (times["packet"] - fluid) / fluid; gap > 0.15 || gap < -0.15 {
		t.Errorf("packet %.4fs vs fluid %.4fs: gap %.1f%% exceeds 15%%",
			times["packet"], fluid, gap*100)
	}
	if times["analytic"] > fluid*(1+1e-9) {
		t.Errorf("analytic %.4fs above fluid %.4fs", times["analytic"], fluid)
	}
}

func TestEngineUnknownBackendRejected(t *testing.T) {
	spec := tinySpec(4)
	c := topo.BuildFatTree(spec)
	if _, err := New(tinyModel, tinyPlan, c, Options{Config: netsim.Config{Backend: "quantum"}}); err == nil {
		t.Error("unknown backend accepted")
	}
}

// TestRunRejectsNegativeIterations: a negative count is an error, not a
// makeslice panic.
func TestRunRejectsNegativeIterations(t *testing.T) {
	e := newEngine(t, topo.FabricFatTree, Options{GateSeed: 1})
	if stats, err := e.Run(-1); err == nil {
		t.Fatalf("Run(-1) = %v, want an error", stats)
	}
}

func TestEngineCopilotScratchReuse(t *testing.T) {
	// Copilot mode must keep working across iterations with the engine-owned
	// predicted-demand scratch (results stay deterministic per seed).
	a := newEngine(t, topo.FabricMixNet, Options{
		GateSeed: 12, FirstA2A: FirstA2ACopilot, Device: ocs.NewFixedDevice(5e-3),
	})
	b := newEngine(t, topo.FabricMixNet, Options{
		GateSeed: 12, FirstA2A: FirstA2ACopilot, Device: ocs.NewFixedDevice(5e-3),
	})
	sa, err := a.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Run(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range sa {
		if sa[i].Time != sb[i].Time {
			t.Errorf("iter %d: scratch reuse broke determinism: %v vs %v", i, sa[i].Time, sb[i].Time)
		}
	}
}
