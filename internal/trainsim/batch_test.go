package trainsim

import (
	"testing"

	"mixnet/internal/commplan"
	"mixnet/internal/netsim"
	"mixnet/internal/ocs"
	"mixnet/internal/topo"
)

// serialIteration is the engine's reference iteration: passes 1 and 3 run
// as usual, but the plan's steps are priced one at a time in ID order — a
// topological order, since AddDep only points backward — each simulated
// step by one Makespan call on the engine's own backend, zero-flow steps by
// their Delay.
func serialIteration(e *Engine) (IterStats, error) {
	if err := e.BeginIteration(); err != nil {
		return IterStats{}, err
	}
	p := e.CommPlan()
	for i := range p.Steps() {
		s := p.Step(i)
		if s.Phases == nil {
			s.Makespan = s.Delay
			continue
		}
		ms, err := e.backend.Makespan(e.Cluster.G, s.Phases)
		if err != nil {
			return IterStats{}, err
		}
		s.Makespan = ms
	}
	return e.FinishIteration()
}

// runPair runs two engines of identical seed/model — serial through
// serialIteration, batched through RunIteration — and asserts every
// IterStats field matches exactly across n iterations.
func runPair(t *testing.T, desc string, serial, batched *Engine, n int) {
	t.Helper()
	for it := 0; it < n; it++ {
		sa, err := serialIteration(serial)
		if err != nil {
			t.Fatalf("%s: serial iter %d: %v", desc, it, err)
		}
		sb, err := batched.RunIteration()
		if err != nil {
			t.Fatalf("%s: batched iter %d: %v", desc, it, err)
		}
		if sa != sb {
			t.Errorf("%s: iter %d diverged:\n  serial  %+v\n  batched %+v", desc, it, sa, sb)
		}
	}
}

// TestBatchedIterationMatchesSerial is the engine-level equivalence guard:
// frontier-batched plan execution must reproduce the serial reference's
// iteration stats exactly on every backend — on the reconfiguring MixNet
// fabric (circuits detach mid-iteration, so deferred steps exercise frozen
// links) in block and copilot mode.
func TestBatchedIterationMatchesSerial(t *testing.T) {
	modes := []FirstA2AMode{FirstA2ABlock, FirstA2ACopilot}
	if testing.Short() {
		// -short (the -race CI job) keeps one mode; the full sweep runs in
		// the regular test job.
		modes = modes[:1]
	}
	for _, mode := range modes {
		mk := func(backend string) *Engine {
			return newEngine(t, topo.FabricMixNet, Options{
				GateSeed: 21, FirstA2A: mode, Device: ocs.NewFixedDevice(25e-3),
				Config: netsim.Config{Backend: backend},
			})
		}
		for _, backend := range netsim.Names() {
			runPair(t, backend+"/"+mode.String(), mk(backend), mk(backend), 2)
		}
	}
}

// TestBatchedDPAllReduce covers the DP step in the plan: a DP=2 fat-tree
// run must match serially and report a positive DP time.
func TestBatchedDPAllReduce(t *testing.T) {
	spec := tinySpec(8)
	plan := tinyPlan
	plan.DP = 2
	mk := func() *Engine {
		e, err := New(tinyModel, plan, topo.BuildFatTree(spec), Options{
			GateSeed: 4, Config: netsim.Config{Backend: "packet"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	a, b := mk(), mk()
	runPair(t, "dp", a, b, 2)
	if s := b.CommPlan(); s.Makespans(commplan.KindDP) <= 0 {
		t.Error("DP step missing from the batched plan")
	}
}

// TestBatchedFrontierWidth pins the concurrency structure: on MixNet every
// layer's A2A1 and A2A2 are mutually independent once their barriers
// resolve, so Execute submits them as one frontier.
func TestBatchedFrontierWidth(t *testing.T) {
	e := newEngine(t, topo.FabricMixNet, Options{
		GateSeed: 3, FirstA2A: FirstA2ABlock, Device: ocs.NewFixedDevice(25e-3),
	})
	if _, err := e.RunIteration(); err != nil {
		t.Fatal(err)
	}
	p := e.CommPlan()
	var a2aSteps int
	for _, s := range p.Steps() {
		if s.Kind == commplan.KindA2A1 || s.Kind == commplan.KindA2A2 {
			a2aSteps++
		}
	}
	widths := p.BatchWidths()
	if len(widths) != 1 || widths[0] != a2aSteps {
		t.Errorf("batch widths %v, want one frontier of %d A2A steps", widths, a2aSteps)
	}
	if a2aSteps < 4 {
		t.Errorf("only %d A2A steps; the tiny plan should have 2 per layer", a2aSteps)
	}
}
