package commplan

import (
	"testing"

	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// countingBackend wraps a backend and counts its Makespan calls, so tests
// can prove zero-flow steps never reach the backend and every simulated
// step is priced by exactly one call.
type countingBackend struct {
	netsim.Backend
	steps int
}

func (c *countingBackend) Makespan(g *topo.Graph, p netsim.Phases) (float64, error) {
	c.steps++
	return c.Backend.Makespan(g, p)
}

// buildOverlapPlan assembles an overlap-shaped window over nLayers layers:
// per layer barrier -> compute(attn) -> a2a1 -> compute(expert) -> barrier
// -> a2a2 -> compute(addnorm), with the next layer's work gated by the
// expert compute, then a backward chain of zero-flow echoes and a
// dependency-free cross-iteration prefix (compute + barrier + a2a). Layer
// li uses steps[2li] and steps[2li+1], the prefix the step after them (it
// shares a frontier with layer 0's dispatch, and steps of one batch must
// not share Flow pointers); it returns the forward boundary and the
// echo/prefix IDs for patching.
func buildOverlapPlan(p *Plan, steps []netsim.Phases, echoBuf []int) (bwdLo int, echoes []int, prefixA int) {
	p.Reset()
	echoes = echoBuf[:0]
	nLayers := len(steps) / 2
	prevEF := -1
	for li := 0; li < nLayers; li++ {
		b1 := p.Add(KindBarrier, li, nil, 1e-3)
		if prevEF >= 0 {
			p.AddDep(b1, prevEF)
		}
		cf := p.Add(KindCompute, li, nil, 5e-3)
		if prevEF >= 0 {
			p.AddDep(cf, prevEF)
		}
		a1 := p.Add(KindA2A1, li, steps[2*li], 0)
		p.AddDep(a1, b1)
		p.AddDep(a1, cf)
		ef := p.Add(KindCompute, li, nil, 20e-3)
		p.AddDep(ef, a1)
		b2 := p.Add(KindBarrier, li, nil, 0)
		p.AddDep(b2, ef)
		a2 := p.Add(KindA2A2, li, steps[2*li+1], 0)
		p.AddDep(a2, b2)
		nf := p.Add(KindCompute, li, nil, 1e-4)
		p.AddDep(nf, a2)
		prevEF = ef
	}
	bwdLo = p.Len()
	prev := -1
	for li := nLayers - 1; li >= 0; li-- {
		e2 := p.Add(KindA2A2, li, nil, 0)
		if prev >= 0 {
			p.AddDep(e2, prev)
		}
		be := p.Add(KindCompute, li, nil, 40e-3)
		p.AddDep(be, e2)
		e1 := p.Add(KindA2A1, li, nil, 0)
		p.AddDep(e1, be)
		bc := p.Add(KindCompute, li, nil, 10e-3)
		p.AddDep(bc, be)
		echoes = append(echoes, e1, e2)
		prev = bc
	}
	// Cross-iteration prefix: independent of everything above, so its A2A
	// joins the first drain.
	pc := p.Add(KindCompute, 0, nil, 5e-3)
	pb := p.Add(KindBarrier, 0, nil, 1e-3)
	pa := p.Add(KindA2A1, 0, steps[2*nLayers], 0)
	p.AddDep(pa, pc)
	p.AddDep(pa, pb)
	return bwdLo, echoes, pa
}

// TestComputeStepsPricedWithoutBackendCalls: zero-flow compute steps must
// resolve to their Delay inside the frontier pass — never submitted to the
// backend — while comm steps separated only by zero-flow work still fuse,
// including the cross-iteration prefix A2A in the first drain.
func TestComputeStepsPricedWithoutBackendCalls(t *testing.T) {
	c, steps := testWorkload(t, 7)
	inner, err := netsim.New(netsim.Config{Backend: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	b := &countingBackend{Backend: inner}
	p := New()
	buildOverlapPlan(p, steps, nil)
	if err := p.Execute(c.G, b); err != nil {
		t.Fatal(err)
	}
	var comm, zero int
	for _, s := range p.Steps() {
		if s.Phases == nil {
			zero++
			if s.Makespan != s.Delay {
				t.Errorf("zero-flow step %d (%v) makespan %v, want its delay %v",
					s.ID, s.Kind, s.Makespan, s.Delay)
			}
		} else {
			comm++
		}
	}
	if zero == 0 {
		t.Fatal("plan has no zero-flow steps")
	}
	if b.steps != comm {
		t.Errorf("backend saw %d steps, want exactly the %d comm steps", b.steps, comm)
	}
	// First drain: layer 0's dispatch fuses with the cross-iteration prefix
	// A2A (both released by zero-flow steps in the same pass).
	widths := p.BatchWidths()
	if len(widths) == 0 || widths[0] != 2 {
		t.Errorf("batch widths %v, want the first drain to fuse 2 steps from adjacent iterations", widths)
	}
	priced := 0
	for _, w := range widths {
		priced += w
	}
	if priced != b.steps {
		t.Errorf("rounds priced %d steps (widths %v), backend saw %d Makespan calls", priced, widths, b.steps)
	}
}

// TestCriticalPathChainEqualsSum pins the closed-form equivalence: on a
// purely serial chain the DAG makespan must equal the left-to-right sum of
// the step makespans bitwise — this is why -overlap none accounting and a
// fully chained plan agree exactly.
func TestCriticalPathChainEqualsSum(t *testing.T) {
	p := New()
	delays := []float64{3e-3, 1.7e-5, 0.12, 9.3e-4, 2.1e-2, 5e-6}
	var sum float64
	prev := -1
	for i, d := range delays {
		id := p.Add(KindCompute, i, nil, d)
		if prev >= 0 {
			p.AddDep(id, prev)
		}
		prev = id
		sum += d
	}
	// Zero-flow-only plan: Execute needs no backend.
	if err := p.Execute(nil, nil); err != nil {
		t.Fatal(err)
	}
	if cp := p.CriticalPath(); cp != sum {
		t.Errorf("chain critical path %v != serial sum %v", cp, sum)
	}
}

// TestCriticalPathDiamond: parallel branches contribute their max, plus any
// hidden side branch is ignored.
func TestCriticalPathDiamond(t *testing.T) {
	p := New()
	src := p.Add(KindCompute, 0, nil, 1)
	long := p.Add(KindCompute, 0, nil, 5)
	p.AddDep(long, src)
	short := p.Add(KindCompute, 0, nil, 2)
	p.AddDep(short, src)
	sink := p.Add(KindCompute, 0, nil, 1)
	p.AddDep(sink, long)
	p.AddDep(sink, short)
	if err := p.Execute(nil, nil); err != nil {
		t.Fatal(err)
	}
	if cp := p.CriticalPath(); cp != 7 {
		t.Errorf("diamond critical path %v, want 7 (1+5+1)", cp)
	}
}

// TestMakespanWindowIgnoresCrossWindowDeps: dependency edges into an
// earlier window are treated as satisfied at time zero, so slot windows of
// a rolling plan price independently.
func TestMakespanWindowIgnoresCrossWindowDeps(t *testing.T) {
	p := New()
	a := p.Add(KindCompute, 0, nil, 10)
	b := p.Add(KindCompute, 0, nil, 2)
	p.AddDep(b, a)
	c := p.Add(KindCompute, 0, nil, 3)
	p.AddDep(c, b)
	if err := p.Execute(nil, nil); err != nil {
		t.Fatal(err)
	}
	if w := p.MakespanWindow(b, p.Len()); w != 5 {
		t.Errorf("window [b, end) = %v, want 5 (dep on a ignored)", w)
	}
	if w := p.MakespanWindow(0, p.Len()); w != 15 {
		t.Errorf("full window = %v, want 15", w)
	}
	if w := p.MakespanWindow(3, 3); w != 0 {
		t.Errorf("empty window = %v, want 0", w)
	}
}

// TestFrontierAndKindStats: Stats reports per-kind step counts of the
// current plan and cumulative frontier widths across Execute calls.
func TestFrontierAndKindStats(t *testing.T) {
	c, steps := testWorkload(t, 7)
	b, err := netsim.New(netsim.Config{Backend: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	buildOverlapPlan(p, steps, nil)
	if err := p.Execute(c.G, b); err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	nLayers := len(steps) / 2
	if got := s.ByKind[KindCompute]; got != 3*nLayers+2*nLayers+1 {
		t.Errorf("compute steps %d, want %d", got, 3*nLayers+2*nLayers+1)
	}
	if got := s.ByKind[KindA2A1]; got != 2*nLayers+1 {
		t.Errorf("a2a1 steps %d, want %d (forward + backward echoes + prefix)", got, 2*nLayers+1)
	}
	if s.FrontierMax < 2 {
		t.Errorf("FrontierMax %d, want >= 2 (prefix fuses with layer 0)", s.FrontierMax)
	}
	if s.FrontierMean <= 0 || s.FrontierMean > float64(s.FrontierMax) {
		t.Errorf("FrontierMean %v outside (0, %d]", s.FrontierMean, s.FrontierMax)
	}
	sum := 0
	for _, k := range s.ByKind {
		sum += k
	}
	if sum != s.Steps {
		t.Errorf("per-kind counts sum to %d, want Steps=%d", sum, s.Steps)
	}
}

// TestOverlapWindowAllocFree pins the rolling window's 0-alloc steady
// state: rebuilding the overlap-shaped plan (compute steps, backward
// echoes, cross-iteration prefix), executing it, patching the echoes and
// reading both slot windows allocates nothing once the arenas are warm.
func TestOverlapWindowAllocFree(t *testing.T) {
	c, steps := testWorkload(t, 7)
	b, err := netsim.New(netsim.Config{Backend: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	var sink float64
	var echoBuf []int
	run := func() {
		bwdLo, echoes, prefixA := buildOverlapPlan(p, steps, echoBuf)
		echoBuf = echoes
		if err := p.Execute(c.G, b); err != nil {
			t.Fatal(err)
		}
		for _, id := range echoes {
			p.Step(id).Makespan = p.Step(prefixA).Makespan
		}
		sink = p.MakespanWindow(0, bwdLo) + p.MakespanWindow(bwdLo, p.Len())
	}
	run() // warm the arenas
	if allocs := testing.AllocsPerRun(50, run); allocs > 0 {
		t.Errorf("steady-state overlap window allocates %.1f/op, want 0", allocs)
	}
	if sink <= 0 {
		t.Error("no makespan measured")
	}
}
