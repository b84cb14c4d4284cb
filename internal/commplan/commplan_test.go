package commplan

import (
	"testing"

	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// testWorkload routes a few flows over a small fat-tree and splits them
// into nSteps single-phase steps.
func testWorkload(t *testing.T, nSteps int) (*topo.Cluster, []netsim.Phases) {
	t.Helper()
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	r := topo.NewBFSRouter(c.G)
	steps := make([]netsim.Phases, nSteps)
	id := 0
	for s := range steps {
		var fs []*netsim.Flow
		for i := 0; i < 4; i++ {
			j := (i + 1 + s%3) % 4
			if i == j {
				continue
			}
			rt, err := r.Route(c.GPU(i, 0), c.GPU(j, 0), uint64(id))
			if err != nil {
				t.Fatal(err)
			}
			fs = append(fs, &netsim.Flow{ID: id, Path: rt, Bytes: float64(1+s) * 1e6})
			id++
		}
		steps[s] = netsim.Phases{fs}
	}
	return c, steps
}

// buildPlan assembles the canonical iteration shape: per step a barrier
// gating one simulated step, plus one dependency-free tail step.
func buildPlan(p *Plan, steps []netsim.Phases, delay float64) {
	p.Reset()
	for i, ph := range steps[:len(steps)-1] {
		b := p.Add(KindBarrier, i, nil, delay)
		s := p.Add(KindA2A1, i, ph, 0)
		p.AddDep(s, b)
	}
	p.Add(KindDP, -1, steps[len(steps)-1], 0)
}

// executeSerial is the reference executor: steps in ID order — a
// topological order, since AddDep only points backward — each simulated
// step priced alone by one Makespan call, zero-flow steps by their Delay.
func executeSerial(t *testing.T, p *Plan, g *topo.Graph, b netsim.Backend) {
	t.Helper()
	for i := range p.Steps() {
		s := p.Step(i)
		if s.Phases == nil {
			s.Makespan = s.Delay
			continue
		}
		ms, err := b.Makespan(g, s.Phases)
		if err != nil {
			t.Fatalf("serial step %d: %v", i, err)
		}
		s.Makespan = ms
	}
}

func TestExecuteBatchedMatchesSerial(t *testing.T) {
	c, steps := testWorkload(t, 5)
	for _, backend := range netsim.Names() {
		serial, err := netsim.New(netsim.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		batched, err := netsim.New(netsim.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		ps, pb := New(), New()
		buildPlan(ps, steps, 1e-3)
		executeSerial(t, ps, c.G, serial)
		buildPlan(pb, steps, 1e-3)
		if err := pb.Execute(c.G, batched); err != nil {
			t.Fatalf("%s batched: %v", backend, err)
		}
		for i := 0; i < ps.Len(); i++ {
			if got, want := pb.Step(i).Makespan, ps.Step(i).Makespan; got != want {
				t.Errorf("%s: step %d makespan %v (batched) != %v (serial)", backend, i, got, want)
			}
		}
		// Barriers carry their delay.
		for i := 0; i < pb.Len(); i++ {
			if pb.Step(i).Kind == KindBarrier && pb.Step(i).Makespan != 1e-3 {
				t.Errorf("%s: barrier %d makespan %v, want 1e-3", backend, i, pb.Step(i).Makespan)
			}
		}
		// Execute must have submitted one frontier holding every simulated
		// step (barriers resolve for free first).
		widths := pb.BatchWidths()
		if len(widths) != 1 || widths[0] != 5 {
			t.Errorf("%s: batch widths %v, want [5]", backend, widths)
		}
	}
}

func TestExecuteRespectsDependencyChain(t *testing.T) {
	c, steps := testWorkload(t, 3)
	p := New()
	p.Reset()
	// A chain: s0 -> s1 -> s2 forces three single-step batches.
	s0 := p.Add(KindA2A1, 0, steps[0], 0)
	s1 := p.Add(KindA2A2, 0, steps[1], 0)
	p.AddDep(s1, s0)
	s2 := p.Add(KindDP, -1, steps[2], 0)
	p.AddDep(s2, s1)
	b, _ := netsim.New(netsim.Config{})
	if err := p.Execute(c.G, b); err != nil {
		t.Fatal(err)
	}
	widths := p.BatchWidths()
	if len(widths) != 3 {
		t.Fatalf("chain widths %v, want three batches of 1", widths)
	}
	for i := 0; i < 3; i++ {
		if p.Step(i).Makespan <= 0 {
			t.Errorf("step %d not simulated", i)
		}
	}
}

// TestAddDepValidation: deps must reference existing steps — together with
// the arena-tail rule this makes plans acyclic by construction.
func TestAddDepValidation(t *testing.T) {
	p := New()
	s0 := p.Add(KindA2A1, 0, nil, 0)
	defer func() {
		if recover() == nil {
			t.Error("forward dependency on an unknown step not rejected")
		}
	}()
	p.AddDep(s0, s0+1)
}

func TestDepsArenaDiscipline(t *testing.T) {
	p := New()
	s0 := p.Add(KindBarrier, 0, nil, 0)
	s1 := p.Add(KindA2A1, 0, nil, 0)
	p.AddDep(s1, s0)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order AddDep not rejected")
		}
	}()
	p.AddDep(s0, s1) // s0's dep range is no longer at the arena tail
}

// TestPlanBuilderAllocFree pins the steady-state allocation guarantee: once
// the arenas are grown, Reset + Add + AddDep + Execute over same-shaped
// iterations allocate nothing (the analytic backend is allocation-free too,
// so the measurement isolates the plan machinery).
func TestPlanBuilderAllocFree(t *testing.T) {
	c, steps := testWorkload(t, 6)
	b, err := netsim.New(netsim.Config{Backend: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	run := func() {
		buildPlan(p, steps, 25e-3)
		if err := p.Execute(c.G, b); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the arenas
	if allocs := testing.AllocsPerRun(50, run); allocs > 0 {
		t.Errorf("steady-state plan build+execute allocates %.1f/op, want 0", allocs)
	}
}
