package commplan

import (
	"slices"
	"testing"

	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

func TestMergedMatchesSoloExecute(t *testing.T) {
	c, steps := testWorkload(t, 6)
	for _, backend := range netsim.Names() {
		solo, err := netsim.New(netsim.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := netsim.New(netsim.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		// Solo reference: each plan priced step by step on its own.
		a1, b1 := New(), New()
		buildPlan(a1, steps[:4], 1e-3)
		buildPlan(b1, steps[4:], 2e-3)
		executeSerial(t, a1, c.G, solo)
		executeSerial(t, b1, c.G, solo)
		// Merged drain of identically built plans on one backend.
		a2, b2 := New(), New()
		buildPlan(a2, steps[:4], 1e-3)
		buildPlan(b2, steps[4:], 2e-3)
		m := NewMergedExec()
		if err := m.Execute(c.G, shared, []*Plan{a2, b2}); err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		for i := 0; i < a1.Len(); i++ {
			if a2.Step(i).Makespan != a1.Step(i).Makespan {
				t.Fatalf("%s: plan A step %d: merged %v != solo %v",
					backend, i, a2.Step(i).Makespan, a1.Step(i).Makespan)
			}
		}
		for i := 0; i < b1.Len(); i++ {
			if b2.Step(i).Makespan != b1.Step(i).Makespan {
				t.Fatalf("%s: plan B step %d: merged %v != solo %v",
					backend, i, b2.Step(i).Makespan, b1.Step(i).Makespan)
			}
		}
		if s := m.Stats(); s.Batches == 0 || s.WidthMax < 2 {
			t.Fatalf("%s: merged stats did not record fused frontiers: %+v", backend, s)
		}
	}
}

func TestMergedEmptyAndSinglePlans(t *testing.T) {
	c, steps := testWorkload(t, 3)
	b, err := netsim.New(netsim.Config{})
	if err != nil {
		t.Fatal(err)
	}
	solo := New()
	buildPlan(solo, steps, 1e-3)
	ref := New()
	buildPlan(ref, steps, 1e-3)
	if err := ref.Execute(c.G, b); err != nil {
		t.Fatal(err)
	}
	empty := New()
	m := NewMergedExec()
	if err := m.Execute(c.G, b, []*Plan{empty, solo}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ref.Len(); i++ {
		if solo.Step(i).Makespan != ref.Step(i).Makespan {
			t.Fatalf("step %d: merged-with-empty %v != solo %v", i, solo.Step(i).Makespan, ref.Step(i).Makespan)
		}
	}
	if err := m.Execute(c.G, b, nil); err != nil {
		t.Fatalf("no plans: %v", err)
	}
}

func TestMergedContendedDeterministicAndSlower(t *testing.T) {
	c, steps := testWorkload(t, 6)
	run := func() (*Plan, *Plan, MergedStats) {
		b, err := netsim.New(netsim.Config{Backend: "packet"})
		if err != nil {
			t.Fatal(err)
		}
		pa, pb := New(), New()
		buildPlan(pa, steps[:4], 1e-3)
		buildPlan(pb, steps[4:], 2e-3)
		m := NewMergedExec()
		m.Contend = true
		if err := m.Execute(c.G, b, []*Plan{pa, pb}); err != nil {
			t.Fatal(err)
		}
		return pa, pb, m.Stats()
	}
	a1, b1, s1 := run()
	a2, b2, _ := run()
	for i := 0; i < a1.Len(); i++ {
		if a1.Step(i).Makespan != a2.Step(i).Makespan {
			t.Fatalf("contended plan A step %d differs across runs", i)
		}
	}
	for i := 0; i < b1.Len(); i++ {
		if b1.Step(i).Makespan != b2.Step(i).Makespan {
			t.Fatalf("contended plan B step %d differs across runs", i)
		}
	}
	if s1.FusedSteps == 0 {
		t.Fatal("contended merge fused no cross-plan steps")
	}
	// Contention cannot make a shared-link step faster than its solo run.
	soloB, err := netsim.New(netsim.Config{Backend: "packet"})
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := New(), New()
	buildPlan(ra, steps[:4], 1e-3)
	buildPlan(rb, steps[4:], 2e-3)
	if err := ra.Execute(c.G, soloB); err != nil {
		t.Fatal(err)
	}
	if err := rb.Execute(c.G, soloB); err != nil {
		t.Fatal(err)
	}
	const eps = 1e-12
	for i := 0; i < a1.Len(); i++ {
		if a1.Step(i).Makespan < ra.Step(i).Makespan-eps {
			t.Fatalf("plan A step %d faster under contention: %v < %v", i, a1.Step(i).Makespan, ra.Step(i).Makespan)
		}
	}
	for i := 0; i < b1.Len(); i++ {
		if b1.Step(i).Makespan < rb.Step(i).Makespan-eps {
			t.Fatalf("plan B step %d faster under contention: %v < %v", i, b1.Step(i).Makespan, rb.Step(i).Makespan)
		}
	}
}

// TestMergedRecordsPerPlanWidths: a merged drain records each plan's own
// share of every round, so BatchWidths sums to the plan's simulated-step
// count and Stats reflects the drain, exactly as a solo Execute records
// them.
func TestMergedRecordsPerPlanWidths(t *testing.T) {
	c, steps := testWorkload(t, 6)
	b, err := netsim.New(netsim.Config{Backend: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := New(), New()
	buildPlan(pa, steps[:4], 1e-3)
	buildPlan(pb, steps[4:], 2e-3)
	// A chain in plan B forces it into a second round.
	pb.AddDep(pb.Len()-1, 1)
	m := NewMergedExec()
	if err := m.Execute(c.G, b, []*Plan{pa, pb}); err != nil {
		t.Fatal(err)
	}
	for i, p := range []*Plan{pa, pb} {
		name := "AB"[i : i+1]
		simulated := 0
		for _, s := range p.Steps() {
			if s.Phases != nil {
				simulated++
			}
		}
		sum := 0
		for _, w := range p.BatchWidths() {
			sum += w
		}
		if sum != simulated {
			t.Errorf("plan %s: batch widths %v sum to %d, want its %d simulated steps",
				name, p.BatchWidths(), sum, simulated)
		}
		if st := p.Stats(); st.FrontierMax == 0 || st.FrontierMean == 0 {
			t.Errorf("plan %s: frontier stats not recorded: %+v", name, st)
		}
	}
	if w := pa.BatchWidths(); !slices.Equal(w, []int{4}) {
		t.Errorf("plan A widths %v, want [4]", w)
	}
	if w := pb.BatchWidths(); !slices.Equal(w, []int{1, 1}) {
		t.Errorf("plan B widths %v, want [1 1]", w)
	}
	// The same plans drained alone record the same widths.
	for _, p := range []*Plan{pa, pb} {
		merged := slices.Clone(p.BatchWidths())
		if err := p.Execute(c.G, b); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p.BatchWidths(), merged) {
			t.Errorf("solo widths %v != merged widths %v", p.BatchWidths(), merged)
		}
	}
}

// TestContendedFusesInIDOrder pins which steps of a round fuse under
// Contend: the k-th simulated step in ID order of one plan with the k-th in
// ID order of the other. Plan A readies a3 before a2 (a2 waits on a chain of
// zero-flow steps, a3 on nothing); a2 shares server 0's links with b0 and a3
// server 1's with b1, while the ready-order pairs (a3, b0) and (a2, b1) share
// none and would run solo.
func TestContendedFusesInIDOrder(t *testing.T) {
	c := topo.BuildFatTree(topo.DefaultSpec(4, 100*topo.Gbps))
	r := topo.NewBFSRouter(c.G)
	intra := func(server int) netsim.Phases {
		rt, err := r.Route(c.GPU(server, 0), c.GPU(server, 1), 0)
		if err != nil {
			t.Fatal(err)
		}
		return netsim.Phases{{{ID: server, Path: rt, Bytes: 1e9}}}
	}
	pa, pb := New(), New()
	z0 := pa.Add(KindCompute, 0, nil, 1e-3)
	z1 := pa.Add(KindCompute, 0, nil, 1e-3)
	pa.AddDep(z1, z0)
	a2 := pa.Add(KindA2A1, 0, intra(0), 0)
	pa.AddDep(a2, z1)
	a3 := pa.Add(KindA2A1, 0, intra(1), 0)
	b0 := pb.Add(KindA2A1, 0, intra(0), 0)
	b1 := pb.Add(KindA2A1, 0, intra(1), 0)

	solo, err := netsim.NewFluid().Makespan(c.G, intra(0))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMergedExec()
	m.Contend = true
	if err := m.Execute(c.G, netsim.NewFluid(), []*Plan{pa, pb}); err != nil {
		t.Fatal(err)
	}
	if w := pa.BatchWidths(); !slices.Equal(w, []int{2}) {
		t.Fatalf("plan A widths %v, want one round of 2", w)
	}
	if s := m.Stats(); s.FusedSteps != 4 {
		t.Errorf("fused %d steps, want all 4 (a2 with b0, a3 with b1)", s.FusedSteps)
	}
	for _, s := range []*Step{pa.Step(a2), pa.Step(a3), pb.Step(b0), pb.Step(b1)} {
		if s.Makespan <= solo {
			t.Errorf("step %d: contended makespan %v not above its solo %v", s.ID, s.Makespan, solo)
		}
	}
}
