package commplan

import (
	"slices"
	"testing"

	"mixnet/internal/netsim"
)

func TestMergedMatchesSoloExecute(t *testing.T) {
	c, steps := testWorkload(t, 6)
	for _, backend := range netsim.Names() {
		solo, err := netsim.New(netsim.Config{Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		shared, err := netsim.New(netsim.Config{Backend: backend, Workers: 2})
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
	run := func(workers int) (*Plan, *Plan, MergedStats) {
		b, err := netsim.New(netsim.Config{Backend: "packet", Workers: workers})
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
	a1, b1, s1 := run(1)
	a4, b4, _ := run(4)
	for i := 0; i < a1.Len(); i++ {
		if a1.Step(i).Makespan != a4.Step(i).Makespan {
			t.Fatalf("contended plan A step %d differs across worker counts", i)
		}
	}
	for i := 0; i < b1.Len(); i++ {
		if b1.Step(i).Makespan != b4.Step(i).Makespan {
			t.Fatalf("contended plan B step %d differs across worker counts", i)
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
