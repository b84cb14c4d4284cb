package commplan

import (
	"slices"
	"testing"

	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// reexecute runs Execute on p and requires every step's makespan to equal
// executeSerial's on the same plan, returning the batch widths Execute
// submitted.
func reexecute(t *testing.T, p *Plan, g *topo.Graph, b netsim.Backend) []int {
	t.Helper()
	if err := p.Execute(g, b); err != nil {
		t.Fatal(err)
	}
	widths := slices.Clone(p.BatchWidths())
	got := make([]float64, p.Len())
	for i := range got {
		got[i] = p.Step(i).Makespan
	}
	executeSerial(t, p, g, b)
	for i, ms := range got {
		if want := p.Step(i).Makespan; ms != want {
			t.Fatalf("step %d: makespan %v, serial %v", i, ms, want)
		}
	}
	return widths
}

// TestReexecuteAcrossIterations: a reused plan rebuilt with the same DAG
// every iteration (the training steady state) must price every step as the
// serial reference does and submit the same frontiers each time.
func TestReexecuteAcrossIterations(t *testing.T) {
	c, steps := testWorkload(t, 4)
	b, err := netsim.New(netsim.Config{Backend: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	for it := 0; it < 5; it++ {
		buildPlan(p, steps, 1e-3)
		if w := reexecute(t, p, c.G, b); !slices.Equal(w, []int{4}) {
			t.Fatalf("iter %d: batch widths %v, want [4]", it, w)
		}
	}
	if st := p.Stats(); st.Steps != p.Len() {
		t.Errorf("Stats.Steps = %d, want %d", st.Steps, p.Len())
	}
}

// TestReexecuteOnShapeChange: re-executing a reused plan after its DAG
// changed — an extra dependency edge, then more steps — must schedule the
// new shape, not the previous one.
func TestReexecuteOnShapeChange(t *testing.T) {
	c, steps := testWorkload(t, 4)
	b, err := netsim.New(netsim.Config{Backend: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	buildPlan(p, steps, 1e-3)
	if w := reexecute(t, p, c.G, b); !slices.Equal(w, []int{4}) {
		t.Fatalf("first plan: batch widths %v, want [4]", w)
	}
	// Same step count, one extra edge: the dependency-free tail now waits
	// on the first simulated step, so it drains in a second frontier.
	buildPlan(p, steps, 1e-3)
	p.AddDep(p.Len()-1, 1)
	if w := reexecute(t, p, c.G, b); !slices.Equal(w, []int{3, 1}) {
		t.Fatalf("extra dependency: batch widths %v, want [3 1]", w)
	}
	// More steps.
	c6, more := testWorkload(t, 6)
	buildPlan(p, more, 1e-3)
	if w := reexecute(t, p, c6.G, b); !slices.Equal(w, []int{6}) {
		t.Fatalf("more steps: batch widths %v, want [6]", w)
	}
}
