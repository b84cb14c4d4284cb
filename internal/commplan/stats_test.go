package commplan

import (
	"testing"

	"mixnet/internal/netsim"
)

// TestCSRReuseAcrossIterations: rebuilding the same DAG shape (the training
// steady state — every iteration re-Adds identical steps and deps) must
// reuse the compressed dependency rows instead of rebuilding them, with
// makespans unchanged.
func TestCSRReuseAcrossIterations(t *testing.T) {
	c, steps := testWorkload(t, 4)
	b, err := netsim.New(netsim.Config{Backend: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	var ref []float64
	const iters = 5
	for it := 0; it < iters; it++ {
		buildPlan(p, steps, 1e-3)
		if err := p.Execute(c.G, b); err != nil {
			t.Fatal(err)
		}
		ms := make([]float64, p.Len())
		for i := range ms {
			ms[i] = p.Step(i).Makespan
		}
		if it == 0 {
			ref = ms
			continue
		}
		for i := range ms {
			if ms[i] != ref[i] {
				t.Fatalf("iter %d step %d: makespan %v != %v", it, i, ms[i], ref[i])
			}
		}
	}
	st := p.Stats()
	if st.CSRBuilds != 1 || st.CSRReuses != iters-1 {
		t.Errorf("CSR builds/reuses = %d/%d, want 1/%d", st.CSRBuilds, st.CSRReuses, iters-1)
	}
	if st.Steps != p.Len() {
		t.Errorf("Stats.Steps = %d, want %d", st.Steps, p.Len())
	}
}

// TestCSRRebuildOnShapeChange: a different DAG (extra step, different deps)
// must trigger a fresh CSR build, not a stale reuse.
func TestCSRRebuildOnShapeChange(t *testing.T) {
	c, steps := testWorkload(t, 4)
	b, err := netsim.New(netsim.Config{Backend: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	p := New()
	buildPlan(p, steps, 1e-3)
	if err := p.Execute(c.G, b); err != nil {
		t.Fatal(err)
	}
	// Same step count, extra dependency edge: meta/deps differ.
	buildPlan(p, steps, 1e-3)
	p.AddDep(p.Len()-1, 0)
	if err := p.Execute(c.G, b); err != nil {
		t.Fatal(err)
	}
	// Different step count.
	_, more := testWorkload(t, 6)
	buildPlan(p, more, 1e-3)
	if err := p.Execute(c.G, b); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.CSRBuilds != 3 || st.CSRReuses != 0 {
		t.Errorf("CSR builds/reuses = %d/%d, want 3/0", st.CSRBuilds, st.CSRReuses)
	}
}

// TestSetCompileStatsPassthrough: the engine-facing compile counters ride
// along in Stats unchanged.
func TestSetCompileStatsPassthrough(t *testing.T) {
	p := New()
	p.SetCompileStats(7, 3, 1, 16.5)
	st := p.Stats()
	if st.Hits != 7 || st.Misses != 3 || st.Bypasses != 1 || st.FoldFactor != 16.5 {
		t.Errorf("compile stats did not pass through: %+v", st)
	}
}
