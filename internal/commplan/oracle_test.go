package commplan

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// refRounds is the ready-queue drain the package scheduled with before the
// one-pass round labelling, kept as its oracle. It derives every plan's
// successor lists and indegrees, resolves a zero-flow step inside the pass
// that readies it (releasing its successors into the same pass), and
// collects each pass's ready simulated steps of all plans as one merged
// round. rounds[r][pi] lists plan pi's steps of merged round r in ready
// order: the initial frontier in ID order, then steps in the order their
// last dependency resolved, the previous round's steps releasing theirs
// plan-major in collection order.
func refRounds(plans []*Plan) ([][][]int32, error) {
	type state struct {
		indeg []int32
		succ  [][]int32
		queue []int32
	}
	sts := make([]state, len(plans))
	total := 0
	for pi, p := range plans {
		st := &sts[pi]
		n := p.Len()
		total += n
		st.indeg = make([]int32, n)
		st.succ = make([][]int32, n)
		for i := 0; i < n; i++ {
			for _, d := range p.Deps(i) {
				st.succ[d] = append(st.succ[d], int32(i))
				st.indeg[i]++
			}
		}
		for i := 0; i < n; i++ {
			if st.indeg[i] == 0 {
				st.queue = append(st.queue, int32(i))
			}
		}
	}
	release := func(st *state, id int32) {
		for _, s := range st.succ[id] {
			if st.indeg[s]--; st.indeg[s] == 0 {
				st.queue = append(st.queue, s)
			}
		}
	}
	var rounds [][][]int32
	for done := 0; done < total; {
		round := make([][]int32, len(plans))
		width := 0
		for pi, p := range plans {
			st := &sts[pi]
			for qi := 0; qi < len(st.queue); qi++ {
				id := st.queue[qi]
				if p.Step(int(id)).Phases == nil {
					done++
					release(st, id)
				} else {
					round[pi] = append(round[pi], id)
				}
			}
			st.queue = st.queue[:0]
			width += len(round[pi])
		}
		if width == 0 {
			if done < total {
				return nil, fmt.Errorf("dependency cycle (%d of %d steps scheduled)", done, total)
			}
			break
		}
		rounds = append(rounds, round)
		for pi := range plans {
			for _, id := range round[pi] {
				release(&sts[pi], id)
			}
			done += len(round[pi])
		}
	}
	return rounds, nil
}

// checkRounds compares the rounds the last drain of plans recorded with
// refRounds on the same plans: the same number of merged rounds and, in
// each, every plan's width and step set, the drain's listed in ID order.
// It returns the number of merged rounds.
func checkRounds(plans []*Plan) (int, error) {
	ref, err := refRounds(plans)
	if err != nil {
		return 0, err
	}
	rounds := 0
	for _, p := range plans {
		rounds = max(rounds, len(p.widths))
	}
	if rounds != len(ref) {
		return 0, fmt.Errorf("drain ran %d rounds, ready queue %d", rounds, len(ref))
	}
	for pi, p := range plans {
		off := 0
		for r := range ref {
			var got []int32
			if r < len(p.widths) {
				got = p.order[off : off+p.widths[r]]
				off += p.widths[r]
			}
			want := slices.Clone(ref[r][pi])
			slices.Sort(want)
			if !slices.IsSorted(got) {
				return 0, fmt.Errorf("plan %d round %d: steps %v not in ID order", pi, r, got)
			}
			if !slices.Equal(got, want) {
				return 0, fmt.Errorf("plan %d round %d: steps %v, ready queue %v (widths %v)",
					pi, r, got, ref[r][pi], p.widths)
			}
		}
	}
	return rounds, nil
}

// unitBackend prices any workload at one second per phase, so random plans
// need no routed flows.
type unitBackend struct{}

func (unitBackend) Name() string { return "unit" }
func (unitBackend) Makespan(_ *topo.Graph, p netsim.Phases) (float64, error) {
	return float64(len(p)), nil
}

// randomPlan builds an n-step plan where each step is simulated with
// probability 1/2 and waits on each earlier step with probability deg/n.
func randomPlan(rng *rand.Rand, n int, deg float64) *Plan {
	p := New()
	for i := 0; i < n; i++ {
		var ph netsim.Phases
		if rng.Intn(2) == 0 {
			ph = netsim.Phases{nil}
		}
		id := p.Add(KindCompute, 0, ph, float64(i))
		for d := 0; d < id; d++ {
			if rng.Float64() < deg/float64(n) {
				p.AddDep(id, d)
			}
		}
	}
	return p
}

// TestRoundsMatchReadyQueue: the one-pass round labelling gives every
// synthetic plan — alone and merged with others — the rounds, widths and
// per-round step sets of the ready-queue drain it replaced.
func TestRoundsMatchReadyQueue(t *testing.T) {
	c, steps := testWorkload(t, 7)
	b, err := netsim.New(netsim.Config{Backend: "analytic"})
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, g *topo.Graph, be netsim.Backend, plans ...*Plan) {
		t.Helper()
		m := NewMergedExec()
		if err := m.Execute(g, be, plans); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rounds, err := checkRounds(plans)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := m.Stats().Batches; got != uint64(rounds) {
			t.Fatalf("%s: merged stats count %d rounds, want %d", name, got, rounds)
		}
	}

	canonical, tail, overlap := New(), New(), New()
	buildPlan(canonical, steps[:5], 1e-3)
	buildPlan(tail, steps[:4], 1e-3)
	tail.AddDep(tail.Len()-1, 1)
	buildOverlapPlan(overlap, steps, nil)
	chain := New()
	prev := -1
	for i := 0; i < 3; i++ {
		id := chain.Add(KindA2A1, 0, steps[i], 0)
		if prev >= 0 {
			chain.AddDep(id, prev)
		}
		prev = id
	}
	for name, p := range map[string]*Plan{"canonical": canonical, "tail": tail, "overlap": overlap, "chain": chain} {
		check(name, c.G, b, p)
	}
	// Steps of one merged drain must not share Flow pointers, so each
	// merged pair routes its own workload.
	_, other := testWorkload(t, 7)
	pair := New()
	buildPlan(pair, other[:4], 2e-3)
	pair.AddDep(pair.Len()-1, 1)
	check("overlap+tail", c.G, b, overlap, pair)

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		plans := make([]*Plan, 1+rng.Intn(3))
		for pi := range plans {
			plans[pi] = randomPlan(rng, rng.Intn(40), 1+4*rng.Float64())
		}
		check(fmt.Sprintf("random %d", i), nil, unitBackend{}, plans...)
	}
}
