package flowsim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"mixnet/internal/topo"
)

// refSimulate is the solver before component scoping, kept verbatim as the
// test oracle: at every arrival and completion it reruns progressive
// filling over every active flow. Its Result.Events counts those refills.
func refSimulate(g *topo.Graph, flows []*Flow) (Result, error) {
	var s refSim
	return s.Simulate(g, flows)
}

// refSim holds the full-refill solver's buffers.
type refSim struct {
	pending []*Flow
	active  []*Flow
	arena   linkArena
}

// Simulate is the full-refill solver's Sim.Simulate.
func (s *refSim) Simulate(g *topo.Graph, flows []*Flow) (Result, error) {
	var res Result
	if len(flows) == 0 {
		return res, nil
	}
	// Validate paths and initialise state.
	for _, f := range flows {
		if f.Bytes < 0 {
			return res, fmt.Errorf("flowsim: flow %d negative bytes", f.ID)
		}
		for _, lid := range f.Path {
			l := g.Link(lid)
			if !l.Up {
				return res, fmt.Errorf("flowsim: flow %d uses down link %d", f.ID, lid)
			}
			// A non-positive share never freezes a flow in computeMaxMin, so
			// the progressive filling would spin forever.
			if l.Bps <= 0 {
				return res, fmt.Errorf("flowsim: flow %d uses zero-capacity link %d", f.ID, lid)
			}
		}
		f.remaining = f.Bytes
		f.started, f.done = false, false
		f.Finish = 0
	}

	// Pending flows sorted by start time.
	pending := append(s.pending[:0], flows...)
	slices.SortStableFunc(pending, func(a, b *Flow) int {
		switch {
		case a.Start < b.Start:
			return -1
		case a.Start > b.Start:
			return 1
		}
		return 0
	})
	nextPending := 0

	active := s.active[:0]
	now := 0.0
	if len(pending) > 0 {
		now = pending[0].Start
	}

	for nextPending < len(pending) || len(active) > 0 {
		// Admit newly started flows.
		for nextPending < len(pending) && pending[nextPending].Start <= now+1e-15 {
			f := pending[nextPending]
			nextPending++
			f.started = true
			lat := topo.PathLatency(g, f.Path)
			if f.Bytes == 0 || len(f.Path) == 0 {
				f.done = true
				f.Finish = now + lat
				if f.Finish > res.Makespan {
					res.Makespan = f.Finish
				}
				continue
			}
			active = append(active, f)
		}
		if len(active) == 0 {
			if nextPending < len(pending) {
				now = pending[nextPending].Start
				continue
			}
			break
		}

		s.computeMaxMin(g, active)
		res.Events++

		// Time to next completion among active flows.
		dt := math.Inf(1)
		for _, f := range active {
			if f.rate <= 0 {
				s.release(pending, active)
				return res, fmt.Errorf("flowsim: flow %d starved (rate 0)", f.ID)
			}
			if t := f.remaining / f.rate; t < dt {
				dt = t
			}
		}
		// Or the next flow arrival, whichever is earlier.
		if nextPending < len(pending) {
			if t := pending[nextPending].Start - now; t < dt {
				dt = t
			}
		}
		now += dt
		// Progress all active flows; retire completed ones.
		out := active[:0]
		for _, f := range active {
			f.remaining -= f.rate * dt
			if f.remaining <= 1e-9*math.Max(1, f.Bytes) {
				f.done = true
				f.Finish = now + topo.PathLatency(g, f.Path)
				if f.Finish > res.Makespan {
					res.Makespan = f.Finish
				}
				continue
			}
			out = append(out, f)
		}
		active = out
	}
	s.release(pending, active)
	return res, nil
}

// reset prepares the arena for a graph with nLinks links and starts a new
// epoch, as the full-refill solver's computeMaxMin did on every refill.
func (a *linkArena) reset(nLinks int) {
	a.grow(nLinks)
	a.next()
}

// release hands the (possibly regrown) buffers back to the Sim and drops
// flow pointers so a pooled Sim does not pin the last caller's flow set.
//
//mixnet:noalloc
func (s *refSim) release(pending, active []*Flow) {
	clear(pending)
	clear(active[:cap(active)])
	s.pending = pending[:0]
	s.active = active[:0]
}

// computeMaxMin assigns max-min fair rates (bytes/s) to the active flows by
// progressive filling over the dense link arena. It allocates only when the
// graph outgrew the arena.
//
//mixnet:noalloc
func (s *refSim) computeMaxMin(g *topo.Graph, active []*Flow) {
	a := &s.arena
	a.reset(len(g.Links))
	epoch := a.epoch
	for _, f := range active {
		f.frozen = false
		f.rate = 0
		for _, lid := range f.Path {
			li := g.LinkIndex(lid)
			if a.stamp[li] != epoch {
				a.stamp[li] = epoch
				a.cap[li] = g.Links[li].Bps / 8
				a.count[li] = 0
				a.touched = append(a.touched, li)
			}
			a.count[li]++
		}
	}
	unfrozen := len(active)
	for unfrozen > 0 {
		// Find the tightest link.
		min := math.Inf(1)
		for _, lid := range a.touched {
			c := a.count[lid]
			if c == 0 {
				continue
			}
			if fair := a.cap[lid] / float64(c); fair < min {
				min = fair
			}
		}
		if math.IsInf(min, 1) {
			// Remaining flows cross no shared links (shouldn't happen:
			// every flow has a path here). Give them infinite rate guard.
			for _, f := range active {
				if !f.frozen {
					f.rate = math.Inf(1)
					f.frozen = true
					unfrozen--
				}
			}
			break
		}
		// Freeze every unfrozen flow crossing a link at the bottleneck rate.
		for _, f := range active {
			if f.frozen {
				continue
			}
			bottled := false
			for _, lid := range f.Path {
				li := g.LinkIndex(lid)
				if c := a.count[li]; c > 0 && a.cap[li]/float64(c) <= min*(1+1e-12) {
					bottled = true
					break
				}
			}
			if !bottled {
				continue
			}
			f.rate = min
			f.frozen = true
			unfrozen--
			for _, lid := range f.Path {
				li := g.LinkIndex(lid)
				a.cap[li] -= min
				if a.cap[li] < 0 {
					a.cap[li] = 0
				}
				a.count[li]--
			}
		}
	}
}

// TestSimulateMatchesOracleOnRandomDisjointGraphs runs seeded random graphs
// of several link-disjoint stars (100/200/400 Gb/s links, staggered starts)
// through Sim.Simulate and the full-refill oracle. Finish times must agree
// within the solver's 1e-12 relative freeze tolerance, not bitwise: a full
// refill takes one tightest fair share over every component and freezes a
// flow at it whenever the flow's own share is within 1e-12, so it couples
// components whose shares nearly tie, and a scoped refill never sees the
// share of a component it does not re-rate.
func TestSimulateMatchesOracleOnRandomDisjointGraphs(t *testing.T) {
	rates := []float64{100e9, 200e9, 400e9}
	differ := 0
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := topo.NewGraph()
		stars := make([][]topo.NodeID, 2+rng.Intn(4))
		for k := range stars {
			sw := g.AddNode(topo.KindTor, "", -1, -1, -1)
			stars[k] = make([]topo.NodeID, 2+rng.Intn(4))
			for i := range stars[k] {
				stars[k][i] = g.AddNode(topo.KindNIC, "", -1, -1, -1)
				g.AddDuplex(stars[k][i], sw, rates[rng.Intn(len(rates))], 1e-6)
			}
		}
		r := topo.NewBFSRouter(g)
		var got, want []*Flow
		for _, hosts := range stars {
			for n := 1 + rng.Intn(8); n > 0; n-- {
				src, dst := hosts[rng.Intn(len(hosts))], hosts[rng.Intn(len(hosts))]
				if src == dst {
					continue
				}
				rt, err := r.Route(src, dst, uint64(len(got)))
				if err != nil {
					t.Fatal(err)
				}
				f := &Flow{ID: len(got), Path: rt, Bytes: 1e6 * float64(1+rng.Intn(100))}
				if rng.Intn(2) == 0 {
					f.Start = 1e-5 * float64(rng.Intn(100))
				}
				w := *f
				got, want = append(got, f), append(want, &w)
			}
		}
		if _, err := NewSim().Simulate(g, got); err != nil {
			t.Fatal(err)
		}
		if _, err := refSimulate(g, want); err != nil {
			t.Fatal(err)
		}
		bitwise := true
		for i, f := range got {
			if d := math.Abs(f.Finish - want[i].Finish); d > 1e-12*want[i].Finish {
				t.Fatalf("seed %d flow %d: Finish %v, oracle %v", seed, f.ID, f.Finish, want[i].Finish)
			} else if d != 0 {
				bitwise = false
			}
		}
		if !bitwise {
			differ++
		}
	}
	t.Logf("%d of 300 graphs not bitwise equal to the oracle", differ)
}

// TestNearTieStaysWithinTolerance is the coupling in its smallest form.
// Link A (10 GB/s) carries a1 and a2, link B (5 GB/s + 1e-13 relative)
// carries b1. At t=0 both refills freeze b1 at A's 5 GB/s share, within
// the tolerance of B's own. When a1 retires, the full refill re-rates b1
// to B's share; the scoped refill re-rates only A and b1 keeps 5 GB/s, so
// b1 finishes about 1e-13 later.
func TestNearTieStaysWithinTolerance(t *testing.T) {
	g := topo.NewGraph()
	a0, a1 := g.AddNode(topo.KindNIC, "", -1, -1, -1), g.AddNode(topo.KindNIC, "", -1, -1, -1)
	b0, b1 := g.AddNode(topo.KindNIC, "", -1, -1, -1), g.AddNode(topo.KindNIC, "", -1, -1, -1)
	g.AddDuplex(a0, a1, 80e9, 0)
	g.AddDuplex(b0, b1, 40e9*(1+1e-13), 0)
	ra, rb := route(t, g, a0, a1), route(t, g, b0, b1)
	mk := func() []*Flow {
		return []*Flow{{ID: 1, Path: ra, Bytes: 1e9}, {ID: 2, Path: ra, Bytes: 10e9}, {ID: 3, Path: rb, Bytes: 10e9}}
	}
	got, want := mk(), mk()
	gr, err := NewSim().Simulate(g, got)
	if err != nil {
		t.Fatal(err)
	}
	wr, err := refSimulate(g, want)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(gr.Makespan - wr.Makespan); d > 1e-12*wr.Makespan {
		t.Fatalf("makespan %v, oracle %v", gr.Makespan, wr.Makespan)
	}
	t.Logf("makespan %v, oracle %v (relative gap %.2g)", gr.Makespan, wr.Makespan, gr.Makespan/wr.Makespan-1)
}
