// Package flowsim is a fluid (flow-level) network simulator: concurrent
// flows share link capacity according to max-min fairness, computed by
// progressive filling. After the first refill, an arrival or completion
// re-rates only the active flows of the link-disjoint components it
// changed, and every other flow keeps its rate; a Simulate call labels its
// flows into components once, when it needs a second refill.
//
// It is the fast substrate used for the paper's large-scale sweeps
// (1024–32768 GPUs); internal/packetsim is the high-fidelity packet-level
// counterpart, and the two are cross-validated in tests.
//
// The hot path is allocation-free in steady state: a Sim carries a dense
// per-link arena (epoch-stamped slices indexed by topo.LinkID plus a
// touched-link list) and reusable pending/active buffers, so repeated
// Simulate calls over the same graph perform zero heap allocations once
// the buffers have grown to size. The package-level Simulate draws Sims
// from a pool and is safe for concurrent use.
package flowsim

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"mixnet/internal/topo"
)

// Flow is one byte transfer along a fixed path.
type Flow struct {
	ID    int
	Path  topo.Route // directed link IDs src->dst; empty = intra-node no-op
	Bytes float64    // payload size in bytes
	Start float64    // start offset in seconds (phase-relative)

	// Finish is filled by Simulate: completion time in seconds.
	Finish float64

	remaining float64
	rate      float64
	comp      int32 // link-disjoint component: its root link slot, set by label
	frozen    bool
	started   bool
	done      bool
}

// Result summarises one Simulate run.
type Result struct {
	Makespan float64 // completion time of the last flow
	// Events is the number of flow rates progressive filling assigned,
	// summed over events: each refill counts the active flows of the
	// components that changed. When every flow shares one component it is
	// the sum of the active flows over all events.
	Events int
}

// Sim is a reusable simulation engine. The zero value is ready to use; a
// Sim amortises its pending/active buffers and the max-min link arena
// across Simulate calls, reaching zero steady-state heap allocations.
// A Sim must not be used from multiple goroutines concurrently.
type Sim struct {
	pending []*Flow
	active  []*Flow
	prev    []*Flow // the active set before the last progress step; the next one is written here
	refill  []*Flow // active flows of the changed components, in active order
	arena   linkArena
}

// linkArena is the dense per-link state for progressive filling and for
// labelling components: slices indexed by link storage slot
// (topo.Graph.LinkIndex — the identity on eager graphs, so folded graphs
// only pay for materialized links), validity tracked by an epoch stamp so
// reset is O(1) and only links actually crossed by active flows (the
// touched list) are ever visited.
type linkArena struct {
	epoch   uint32
	stamp   []uint32  // stamp[l] == epoch => cap/count valid for slot l
	cap     []float64 // remaining capacity, bytes/s
	count   []int32   // unfrozen flows crossing the link
	parent  []int32   // union-find over the call's link slots, valid where stamped by label
	dirty   []bool    // component root slot -> changed since the last refill, set by changedFlows
	touched []int32   // link storage slots referenced by the active set (not IDs)
}

// reset prepares the arena for a graph with nLinks links and starts a new
// epoch. Allocation happens only when the graph outgrew the arena.
//
//mixnet:noalloc
func (a *linkArena) reset(nLinks int) {
	if len(a.stamp) < nLinks {
		a.stamp = make([]uint32, nLinks)
		a.cap = make([]float64, nLinks)
		a.count = make([]int32, nLinks)
		a.parent = make([]int32, nLinks)
		a.dirty = make([]bool, nLinks)
	}
	a.epoch++
	if a.epoch == 0 { // wrapped: stamps from the previous cycle are stale
		clear(a.stamp)
		a.epoch = 1
	}
	a.touched = a.touched[:0]
}

// NewSim returns an empty reusable simulator.
func NewSim() *Sim { return &Sim{} }

// simPool backs the package-level Simulate so legacy callers also reuse
// buffers without sharing a Sim across goroutines.
var simPool = sync.Pool{New: func() any { return NewSim() }}

// Simulate computes max-min fair completion times for the given flows over
// graph g. Flow Finish fields are written in place. Links that are down
// make their flows error. It is safe for concurrent use; callers with a
// long-lived Sim should prefer Sim.Simulate to keep buffer reuse local.
func Simulate(g *topo.Graph, flows []*Flow) (Result, error) {
	s := simPool.Get().(*Sim)
	res, err := s.Simulate(g, flows)
	simPool.Put(s)
	return res, err
}

// Simulate runs one fluid simulation reusing the Sim's buffers.
//
// Disjoint components share no link, so refilling only the changed ones
// leaves every other flow at the rate a full refill would give it, with one
// exception: progressive filling freezes a flow at the tightest fair share
// of the whole refill when its own is within the 1e-12 relative tolerance,
// so components whose shares tie that closely can differ in the last bits.
// The event loop, the time steps and the remaining-bytes updates are the
// same as a full refill's.
func (s *Sim) Simulate(g *topo.Graph, flows []*Flow) (Result, error) {
	var res Result
	if len(flows) == 0 {
		return res, nil
	}
	// Validate paths and initialise state.
	for _, f := range flows {
		if f.Bytes < 0 {
			return res, fmt.Errorf("flowsim: flow %d negative bytes", f.ID)
		}
		// Progressive filling never drains an infinite or NaN flow, and a NaN
		// start is never admitted: either would spin the event loop forever.
		// The comparisons are false for NaN.
		if !(f.Bytes <= math.MaxFloat64) || !(math.Abs(f.Start) <= math.MaxFloat64) {
			return res, fmt.Errorf("flowsim: flow %d non-finite bytes %g or start %g", f.ID, f.Bytes, f.Start)
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

	active, prev := s.active[:0], s.prev[:0]
	// The first refill rates every active flow, so the components are
	// labelled only when a second refill comes. A refill's changes are the
	// flows admitted since the last one, pending[admitted:nextPending], and
	// the flows the progress step in between retired, the done ones in prev.
	comps := 0 // link-disjoint components; 0 until labelled
	refilled, changed := false, false
	admitted := 0
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
			changed = true
		}
		if len(active) == 0 {
			if nextPending < len(pending) {
				now = pending[nextPending].Start
				continue
			}
			break
		}

		if changed {
			refill := active
			if refilled && comps == 0 {
				comps = s.label(g, flows)
			}
			if comps > 1 {
				refill = s.changedFlows(active, prev, pending[admitted:nextPending])
			}
			s.computeMaxMin(g, refill)
			res.Events += len(refill)
			refilled, changed = true, false
			admitted = nextPending
		}

		// Time to next completion among active flows.
		dt := math.Inf(1)
		for _, f := range active {
			if f.rate <= 0 {
				s.release(pending, active, prev)
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
		// Progress all active flows; retire completed ones. The survivors go
		// to the other buffer, grown with active so that a call which
		// retires every flow at once still leaves both buffers sized.
		if cap(prev) < len(active) {
			prev = make([]*Flow, 0, cap(active))
		}
		out := prev[:0]
		for _, f := range active {
			f.remaining -= f.rate * dt
			if f.remaining <= 1e-9*math.Max(1, f.Bytes) {
				f.done = true
				f.Finish = now + topo.PathLatency(g, f.Path)
				if f.Finish > res.Makespan {
					res.Makespan = f.Finish
				}
				changed = true
				continue
			}
			out = append(out, f)
		}
		active, prev = out, active
	}
	s.release(pending, active, prev)
	return res, nil
}

// release hands the (possibly regrown) buffers back to the Sim and drops
// flow pointers so a pooled Sim does not pin the last caller's flow set.
//
//mixnet:noalloc
func (s *Sim) release(pending, active, prev []*Flow) {
	clear(pending)
	clear(active[:cap(active)])
	clear(prev[:cap(prev)])
	clear(s.refill[:cap(s.refill)])
	s.pending = pending[:0]
	s.active = active[:0]
	s.prev = prev[:0]
	s.refill = s.refill[:0]
}

// label unions the link slots of every flow that can become active
// (positive bytes over a non-empty path) in a union-find with path
// halving, the arena's epoch stamps marking the call's links as in
// netsim.Partitioner, and leaves each flow's root slot in comp. Flows that
// have not started yet are labelled too, which can only merge components.
// It clears the components' dirty marks and returns their number.
//
//mixnet:noalloc
func (s *Sim) label(g *topo.Graph, flows []*Flow) int {
	a := &s.arena
	a.reset(len(g.Links))
	comps := 0
	for _, f := range flows {
		if f.Bytes == 0 || len(f.Path) == 0 {
			continue
		}
		r := int32(-1) // root of the flow's links so far
		for _, lid := range f.Path {
			li := g.LinkIndex(lid)
			if a.stamp[li] != a.epoch {
				a.stamp[li] = a.epoch
				if r < 0 {
					r = li
					comps++
				}
				a.parent[li] = r
				continue
			}
			// Hang the flow's links under the older tree, which keeps the
			// trees shallow when many flows share one link.
			if lr := a.root(li); r < 0 {
				r = lr
			} else if lr != r {
				a.parent[r] = lr
				r = lr
				comps--
			}
		}
	}
	for _, f := range flows {
		if f.Bytes != 0 && len(f.Path) != 0 {
			f.comp = a.root(g.LinkIndex(f.Path[0]))
			a.dirty[f.comp] = false
		}
	}
	return comps
}

// root resolves link slot li's union-find root with path halving.
//
//mixnet:noalloc
func (a *linkArena) root(li int32) int32 {
	for a.parent[li] != li {
		a.parent[li] = a.parent[a.parent[li]]
		li = a.parent[li]
	}
	return li
}

// changedFlows returns the active flows of the components that changed
// since the last refill, in active order: those of the flows that arrived
// and of the done flows in prev, which the last progress step retired. A
// component left without active flows keeps its mark until the next label;
// it has nothing to re-rate, and a flow that later joins it arrives and
// marks it anyway.
//
//mixnet:noalloc
func (s *Sim) changedFlows(active, prev, arrived []*Flow) []*Flow {
	dirty := s.arena.dirty
	for _, f := range arrived {
		if f.Bytes != 0 && len(f.Path) != 0 {
			dirty[f.comp] = true
		}
	}
	for _, f := range prev {
		if f.done {
			dirty[f.comp] = true
		}
	}
	refill := s.refill[:0]
	for _, f := range active {
		if dirty[f.comp] {
			refill = append(refill, f)
		}
	}
	for _, f := range refill {
		dirty[f.comp] = false
	}
	s.refill = refill
	return refill
}

// computeMaxMin assigns max-min fair rates (bytes/s) to the active flows by
// progressive filling over the dense link arena. It allocates only when the
// graph outgrew the arena.
//
//mixnet:noalloc
func (s *Sim) computeMaxMin(g *topo.Graph, active []*Flow) {
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

// Makespan is a convenience wrapper: simulate and return only the makespan.
// It panics on simulation errors (down links, negative sizes), which are
// programming errors in the callers.
func Makespan(g *topo.Graph, flows []*Flow) float64 {
	res, err := Simulate(g, flows)
	if err != nil {
		panic(err)
	}
	return res.Makespan
}

// TotalBytes sums the payload of a flow set.
func TotalBytes(flows []*Flow) float64 {
	var s float64
	for _, f := range flows {
		s += f.Bytes
	}
	return s
}
