// Package commplan compiles one training iteration's communication into a
// DAG of steps and schedules it over a netsim backend. Each Step is an
// independently simulatable workload (a compiled netsim.Phases: one layer's
// A2A1 or A2A2, or the merged DP all-reduce) or a zero-flow step priced as
// a pure delay: a barrier carrying a precomputed reconfiguration cost, or a
// KindCompute step carrying a modelled computation duration. Dependency
// edges record which barrier installed the circuits a step's routes were
// compiled against and, for overlap-aware plans, which computation gates
// which communication; because compilation resolves routing up front (the
// plan builder runs the controller loop serially), steps of different
// layers share no simulator state.
//
// The drain groups simulated steps into rounds. A step's round is the
// number of simulated steps on the longest dependency chain before it, so
// comm steps separated only by zero-flow work — including steps of two
// adjacent iterations in a rolling window — share a round. AddDep accepts
// only earlier steps, so ID order is topological and one forward pass
// labels every step; zero-flow steps resolve to their Delay without any
// backend call, and each simulated step is priced by its own
// Backend.Makespan call, round by round.
//
// One drain loop serves every caller: Plan.Execute is the one-plan case of
// MergedExec, which merges several co-scheduled jobs' rounds
// (internal/tenancy). Within a round a plan's steps are visited in ID
// order; only contended pricing reads that order (see MergedExec).
//
// Results are deterministic and byte-identical to pricing every step alone:
// a step's makespan and per-flow finish times never depend on which other
// steps shared its round. A Plan is reusable — Reset keeps all step,
// dependency and scheduling arenas, so steady-state plan building performs
// no heap allocations beyond the flows the collective compiler itself
// emits.
package commplan

import (
	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// Kind classifies a communication step.
type Kind uint8

// Step kinds of a training iteration.
const (
	// KindBarrier is a zero-flow reconfiguration point: its Delay is the
	// precomputed blocking cost, and dependent steps' routes were compiled
	// against the circuits it installed.
	KindBarrier Kind = iota
	// KindA2A1 is a layer's forward dispatch all-to-all.
	KindA2A1
	// KindA2A2 is a layer's combine all-to-all (the transposed demand).
	KindA2A2
	// KindDP is the data-parallel gradient all-reduce.
	KindDP
	// KindCompute is a zero-flow computation step (attention, gate, expert
	// FFN, add-norm, or their backward counterparts): its Delay is the
	// modelled compute duration from dag.ComputeTimes, it is priced without
	// any backend call, and its dependency edges are what let the scheduler
	// overlap communication with computation.
	KindCompute

	// KindCount is the number of step kinds (for per-kind counters).
	KindCount = int(KindCompute) + 1
)

func (k Kind) String() string {
	switch k {
	case KindA2A1:
		return "a2a1"
	case KindA2A2:
		return "a2a2"
	case KindDP:
		return "dp"
	case KindCompute:
		return "compute"
	default:
		return "barrier"
	}
}

// Step is one node of the communication DAG.
type Step struct {
	ID    int
	Kind  Kind
	Layer int // layer index within the pipeline stage; -1 for non-layer steps
	// Phases is the compiled workload; nil for zero-flow steps (barriers
	// and compute).
	Phases netsim.Phases
	// Delay is a zero-flow step's duration in seconds: a barrier's blocking
	// cost or a compute step's modelled computation time (0 for simulated
	// steps, whose cost is measured into Makespan by Execute).
	Delay float64
	// Makespan is filled by Execute: the step's simulated completion time
	// (Delay for zero-flow steps).
	Makespan float64

	depOff, depLen int32 // view into the plan's dependency arena
}

// Plan is a reusable communication DAG plus its scheduling scratch.
type Plan struct {
	steps []Step
	deps  []int32 // flat dependency arena: steps[i].deps = deps[depOff:depOff+depLen]

	// drain scratch, reused across iterations: every step's round, and the
	// simulated steps listed by round, in ID order within a round.
	round  []int32
	order  []int32
	widths []int      // this plan's width in each round of the last drain
	fronts widthStats // cumulative over every drain
	exec   MergedExec // Execute's one-plan drain

	// MakespanWindow scratch: per-step finish times within the window.
	finish []float64
}

// Stats reports the plan's shape and scheduling counters.
type Stats struct {
	Steps  int // steps in the current plan
	ByKind [KindCount]int

	// Frontier widths over every round of every drain the plan took part
	// in, counting only its own steps: the widest round and the mean
	// width. Dependency-free plans collapse into one wide drain;
	// overlap-aware plans trade width for dependency fidelity, with the
	// rolling window's first drain still fusing steps of two adjacent
	// iterations (this DP all-reduce with the next dispatch A2A).
	FrontierMax  int
	FrontierMean float64
}

// Stats returns the counters accumulated since the plan was created. Steps
// and ByKind describe the current plan; the frontier counters are
// cumulative across drains (Execute and MergedExec.Execute alike).
func (p *Plan) Stats() Stats {
	s := Stats{Steps: len(p.steps), FrontierMax: p.fronts.max, FrontierMean: p.fronts.mean()}
	for i := range p.steps {
		if k := int(p.steps[i].Kind); k < KindCount {
			s.ByKind[k]++
		}
	}
	return s
}

// widthStats accumulates frontier widths.
type widthStats struct {
	rounds, sum uint64
	max         int
}

//mixnet:noalloc
func (w *widthStats) record(n int) {
	w.rounds++
	w.sum += uint64(n)
	if n > w.max {
		w.max = n
	}
}

func (w *widthStats) mean() float64 {
	if w.rounds == 0 {
		return 0
	}
	return float64(w.sum) / float64(w.rounds)
}

// New returns an empty reusable plan.
func New() *Plan { return &Plan{} }

// Reset clears the plan for a new iteration, keeping every arena.
func (p *Plan) Reset() {
	p.steps = p.steps[:0]
	p.deps = p.deps[:0]
	p.widths = p.widths[:0]
}

// Len returns the number of steps.
func (p *Plan) Len() int { return len(p.steps) }

// Step returns a step by ID; the pointer is valid until the next Reset.
func (p *Plan) Step(id int) *Step { return &p.steps[id] }

// Steps returns the step slice, valid until the next Reset.
func (p *Plan) Steps() []Step { return p.steps }

// Add appends a step and returns its ID. phases must be nil for zero-flow
// steps (barriers, compute); deps are added with AddDep.
//
//mixnet:noalloc
func (p *Plan) Add(kind Kind, layer int, phases netsim.Phases, delay float64) int {
	id := len(p.steps)
	if cap(p.steps) > id {
		p.steps = p.steps[:id+1]
		p.steps[id] = Step{}
	} else {
		p.steps = append(p.steps, Step{})
	}
	s := &p.steps[id]
	s.ID, s.Kind, s.Layer, s.Phases, s.Delay = id, kind, layer, phases, delay
	s.depOff = int32(len(p.deps))
	return id
}

// AddDep records that step waits on dep. Dependencies of a step must be
// added before the next step is added (the arena is append-only), and dep
// must be a step added before step — together these make a Plan acyclic by
// construction (edges always point backward), which the drain's one
// forward pass relies on.
//
//mixnet:noalloc
func (p *Plan) AddDep(step, dep int) {
	s := &p.steps[step]
	if int(s.depOff)+int(s.depLen) != len(p.deps) {
		panic("commplan: AddDep after another step was added")
	}
	if dep < 0 || dep >= step {
		panic("commplan: AddDep on a step not added before it")
	}
	p.deps = append(p.deps, int32(dep))
	s.depLen++
}

// Deps returns a step's dependency IDs (a view into the arena).
//
//mixnet:noalloc
func (p *Plan) Deps(id int) []int32 {
	s := &p.steps[id]
	return p.deps[s.depOff : s.depOff+int32(s.depLen)]
}

// BatchWidths reports, for each round of the last drain that priced any of
// this plan's steps, how many of them that round priced, in round order;
// the widths sum to the plan's simulated-step count. Execute and
// MergedExec.Execute both record them. The slice is valid until the next
// drain or Reset.
func (p *Plan) BatchWidths() []int { return p.widths }

// Makespans sums the simulated makespans of every step of the given kind —
// a convenience for accounting checks.
func (p *Plan) Makespans(kind Kind) float64 {
	var s float64
	for i := range p.steps {
		if p.steps[i].Kind == kind {
			s += p.steps[i].Makespan
		}
	}
	return s
}

// MakespanWindow returns the critical-path length of the step range
// [lo, hi): the longest chain of per-step makespans along dependency edges
// whose endpoints both lie in the range (edges into earlier windows are
// treated as already satisfied at time zero). Because AddDep only accepts
// already-added steps, ID order is a topological order and one forward pass
// suffices. Call after Execute has filled Makespans; the scratch is reused,
// so steady-state calls allocate nothing.
//
//mixnet:noalloc
func (p *Plan) MakespanWindow(lo, hi int) float64 {
	if lo < 0 {
		lo = 0
	}
	if hi > len(p.steps) {
		hi = len(p.steps)
	}
	if lo >= hi {
		return 0
	}
	n := hi - lo
	if cap(p.finish) < n {
		p.finish = make([]float64, n)
	}
	fin := p.finish[:n]
	var cp float64
	for i := lo; i < hi; i++ {
		var start float64
		for _, d := range p.Deps(i) {
			if int(d) >= lo {
				if f := fin[int(d)-lo]; f > start {
					start = f
				}
			}
		}
		f := start + p.steps[i].Makespan
		fin[i-lo] = f
		if f > cp {
			cp = f
		}
	}
	return cp
}

// CriticalPath is MakespanWindow over the whole plan.
func (p *Plan) CriticalPath() float64 { return p.MakespanWindow(0, len(p.steps)) }

// label is the drain's scheduling pass. It gives every step its round —
// the maximum over its dependencies of the dependency's round, plus one
// when that dependency is simulated — and prices every zero-flow step at
// its Delay. It then lists the simulated steps by round in p.order, in ID
// order within a round, and records each round's count in p.widths.
//
//mixnet:noalloc
func (p *Plan) label() {
	n := len(p.steps)
	if cap(p.round) < n {
		p.round = make([]int32, n)
		p.order = make([]int32, n)
	}
	round := p.round[:n]
	p.widths = p.widths[:0]
	for i := range p.steps {
		s := &p.steps[i]
		var r int32
		for _, d := range p.Deps(i) {
			rd := round[d]
			if p.steps[d].Phases != nil {
				rd++
			}
			r = max(r, rd)
		}
		round[i] = r
		if s.Phases == nil {
			s.Makespan = s.Delay
			continue
		}
		// Every earlier simulated step's round is below len(widths), so r
		// is at most len(widths): rounds are never skipped.
		if int(r) == len(p.widths) {
			p.widths = append(p.widths, 0)
		}
		p.widths[r]++
	}
	// Counting sort by round: widths turns into each round's start offset,
	// advances to the round's end while filling, and turns back into counts.
	off := 0
	for r, w := range p.widths {
		p.widths[r] = off
		off += w
	}
	for i := range p.steps {
		if p.steps[i].Phases != nil {
			r := round[i]
			p.order[p.widths[r]] = int32(i)
			p.widths[r]++
		}
	}
	for r := len(p.widths) - 1; r > 0; r-- {
		p.widths[r] -= p.widths[r-1]
	}
}

// Execute simulates the plan on b over g: the one-plan case of
// MergedExec.Execute. The simulated steps of each round are priced by one
// Makespan call each, round by round; zero-flow steps resolve to their
// Delay without a backend call. Per-step makespans and per-flow finish
// times are byte-identical to pricing each step alone with Makespan in ID
// order: steps are independent simulations, so the drain order cannot
// influence results.
func (p *Plan) Execute(g *topo.Graph, b netsim.Backend) error {
	return p.exec.Execute(g, b, []*Plan{p})
}
