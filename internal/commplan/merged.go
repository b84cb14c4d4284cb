package commplan

import (
	"fmt"

	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// MergedExec is the package's one frontier drain. It drains several
// independent plans — one per co-scheduled training job (internal/tenancy),
// or the single plan of Plan.Execute — on ONE shared backend, collecting
// every round's ready frontiers across all plans and pricing each collected
// step with one Makespan call, in collection order. The rounds define each
// plan's Plan.BatchWidths and Plan.Stats and, under Contend, which steps of
// different plans run concurrently. Plans must not share Flow pointers
// (each engine compiles its own), and the executor visits plans in slice
// order and each plan's steps in its own deterministic topological-ready
// order, so results are deterministic and — with a canonically sorted plan
// slice — independent of job submission order.
//
// With Contend unset (the default), per-step results are byte-identical to
// pricing each step alone: steps are independent simulations, so what
// shares a round cannot influence them.
// With Contend set, steps of *different* plans that become ready in the
// same round and at the same frontier position, and whose flows share a
// link in some phase, are fused into one co-simulated workload (phase k of
// each aligned with phase k of the others), so flows crossing shared links
// are priced under max-min contention with the neighbour tenant's flows
// instead of in isolation. Link-disjoint steps are priced alone, bitwise as
// without Contend. Steps of the same plan are never fused — within one
// job, a round groups steps that are serialized in real time, whereas
// distinct jobs genuinely run concurrently. Each member's time is read
// back from its own flows' Finish fields, so Contend needs a backend that
// reports per-flow completion times (netsim.FlowTimes); Execute rejects
// the analytic backends.
type MergedExec struct {
	// Contend enables cross-plan contention pricing (see type comment).
	Contend bool

	// per-plan drain state, reused across calls.
	states []mergedState

	// merged-round scratch: the round's simulated steps in collection
	// order, each entry's owning plan and step ID, and each plan's slice of
	// the round.
	batch  []netsim.Phases
	owners []int32
	ids    []int32

	// contended-mode scratch: flow copies with remapped IDs (simulating a
	// fused workload must not mutate the plans' own flows — their Finish
	// fields belong to the solo semantics) and the fused phase arenas.
	flowBuf []netsim.Flow
	fused   []([]*netsim.Flow)
	// link-sharing probe: per link storage slot, the stamp of the phase
	// that last used it and the member that used it then.
	linkStamp []uint32
	linkOwner []int32
	stamp     uint32

	// cumulative merged-frontier stats.
	fronts     widthStats
	fusedSteps uint64
}

// mergedState is one plan's drain progress inside a merged execution.
type mergedState struct {
	p     *Plan
	indeg []int32
	queue []int32
	// roundOff/roundN locate the plan's simulated steps of the current
	// round inside the merged round (contended-mode grouping, and the
	// plan's own width of the round).
	roundOff, roundN int32
}

// MergedStats reports the cumulative merged-frontier counters: how many
// merged rounds ran and how wide they were, and — in contended mode — how
// many steps were co-simulated with a neighbour plan's steps.
type MergedStats struct {
	Batches    uint64
	WidthMax   int
	WidthMean  float64
	FusedSteps uint64
}

// NewMergedExec returns an empty merged executor; scratch grows on first
// use and is reused across calls.
func NewMergedExec() *MergedExec { return &MergedExec{} }

// Stats returns the cumulative merged-frontier counters.
func (m *MergedExec) Stats() MergedStats {
	return MergedStats{Batches: m.fronts.rounds, WidthMax: m.fronts.max,
		WidthMean: m.fronts.mean(), FusedSteps: m.fusedSteps}
}

// grow sizes the merged scratch for the given plans.
func (m *MergedExec) grow(plans []*Plan) {
	if cap(m.states) < len(plans) {
		m.states = make([]mergedState, len(plans))
	}
	m.states = m.states[:len(plans)]
	total := 0
	for _, p := range plans {
		total += len(p.steps)
	}
	if cap(m.batch) < total {
		m.batch = make([]netsim.Phases, 0, total)
		m.owners = make([]int32, 0, total)
		m.ids = make([]int32, 0, total)
	}
}

// collectReady drains every plan's ready queue for one round: zero-flow
// steps (barriers, compute) resolve immediately — releasing successors into
// the same indexed pass — and simulated steps accumulate into the merged
// batch, plan-major. Returns the number of zero-flow steps resolved. This
// is the merged-frontier hot path: all appends land in preallocated arenas
// (grow sized them to the plans' total step count).
//
//mixnet:noalloc
func (m *MergedExec) collectReady() int {
	resolved := 0
	m.batch = m.batch[:0]
	m.owners = m.owners[:0]
	m.ids = m.ids[:0]
	for pi := range m.states {
		st := &m.states[pi]
		st.roundOff = int32(len(m.ids))
		for qi := 0; qi < len(st.queue); qi++ {
			id := st.queue[qi]
			s := &st.p.steps[id]
			if s.Phases == nil {
				s.Makespan = s.Delay
				resolved++
				st.queue = st.p.releaseInto(id, st.indeg, st.queue)
			} else {
				m.batch = append(m.batch, s.Phases)
				m.owners = append(m.owners, int32(pi))
				m.ids = append(m.ids, id)
			}
		}
		st.queue = st.queue[:0]
		st.roundN = int32(len(m.ids)) - st.roundOff
	}
	return resolved
}

// Execute drains all plans to completion on b over g, one merged round of
// ready simulated steps at a time. Empty plans are permitted. See the type
// comment for the determinism and contention contracts.
func (m *MergedExec) Execute(g *topo.Graph, b netsim.Backend, plans []*Plan) error {
	if m.Contend && !netsim.FlowTimes(b.Name()) {
		return fmt.Errorf("commplan: contended pricing needs per-flow completion times; the %s backend reports only serialization bounds", b.Name())
	}
	m.grow(plans)
	total := 0
	for pi, p := range plans {
		n := len(p.steps)
		total += n
		st := &m.states[pi]
		st.p = p
		p.widths = p.widths[:0]
		if n == 0 {
			st.indeg, st.queue = nil, nil
			continue
		}
		st.indeg = p.prepExec(n)
		st.queue = p.frontier[:0]
		for i := 0; i < n; i++ {
			if st.indeg[i] == 0 {
				st.queue = append(st.queue, int32(i))
			}
		}
	}
	done := 0
	for done < total {
		done += m.collectReady()
		if len(m.ids) == 0 {
			if done < total {
				return fmt.Errorf("commplan: dependency cycle (%d of %d steps scheduled)", done, total)
			}
			break
		}
		if err := m.simulateRound(g, b); err != nil {
			return err
		}
		m.fronts.record(len(m.ids))
		for pi := range m.states {
			if st := &m.states[pi]; st.roundN > 0 {
				st.p.widths = append(st.p.widths, int(st.roundN))
				st.p.fronts.record(int(st.roundN))
			}
		}
		done += len(m.ids)
		for k, id := range m.ids {
			st := &m.states[m.owners[k]]
			st.queue = st.p.releaseInto(id, st.indeg, st.queue)
		}
	}
	for pi := range m.states {
		st := &m.states[pi]
		if st.p != nil && st.queue != nil {
			st.p.frontier = st.queue[:0]
		}
		st.p, st.indeg, st.queue = nil, nil, nil
	}
	return nil
}

// simulateRound prices every step the current round collected, writing each
// step's Makespan. Non-contended, each step is priced alone, in collection
// order. Contended, steps of different plans at the same frontier position
// fuse into one co-simulated workload when their flows share a link in some
// phase; steps with no cross-plan partner, or none they share a link with,
// still run solo.
func (m *MergedExec) simulateRound(g *topo.Graph, b netsim.Backend) error {
	if !m.Contend {
		for bi := range m.ids {
			if err := m.simulateSolo(g, b, int32(bi)); err != nil {
				return err
			}
		}
		return nil
	}
	// Contended: group by frontier position. Position k of the round holds
	// the k-th ready simulated step of every plan that has one.
	maxN := int32(0)
	for pi := range m.states {
		if n := m.states[pi].roundN; n > maxN {
			maxN = n
		}
	}
	for k := int32(0); k < maxN; k++ {
		if m.sharesLinks(g, k) {
			if err := m.simulateFused(g, b, k); err != nil {
				return err
			}
			continue
		}
		// A step with no cross-plan partner, or none it shares a link with,
		// cannot be slowed down by a neighbour: price each alone, bitwise
		// equal to the isolated drain.
		for pi := range m.states {
			st := &m.states[pi]
			if k >= st.roundN {
				continue
			}
			if err := m.simulateSolo(g, b, st.roundOff+k); err != nil {
				return err
			}
		}
	}
	return nil
}

// simulateSolo prices the round's collected step bi alone.
func (m *MergedExec) simulateSolo(g *topo.Graph, b netsim.Backend, bi int32) error {
	ms, err := b.Makespan(g, m.batch[bi])
	if err != nil {
		return err
	}
	m.states[m.owners[bi]].p.steps[m.ids[bi]].Makespan = ms
	return nil
}

// sharesLinks reports whether, in some phase, flows of two different
// members of the cross-plan group at frontier position k cross the same
// link — the only case in which fusing them changes anyone's time.
func (m *MergedExec) sharesLinks(g *topo.Graph, k int32) bool {
	if len(m.linkStamp) < len(g.Links) {
		m.linkStamp = make([]uint32, len(g.Links))
		m.linkOwner = make([]int32, len(g.Links))
		m.stamp = 0
	}
	for p := 0; ; p++ {
		m.stamp++
		if m.stamp == 0 {
			clear(m.linkStamp)
			m.stamp = 1
		}
		more := false
		for pi := range m.states {
			st := &m.states[pi]
			if k >= st.roundN {
				continue
			}
			member := m.batch[st.roundOff+k]
			if p >= len(member) {
				continue
			}
			more = true
			for _, f := range member[p] {
				for _, l := range f.Path {
					li := g.LinkIndex(l)
					if m.linkStamp[li] == m.stamp && m.linkOwner[li] != int32(pi) {
						return true
					}
					m.linkStamp[li], m.linkOwner[li] = m.stamp, int32(pi)
				}
			}
		}
		if !more {
			return false
		}
	}
}

// simulateFused co-simulates the cross-plan group at frontier position k of
// the current round: phase p of every member concatenates into phase p of
// one fused workload (flows copied with remapped unique IDs so the solo
// plans stay untouched), one Makespan call prices it, and each member's
// makespan is read back as the sum over its phases of its own flows' max
// finish time — its per-phase completion under shared-link contention with
// the other members' flows.
func (m *MergedExec) simulateFused(g *topo.Graph, b netsim.Backend, k int32) error {
	nPhases, nFlows := 0, 0
	for pi := range m.states {
		st := &m.states[pi]
		if k >= st.roundN {
			continue
		}
		bi := st.roundOff + k
		st.p.steps[m.ids[bi]].Makespan = 0 // accumulated per phase below
		ph := m.batch[bi]
		if len(ph) > nPhases {
			nPhases = len(ph)
		}
		for _, fs := range ph {
			nFlows += len(fs)
		}
	}
	if cap(m.flowBuf) < nFlows {
		m.flowBuf = make([]netsim.Flow, nFlows)
	}
	if cap(m.fused) < nPhases {
		m.fused = make([][]*netsim.Flow, nPhases)
	}
	buf := m.flowBuf[:nFlows]
	fused := m.fused[:nPhases]
	idx := 0
	for p := 0; p < nPhases; p++ {
		ph := fused[p][:0]
		for pi := range m.states {
			st := &m.states[pi]
			if k >= st.roundN {
				continue
			}
			member := m.batch[st.roundOff+k]
			if p >= len(member) {
				continue
			}
			for _, f := range member[p] {
				buf[idx] = *f
				buf[idx].ID = idx // unique across the fused workload
				buf[idx].Finish = 0
				ph = append(ph, &buf[idx])
				idx++
			}
		}
		fused[p] = ph
	}
	m.fused = fused[:cap(m.fused)]
	if _, err := b.Makespan(g, netsim.Phases(fused)); err != nil {
		return err
	}
	// Read back per-member makespans: the copies were written phase-major in
	// member order, so one cursor pass recovers each member's flows.
	idx = 0
	for p := 0; p < nPhases; p++ {
		for pi := range m.states {
			st := &m.states[pi]
			if k >= st.roundN {
				continue
			}
			member := m.batch[st.roundOff+k]
			if p >= len(member) {
				continue
			}
			var phaseMax float64
			for range member[p] {
				if buf[idx].Finish > phaseMax {
					phaseMax = buf[idx].Finish
				}
				idx++
			}
			bi := st.roundOff + k
			m.states[m.owners[bi]].p.steps[m.ids[bi]].Makespan += phaseMax
		}
	}
	for pi := range m.states {
		st := &m.states[pi]
		if k < st.roundN {
			m.fusedSteps++
		}
	}
	return nil
}
