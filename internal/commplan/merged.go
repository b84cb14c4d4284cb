package commplan

import (
	"fmt"

	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// MergedExec is the package's one drain loop. It drains several
// independent plans — one per co-scheduled training job (internal/tenancy),
// or the single plan of Plan.Execute — on ONE shared backend: round r
// collects every plan's round-r simulated steps, plan-major and in ID order
// within a plan, and prices each collected step with one Makespan call, in
// collection order. The rounds define each plan's Plan.BatchWidths and
// Plan.Stats and, under Contend, which steps of different plans run
// concurrently. Plans must not share Flow pointers (each engine compiles
// its own). The drain visits plans in slice order, so results are
// deterministic and — with a canonically sorted plan slice — independent
// of job submission order.
//
// With Contend unset (the default), per-step results are byte-identical to
// pricing each step alone: steps are independent simulations, so what
// shares a round cannot influence them.
// With Contend set, the k-th simulated step in ID order of each plan's
// round r forms one cross-plan group, and a group whose members' flows
// share a link in some phase is fused into one co-simulated workload (phase
// p of each aligned with phase p of the others), so flows crossing shared
// links are priced under max-min contention with the neighbour tenant's
// flows instead of in isolation. Link-disjoint groups are priced alone,
// bitwise as without Contend. Steps of the same plan are never fused —
// within one job, a round groups steps that are serialized in real time,
// whereas distinct jobs genuinely run concurrently. Each member's time is
// read back from its own flows' Finish fields, so Contend needs a backend
// that reports per-flow completion times (netsim.FlowTimes); Execute
// rejects the analytic backends.
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
	p    *Plan
	next int32 // offset of the plan's current round in p.order
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

// Execute drains all plans on b over g, one merged round of simulated
// steps at a time. Empty plans are permitted. See the type comment for the
// determinism and contention contracts.
func (m *MergedExec) Execute(g *topo.Graph, b netsim.Backend, plans []*Plan) error {
	if m.Contend && !netsim.FlowTimes(b.Name()) {
		return fmt.Errorf("commplan: contended pricing needs per-flow completion times; the %s backend reports only serialization bounds", b.Name())
	}
	if cap(m.states) < len(plans) {
		m.states = make([]mergedState, len(plans))
	}
	m.states = m.states[:len(plans)]
	rounds := 0
	for pi, p := range plans {
		p.label()
		m.states[pi] = mergedState{p: p}
		rounds = max(rounds, len(p.widths))
	}
	for r := 0; r < rounds; r++ {
		m.collect(r)
		if err := m.simulateRound(g, b); err != nil {
			return err
		}
		m.fronts.record(len(m.ids))
		for pi := range m.states {
			if st := &m.states[pi]; st.roundN > 0 {
				st.p.fronts.record(int(st.roundN))
			}
		}
	}
	clear(m.states)
	return nil
}

// collect gathers every plan's round-r simulated steps into the merged
// batch, plan-major.
//
//mixnet:noalloc
func (m *MergedExec) collect(r int) {
	m.batch, m.owners, m.ids = m.batch[:0], m.owners[:0], m.ids[:0]
	for pi := range m.states {
		st := &m.states[pi]
		st.roundOff, st.roundN = int32(len(m.ids)), 0
		if r >= len(st.p.widths) {
			continue
		}
		st.roundN = int32(st.p.widths[r])
		for _, id := range st.p.order[st.next : st.next+st.roundN] {
			m.batch = append(m.batch, st.p.steps[id].Phases)
			m.owners = append(m.owners, int32(pi))
			m.ids = append(m.ids, id)
		}
		st.next += st.roundN
	}
}

// simulateRound prices every step the current round collected, writing each
// step's Makespan. Non-contended, each step is priced alone, in collection
// order. Contended, steps of different plans at the same round position
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
	// Contended: group by round position. Position k of the round holds
	// the k-th simulated step, in ID order, of every plan that has one.
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
// members of the cross-plan group at round position k cross the same
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

// simulateFused co-simulates the cross-plan group at round position k of
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
