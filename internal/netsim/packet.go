package netsim

import (
	"runtime"

	"mixnet/internal/eventsim"
	"mixnet/internal/packetsim"
	"mixnet/internal/topo"
)

// PacketMTU is the packet backend's payload bytes per packet: 16 KiB —
// coarser than packetsim's own 4 KiB default — so end-to-end training runs
// (hundreds of MB per all-to-all) stay tractable while per-flow packet
// counts remain in the thousands. Sources pace with packetsim's default
// window under the configured congestion controller.
const PacketMTU = 16384

// Packet is the event-driven packet-level backend (internal/packetsim,
// htsim-style). Every submission — one Makespan call or a whole
// BatchMakespan frontier — partitions each phase into link-disjoint shards
// and drains all (step, phase, shard) jobs on one pool of reusable event
// loops, so a step whose hot shard paces it overlaps other steps' shards.
// Event-queue storage, the per-link busy arrays, the partitioner arenas and
// the flow-conversion buffers all survive across calls.
type Packet struct {
	cfg     packetsim.Config
	workers int
	part    *Partitioner
	sharded *packetsim.ShardedSim

	buf     []packetsim.Flow
	ptrs    []*packetsim.Flow
	shards  [][]*packetsim.Flow // per-shard views into buf
	stepOf  []int               // shard index -> step index within the batch
	phaseOf []int               // shard index -> phase index within its step
	order   []*Flow             // netsim flows in partition order, for Finish copy-back
	totals  []float64           // per-step makespans of the last submission
	oneStep [1]Phases           // reusable single-step batch for Makespan
}

// NewPacket returns a reusable packet backend pacing with c.CC on a pool of
// c.Workers event loops (c.Backend is not consulted). Each submission's
// (step, phase, component) jobs drain on the pool, which never exceeds the
// job count; per-flow finish times are byte-identical at every size.
func NewPacket(c Config) *Packet {
	// packetsim resolves a non-positive worker count to GOMAXPROCS, so the
	// one-loop default must be spelled out.
	switch {
	case c.Workers < 0:
		c.Workers = runtime.GOMAXPROCS(0)
	case c.Workers == 0:
		c.Workers = 1
	}
	return &Packet{
		cfg:     packetsim.Config{MTU: PacketMTU, CC: c.CC},
		workers: c.Workers,
		part:    NewPartitioner(),
		sharded: packetsim.NewShardedSim(),
	}
}

// Workers returns the resolved event-loop bound (>= 1).
func (p *Packet) Workers() int { return p.workers }

// Name implements Backend.
func (*Packet) Name() string { return "packet" }

// Makespan implements Backend as a one-step submission.
func (p *Packet) Makespan(g *topo.Graph, phases Phases) (float64, error) {
	p.oneStep[0] = phases
	totals, err := p.submitBatch(g, p.oneStep[:])
	p.oneStep[0] = nil
	if err != nil {
		return 0, err
	}
	return totals[0], nil
}

// BatchMakespan implements Backend: every step's (phase, shard) jobs are
// flattened into one submission and the worker pool steals work across
// steps. The returned slice is owned by the backend and valid until the
// next call.
func (p *Packet) BatchMakespan(g *topo.Graph, steps []Phases) ([]float64, error) {
	return p.submitBatch(g, steps)
}

// convert fills buf[i]/ptrs[i] from a netsim flow.
func (p *Packet) convert(i int, f *Flow) {
	p.buf[i] = packetsim.Flow{
		ID:    f.ID,
		Path:  f.Path,
		Bytes: int64(f.Bytes + 0.5),
		Start: eventsim.FromSeconds(f.Start),
	}
	p.ptrs[i] = &p.buf[i]
}

// submitBatch partitions every (step, phase) into link-disjoint components
// and runs all (step, phase, shard) jobs on one worker pool. Phases are
// independent simulations — each starts from an empty network at virtual
// time 0, and a step's makespan is the sum of its phases' — so a step whose
// hot shard paces it can overlap other steps' shards instead of
// serialising the batch. Per-flow finish times (phase-relative, as always)
// and each step's summed makespan are byte-identical to replaying every
// phase, unpartitioned, on one event loop.
func (p *Packet) submitBatch(g *topo.Graph, steps []Phases) ([]float64, error) {
	if cap(p.totals) < len(steps) {
		p.totals = make([]float64, len(steps))
	}
	totals := p.totals[:len(steps)]
	nFlows := 0
	for _, phases := range steps {
		for _, fs := range phases {
			nFlows += len(fs)
		}
	}
	if nFlows == 0 {
		for i := range totals {
			totals[i] = 0
		}
		return totals, nil
	}
	if cap(p.buf) < nFlows {
		p.buf = make([]packetsim.Flow, nFlows)
		p.ptrs = make([]*packetsim.Flow, nFlows)
	}
	if cap(p.order) < nFlows {
		p.order = make([]*Flow, nFlows)
	}
	p.buf, p.ptrs = p.buf[:nFlows], p.ptrs[:nFlows]
	order := p.order[:nFlows]
	pshards, stepOf, phaseOf := p.shards[:0], p.stepOf[:0], p.phaseOf[:0]
	i := 0
	for si, phases := range steps {
		for pi, fs := range phases {
			if len(fs) == 0 {
				continue
			}
			// Shard views are consumed (converted into buf ranges) before the
			// next Partition call invalidates them.
			for _, shard := range p.part.PartitionGraph(g, fs) {
				start := i
				for _, f := range shard {
					p.convert(i, f)
					order[i] = f
					i++
				}
				pshards = append(pshards, p.ptrs[start:i:i])
				stepOf = append(stepOf, si)
				phaseOf = append(phaseOf, pi)
			}
		}
	}
	p.shards, p.stepOf, p.phaseOf = pshards, stepOf, phaseOf
	res, err := p.sharded.SimulateEach(g, pshards, p.cfg, p.workers)
	if err != nil {
		return nil, err
	}
	// Per step: sum per-phase maxima in phase order — "convert each phase's
	// makespan to seconds, then add", the float sequence of replaying the
	// phases one after another. Shards arrive grouped by (step, phase) in
	// input order.
	for i := range totals {
		totals[i] = 0
	}
	var phaseMax eventsim.Time
	curStep, curPhase := -1, -1
	for k, r := range res {
		if stepOf[k] != curStep || phaseOf[k] != curPhase {
			if curStep >= 0 {
				totals[curStep] += phaseMax.Seconds()
			}
			phaseMax, curStep, curPhase = 0, stepOf[k], phaseOf[k]
		}
		if r.Makespan > phaseMax {
			phaseMax = r.Makespan
		}
	}
	totals[curStep] += phaseMax.Seconds()
	for i, f := range order {
		f.Finish = p.buf[i].Finish.Seconds()
	}
	return totals, nil
}
