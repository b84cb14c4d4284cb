package netsim

import (
	"mixnet/internal/packetsim"
	"mixnet/internal/topo"
)

// PacketMTU is the packet backend's payload bytes per packet: 16 KiB —
// coarser than packetsim's own 4 KiB default — so end-to-end training runs
// (hundreds of MB per all-to-all) stay tractable while per-flow packet
// counts remain in the thousands. Sources pace with packetsim's default
// window under the configured congestion controller.
const PacketMTU = 16384

// PacketFlow converts a netsim flow into the packet simulator's form: bytes
// rounded to the nearest whole byte, start offset on the event clock. The
// packet backend and every packet-event replay convert through it.
func PacketFlow(f *Flow) packetsim.Flow {
	return packetsim.Flow{
		ID:    f.ID,
		Path:  f.Path,
		Bytes: int64(f.Bytes + 0.5),
		Start: packetsim.FromSeconds(f.Start),
	}
}

// Packet is the event-driven packet-level backend (internal/packetsim,
// htsim-style). Each phase is partitioned into link-disjoint shards, which
// simulate one after another on one reusable event loop, on the caller's
// goroutine. Shards share no link, so every flow finishes exactly when it
// would in one simulation of the whole phase, and the smaller per-shard
// event heaps drain faster. Event-queue storage, the per-link busy array,
// the partitioner arenas and the flow-conversion buffer all survive across
// calls.
type Packet struct {
	cfg  packetsim.Config
	part *Partitioner
	sim  *packetsim.Sim
	buf  []packetsim.Flow
	ptrs []*packetsim.Flow
}

// NewPacket returns a reusable packet backend pacing with c.CC (c.Backend
// is not consulted).
func NewPacket(c Config) *Packet {
	return &Packet{
		cfg:  packetsim.Config{MTU: PacketMTU, CC: c.CC},
		part: NewPartitioner(),
		sim:  packetsim.NewSim(),
	}
}

// Name implements Backend.
func (*Packet) Name() string { return "packet" }

// Makespan implements Backend. Phases are independent simulations — each
// starts from an empty network at virtual time 0 — and a phase's makespan
// is the latest finish over its shards, converted to seconds and added in
// phase order. Per-flow finish times are phase-relative.
func (p *Packet) Makespan(g *topo.Graph, phases Phases) (float64, error) {
	var total float64
	for _, fs := range phases {
		if len(fs) == 0 {
			continue
		}
		var phaseMax packetsim.Time
		for _, shard := range p.part.PartitionGraph(g, fs) {
			if cap(p.buf) < len(shard) {
				p.buf = make([]packetsim.Flow, len(shard))
				p.ptrs = make([]*packetsim.Flow, len(shard))
			}
			buf, ptrs := p.buf[:len(shard)], p.ptrs[:len(shard)]
			for i, f := range shard {
				buf[i] = PacketFlow(f)
				ptrs[i] = &buf[i]
			}
			res, err := p.sim.Simulate(g, ptrs, p.cfg)
			if err != nil {
				return 0, err
			}
			for i, f := range shard {
				f.Finish = buf[i].Finish.Seconds()
			}
			phaseMax = max(phaseMax, res.Makespan)
		}
		total += phaseMax.Seconds()
	}
	return total, nil
}
