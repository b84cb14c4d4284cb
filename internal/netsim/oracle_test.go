package netsim

import (
	"testing"

	"mixnet/internal/packetsim"
	"mixnet/internal/topo"
)

// serialPacket is the packet backend's reference: every phase replays,
// unpartitioned, on one packetsim.Sim, and the step's makespan is the sum
// of the phases' in phase order. It converts flows with PacketFlow at the
// backend's MTU, so the sharded backend must reproduce it bit for bit.
func serialPacket(t *testing.T, g *topo.Graph, phases Phases, cc string) float64 {
	t.Helper()
	sim := packetsim.NewSim()
	cfg := packetsim.Config{MTU: PacketMTU, CC: cc}
	var total float64
	for _, fs := range phases {
		if len(fs) == 0 {
			continue
		}
		buf := make([]packetsim.Flow, len(fs))
		ptrs := make([]*packetsim.Flow, len(fs))
		for i, f := range fs {
			buf[i] = PacketFlow(f)
			ptrs[i] = &buf[i]
		}
		res, err := sim.Simulate(g, ptrs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range fs {
			f.Finish = buf[i].Finish.Seconds()
		}
		total += res.Makespan.Seconds()
	}
	return total
}
