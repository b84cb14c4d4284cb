package netsim

import (
	"testing"

	"mixnet/internal/eventsim"
	"mixnet/internal/packetsim"
	"mixnet/internal/topo"
)

// serialPacket is the packet backend's reference: every phase replays,
// unpartitioned, on one packetsim.Sim, and the step's makespan is the sum
// of the phases' in phase order. It converts flows exactly as Packet does
// (same MTU, byte rounding and start conversion), so the sharded, pooled
// backend must reproduce it bit for bit.
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
			buf[i] = packetsim.Flow{
				ID: f.ID, Path: f.Path,
				Bytes: int64(f.Bytes + 0.5), Start: eventsim.FromSeconds(f.Start),
			}
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

// serialMakespan is the per-step reference for any backend: a fresh
// instance prices the step alone — through serialPacket for the packet
// backend.
func serialMakespan(t *testing.T, name string, g *topo.Graph, phases Phases) float64 {
	t.Helper()
	if name == "packet" {
		return serialPacket(t, g, phases, "")
	}
	b, err := New(Config{Backend: name})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := b.Makespan(g, phases)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return ms
}
