package packetsim

import (
	"math"
	"math/rand"
	"testing"

	"mixnet/internal/flowsim"
	"mixnet/internal/topo"
)

func chain(bps float64, hops int) (*topo.Graph, []topo.NodeID) {
	g := topo.NewGraph()
	nodes := make([]topo.NodeID, hops+1)
	for i := range nodes {
		nodes[i] = g.AddNode(topo.KindNIC, "", -1, -1, -1)
	}
	for i := 0; i < hops; i++ {
		g.AddDuplex(nodes[i], nodes[i+1], bps, 1e-6)
	}
	return g, nodes
}

func route(t *testing.T, g *topo.Graph, src, dst topo.NodeID) topo.Route {
	t.Helper()
	r := topo.NewBFSRouter(g)
	rt, err := r.Route(src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestSinglePacket(t *testing.T) {
	g, nodes := chain(8e9, 1) // 1 GB/s
	f := &Flow{ID: 1, Path: route(t, g, nodes[0], nodes[1]), Bytes: 4096}
	res, err := NewSim().Simulate(g, []*Flow{f}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 4096B at 1GB/s = 4.096us tx + 1us latency.
	want := FromSeconds(4096/1e9 + 1e-6)
	if diff := f.Finish - want; diff < -10 || diff > 10 {
		t.Errorf("Finish = %v, want ~%v", f.Finish, want)
	}
	if res.Packets != 1 {
		t.Errorf("Packets = %d, want 1", res.Packets)
	}
}

func TestSingleFlowThroughput(t *testing.T) {
	g, nodes := chain(8e9, 1)
	f := &Flow{ID: 1, Path: route(t, g, nodes[0], nodes[1]), Bytes: 100 << 20} // 100 MiB
	if _, err := NewSim().Simulate(g, []*Flow{f}, Config{}); err != nil {
		t.Fatal(err)
	}
	ideal := float64(100<<20) / 1e9
	got := f.Finish.Seconds()
	if math.Abs(got-ideal)/ideal > 0.02 {
		t.Errorf("FCT = %v, ideal %v (>2%% off)", got, ideal)
	}
}

func TestShortPacketTail(t *testing.T) {
	g, nodes := chain(8e9, 1)
	// 5000 bytes = one full MTU + 904-byte tail.
	f := &Flow{ID: 1, Path: route(t, g, nodes[0], nodes[1]), Bytes: 5000}
	res, err := NewSim().Simulate(g, []*Flow{f}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Packets != 2 {
		t.Errorf("Packets = %d, want 2", res.Packets)
	}
	want := 5000/1e9 + 1e-6
	if math.Abs(f.Finish.Seconds()-want) > 1e-7 {
		t.Errorf("Finish = %v, want %v", f.Finish.Seconds(), want)
	}
}

func TestTwoFlowsFairShare(t *testing.T) {
	g, nodes := chain(8e9, 1)
	rt := route(t, g, nodes[0], nodes[1])
	f1 := &Flow{ID: 1, Path: rt, Bytes: 50 << 20}
	f2 := &Flow{ID: 2, Path: rt, Bytes: 50 << 20}
	if _, err := NewSim().Simulate(g, []*Flow{f1, f2}, Config{}); err != nil {
		t.Fatal(err)
	}
	// Both should finish near 100MiB/1GBps.
	ideal := float64(100<<20) / 1e9
	for _, f := range []*Flow{f1, f2} {
		if math.Abs(f.Finish.Seconds()-ideal)/ideal > 0.05 {
			t.Errorf("flow %d FCT %v, want ~%v", f.ID, f.Finish.Seconds(), ideal)
		}
	}
}

func TestZeroByteFlow(t *testing.T) {
	g, nodes := chain(8e9, 2)
	f := &Flow{ID: 1, Path: route(t, g, nodes[0], nodes[2]), Bytes: 0, Start: 100}
	if _, err := NewSim().Simulate(g, []*Flow{f}, Config{}); err != nil {
		t.Fatal(err)
	}
	want := Time(100) + FromSeconds(2e-6)
	if f.Finish != want {
		t.Errorf("Finish = %v, want %v", f.Finish, want)
	}
}

func TestDownLinkErrors(t *testing.T) {
	g, nodes := chain(8e9, 1)
	rt := route(t, g, nodes[0], nodes[1])
	g.SetLinkUp(rt[0], false)
	if _, err := NewSim().Simulate(g, []*Flow{{ID: 1, Path: rt, Bytes: 1}}, Config{}); err == nil {
		t.Error("expected error")
	}
}

func TestNegativeBytesErrors(t *testing.T) {
	g, nodes := chain(8e9, 1)
	rt := route(t, g, nodes[0], nodes[1])
	if _, err := NewSim().Simulate(g, []*Flow{{ID: 1, Path: rt, Bytes: -1}}, Config{}); err == nil {
		t.Error("expected error")
	}
}

func TestDelayedStart(t *testing.T) {
	g, nodes := chain(8e9, 1)
	rt := route(t, g, nodes[0], nodes[1])
	start := FromSeconds(0.01)
	f := &Flow{ID: 1, Path: rt, Bytes: 1 << 20, Start: start}
	if _, err := NewSim().Simulate(g, []*Flow{f}, Config{}); err != nil {
		t.Fatal(err)
	}
	if f.Finish <= start {
		t.Errorf("Finish %v not after Start %v", f.Finish, start)
	}
}

// Cross-validation: packet-level and fluid simulators agree on canonical
// scenarios within a few percent (§DESIGN decision 1).
func TestCrossCheckAgainstFlowsim(t *testing.T) {
	scenarios := []struct {
		name  string
		hops  int
		flows func(g *topo.Graph, nodes []topo.NodeID, tt *testing.T) ([]*Flow, []*flowsim.Flow)
	}{
		{
			name: "single-bottleneck-3-flows",
			hops: 1,
			flows: func(g *topo.Graph, nodes []topo.NodeID, tt *testing.T) ([]*Flow, []*flowsim.Flow) {
				rt := route(tt, g, nodes[0], nodes[1])
				var pf []*Flow
				var ff []*flowsim.Flow
				for i := 0; i < 3; i++ {
					size := int64(20+10*i) << 20
					pf = append(pf, &Flow{ID: i, Path: rt, Bytes: size})
					ff = append(ff, &flowsim.Flow{ID: i, Path: rt, Bytes: float64(size)})
				}
				return pf, ff
			},
		},
		{
			name: "parking-lot",
			hops: 2,
			flows: func(g *topo.Graph, nodes []topo.NodeID, tt *testing.T) ([]*Flow, []*flowsim.Flow) {
				rts := []topo.Route{
					route(tt, g, nodes[0], nodes[2]),
					route(tt, g, nodes[0], nodes[1]),
					route(tt, g, nodes[1], nodes[2]),
				}
				var pf []*Flow
				var ff []*flowsim.Flow
				for i, rt := range rts {
					pf = append(pf, &Flow{ID: i, Path: rt, Bytes: 30 << 20})
					ff = append(ff, &flowsim.Flow{ID: i, Path: rt, Bytes: float64(int64(30) << 20)})
				}
				return pf, ff
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			g, nodes := chain(8e9, sc.hops)
			pf, ff := sc.flows(g, nodes, t)
			pr, err := NewSim().Simulate(g, pf, Config{})
			if err != nil {
				t.Fatal(err)
			}
			fr, err := flowsim.NewSim().Simulate(g, ff)
			if err != nil {
				t.Fatal(err)
			}
			pm, fm := pr.Makespan.Seconds(), fr.Makespan
			if rel := math.Abs(pm-fm) / fm; rel > 0.08 {
				t.Errorf("packet %v vs fluid %v: %.1f%% apart", pm, fm, rel*100)
			}
		})
	}
}

// Property: work conservation — n same-size flows over one bottleneck take
// n times one flow, within tolerance.
func TestPropertyLinearScaling(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		g, nodes := chain(8e9, 1)
		rt := route(t, g, nodes[0], nodes[1])
		var flows []*Flow
		for i := 0; i < n; i++ {
			flows = append(flows, &Flow{ID: i, Path: rt, Bytes: 8 << 20})
		}
		res, err := NewSim().Simulate(g, flows, Config{})
		if err != nil {
			t.Fatal(err)
		}
		got := res.Makespan.Seconds()
		want := float64(n) * float64(8<<20) / 1e9
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("n=%d makespan %v, want ~%v", n, got, want)
		}
	}
}

// Property: random flow sets — no flow finishes before its minimum possible
// time (bytes at line rate + latency).
func TestPropertyNoSuperluminalFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g, nodes := chain(8e9, 3)
		r := topo.NewBFSRouter(g)
		var flows []*Flow
		for i := 0; i < 5; i++ {
			a := rng.Intn(len(nodes))
			b := rng.Intn(len(nodes))
			if a == b {
				continue
			}
			rt, err := r.Route(nodes[a], nodes[b], uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			flows = append(flows, &Flow{ID: i, Path: rt, Bytes: int64(rng.Intn(1 << 22))})
		}
		if _, err := NewSim().Simulate(g, flows, Config{}); err != nil {
			t.Fatal(err)
		}
		for _, f := range flows {
			minTime := float64(f.Bytes)/1e9 + topo.PathLatency(g, f.Path)
			if f.Finish.Seconds() < minTime-1e-9 {
				t.Errorf("flow %d finished at %v < physical bound %v", f.ID, f.Finish.Seconds(), minTime)
			}
		}
	}
}

func TestReusableSimMatchesSimulate(t *testing.T) {
	// A reused Sim must produce byte-identical results to a fresh Sim, across
	// repeated runs and graphs of different sizes.
	g1, nodes1 := chain(8e9, 3)
	g2, nodes2 := chain(4e9, 5)
	s := NewSim()
	for run := 0; run < 3; run++ {
		for _, tc := range []struct {
			g     *topo.Graph
			nodes []topo.NodeID
		}{{g1, nodes1}, {g2, nodes2}} {
			mk := func() []*Flow {
				return []*Flow{
					{ID: 1, Path: route(t, tc.g, tc.nodes[0], tc.nodes[len(tc.nodes)-1]), Bytes: 3 << 20},
					{ID: 2, Path: route(t, tc.g, tc.nodes[1], tc.nodes[len(tc.nodes)-1]), Bytes: 1 << 20},
				}
			}
			fresh := mk()
			want, err := NewSim().Simulate(tc.g, fresh, Config{})
			if err != nil {
				t.Fatal(err)
			}
			reused := mk()
			got, err := s.Simulate(tc.g, reused, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("run %d: reused Sim %+v, fresh %+v", run, got, want)
			}
			for i := range fresh {
				if reused[i].Finish != fresh[i].Finish {
					t.Errorf("run %d flow %d: Finish %v vs %v", run, i, reused[i].Finish, fresh[i].Finish)
				}
			}
		}
	}
}
