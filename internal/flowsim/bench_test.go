package flowsim

import (
	"math"
	"testing"

	"mixnet/internal/topo"
)

// star builds hosts NIC nodes all duplex-attached to one switch, the
// smallest topology where an all-to-all contends on every access link.
func star(hosts int, bps float64) (*topo.Graph, []topo.NodeID) {
	g := topo.NewGraph()
	return g, addStar(g, hosts, bps)
}

// addStar adds one star to g and returns its hosts.
func addStar(g *topo.Graph, hosts int, bps float64) []topo.NodeID {
	sw := g.AddNode(topo.KindTor, "sw", -1, -1, -1)
	nodes := make([]topo.NodeID, hosts)
	for i := range nodes {
		nodes[i] = g.AddNode(topo.KindNIC, "", -1, -1, -1)
		g.AddDuplex(nodes[i], sw, bps, 1e-6)
	}
	return nodes
}

// allToAllFlows emits one flow per ordered host pair (hosts*(hosts-1)).
func allToAllFlows(g *topo.Graph, nodes []topo.NodeID) []*Flow {
	r := topo.NewBFSRouter(g)
	var flows []*Flow
	id := 0
	for i, src := range nodes {
		for j, dst := range nodes {
			if i == j {
				continue
			}
			rt, err := r.Route(src, dst, uint64(id))
			if err != nil {
				panic(err)
			}
			id++
			flows = append(flows, &Flow{ID: id, Path: rt, Bytes: 1e8})
		}
	}
	return flows
}

// The acceptance scenario: a 1024+-flow all-to-all (33 hosts = 1056 flows).
func benchScenario() (*topo.Graph, []*Flow) {
	g, nodes := star(33, 100e9)
	return g, allToAllFlows(g, nodes)
}

// disjointScenario is the case component-scoped refills speed up: eight
// link-disjoint 6-host stars, each running an all-to-all (240 flows in
// all) whose flow sizes are staggered within and across stars, so most
// completions change one star while the other seven keep their rates.
func disjointScenario() (*topo.Graph, []*Flow) {
	g := topo.NewGraph()
	stars := make([][]topo.NodeID, 8)
	for k := range stars {
		stars[k] = addStar(g, 6, 100e9)
	}
	var flows []*Flow
	for k, nodes := range stars {
		for i, f := range allToAllFlows(g, nodes) {
			f.ID = len(flows)
			f.Bytes = 1e7 * float64(10+k) * float64(1+i%7)
			flows = append(flows, f)
		}
	}
	return g, flows
}

func BenchmarkSimulateAllToAll1056(b *testing.B) {
	benchSimulate(b, benchScenario)
}

func BenchmarkSimulateDisjoint(b *testing.B) {
	benchSimulate(b, disjointScenario)
}

func benchSimulate(b *testing.B, scenario func() (*topo.Graph, []*Flow)) {
	g, flows := scenario()
	sim := NewSim()
	if _, err := sim.Simulate(g, flows); err != nil { // warm buffers
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Simulate(g, flows); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkComputeMaxMin(b *testing.B) {
	g, flows := benchScenario()
	sim := NewSim()
	b.Run("arena", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sim.computeMaxMin(g, flows)
		}
	})
	b.Run("map-baseline", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			computeMaxMinMapRef(g, flows)
		}
	})
}

// TestSimulateSteadyStateZeroAllocs guards the tentpole property: once a
// Sim's buffers are warm, rate recomputation and the full Simulate loop
// perform zero heap allocations, on one component and on many.
func TestSimulateSteadyStateZeroAllocs(t *testing.T) {
	for name, scenario := range map[string]func() (*topo.Graph, []*Flow){
		"all-to-all": benchScenario, "disjoint": disjointScenario,
	} {
		g, flows := scenario()
		sim := NewSim()
		if _, err := sim.Simulate(g, flows); err != nil { // warm buffers
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := sim.Simulate(g, flows); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Sim.Simulate steady state allocates %v objects/run, want 0", name, allocs)
		}
		allocs = testing.AllocsPerRun(10, func() { sim.computeMaxMin(g, flows) })
		if allocs != 0 {
			t.Errorf("%s: computeMaxMin steady state allocates %v objects/run, want 0", name, allocs)
		}
	}
}

// TestArenaMatchesMapBaseline cross-checks the dense-arena progressive
// filling against the original map-based reference on the bench scenario.
func TestArenaMatchesMapBaseline(t *testing.T) {
	g, flows := benchScenario()
	sim := NewSim()
	sim.computeMaxMin(g, flows)
	arenaRates := make([]float64, len(flows))
	for i, f := range flows {
		arenaRates[i] = f.rate
	}
	computeMaxMinMapRef(g, flows)
	for i, f := range flows {
		if math.Abs(arenaRates[i]-f.rate) > 1e-6*f.rate {
			t.Fatalf("flow %d: arena rate %v != reference rate %v", i, arenaRates[i], f.rate)
		}
	}
}

// computeMaxMinMapRef is the pre-arena map-based progressive filling,
// preserved verbatim as the benchmark baseline and correctness reference.
func computeMaxMinMapRef(g *topo.Graph, active []*Flow) {
	type linkState struct {
		cap   float64
		count int
	}
	links := make(map[topo.LinkID]*linkState)
	for _, f := range active {
		f.frozen = false
		f.rate = 0
		for _, lid := range f.Path {
			ls := links[lid]
			if ls == nil {
				ls = &linkState{cap: g.Link(lid).Bps / 8}
				links[lid] = ls
			}
			ls.count++
		}
	}
	unfrozen := len(active)
	for unfrozen > 0 {
		min := math.Inf(1)
		for _, ls := range links {
			if ls.count == 0 {
				continue
			}
			if fair := ls.cap / float64(ls.count); fair < min {
				min = fair
			}
		}
		if math.IsInf(min, 1) {
			for _, f := range active {
				if !f.frozen {
					f.rate = math.Inf(1)
					f.frozen = true
					unfrozen--
				}
			}
			break
		}
		for _, f := range active {
			if f.frozen {
				continue
			}
			bottled := false
			for _, lid := range f.Path {
				ls := links[lid]
				if ls.count > 0 && ls.cap/float64(ls.count) <= min*(1+1e-12) {
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
				ls := links[lid]
				ls.cap -= min
				if ls.cap < 0 {
					ls.cap = 0
				}
				ls.count--
			}
		}
	}
}
