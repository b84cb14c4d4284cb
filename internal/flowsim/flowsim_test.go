package flowsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mixnet/internal/topo"
)

// chain builds a linear topology n0 - n1 - ... with the given bandwidth.
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

func TestSingleFlow(t *testing.T) {
	g, nodes := chain(80e9, 1) // 80 Gb/s = 10 GB/s
	f := &Flow{ID: 1, Path: route(t, g, nodes[0], nodes[1]), Bytes: 10e9}
	res, err := NewSim().Simulate(g, []*Flow{f})
	if err != nil {
		t.Fatal(err)
	}
	want := 1.0 + 1e-6 // 10 GB at 10 GB/s + 1us latency
	if math.Abs(f.Finish-want) > 1e-7 {
		t.Errorf("Finish = %v, want %v", f.Finish, want)
	}
	if res.Makespan != f.Finish {
		t.Errorf("Makespan = %v, want %v", res.Makespan, f.Finish)
	}
}

func TestTwoFlowsShareBottleneck(t *testing.T) {
	g, nodes := chain(80e9, 1)
	rt := route(t, g, nodes[0], nodes[1])
	f1 := &Flow{ID: 1, Path: rt, Bytes: 10e9}
	f2 := &Flow{ID: 2, Path: rt, Bytes: 10e9}
	if _, err := NewSim().Simulate(g, []*Flow{f1, f2}); err != nil {
		t.Fatal(err)
	}
	// Equal shares: both finish at 2s.
	if math.Abs(f1.Finish-2) > 1e-5 || math.Abs(f2.Finish-2) > 1e-5 {
		t.Errorf("Finish = %v, %v; want ~2s each", f1.Finish, f2.Finish)
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	g, nodes := chain(80e9, 1)
	rt := route(t, g, nodes[0], nodes[1])
	long := &Flow{ID: 1, Path: rt, Bytes: 15e9}
	short := &Flow{ID: 2, Path: rt, Bytes: 5e9}
	if _, err := NewSim().Simulate(g, []*Flow{long, short}); err != nil {
		t.Fatal(err)
	}
	// Share until short done at t=1 (5GB at 5GB/s), then long alone:
	// long has 10GB left at 10GB/s => finishes at 2.
	if math.Abs(short.Finish-1) > 1e-5 {
		t.Errorf("short Finish = %v, want ~1", short.Finish)
	}
	if math.Abs(long.Finish-2) > 1e-5 {
		t.Errorf("long Finish = %v, want ~2", long.Finish)
	}
}

func TestParkingLot(t *testing.T) {
	// Classic parking lot: one long flow across 2 hops, one short flow on
	// each hop. Max-min: every flow gets 1/2 of each link.
	g, nodes := chain(80e9, 2)
	longF := &Flow{ID: 1, Path: route(t, g, nodes[0], nodes[2]), Bytes: 5e9}
	h1 := &Flow{ID: 2, Path: route(t, g, nodes[0], nodes[1]), Bytes: 5e9}
	h2 := &Flow{ID: 3, Path: route(t, g, nodes[1], nodes[2]), Bytes: 5e9}
	if _, err := NewSim().Simulate(g, []*Flow{longF, h1, h2}); err != nil {
		t.Fatal(err)
	}
	for _, f := range []*Flow{longF, h1, h2} {
		if math.Abs(f.Finish-1) > 1e-5 {
			t.Errorf("flow %d Finish = %v, want ~1", f.ID, f.Finish)
		}
	}
}

func TestMaxMinUnevenPaths(t *testing.T) {
	// Two links: A->B 80G, B->C 40G. Flow1 A->C, Flow2 A->B.
	g := topo.NewGraph()
	a := g.AddNode(topo.KindNIC, "", -1, -1, -1)
	b := g.AddNode(topo.KindNIC, "", -1, -1, -1)
	c := g.AddNode(topo.KindNIC, "", -1, -1, -1)
	g.AddDuplex(a, b, 80e9, 0)
	g.AddDuplex(b, c, 40e9, 0)
	f1 := &Flow{ID: 1, Path: route(t, g, a, c), Bytes: 5e9}
	f2 := &Flow{ID: 2, Path: route(t, g, a, b), Bytes: 5e9}
	if _, err := NewSim().Simulate(g, []*Flow{f1, f2}); err != nil {
		t.Fatal(err)
	}
	// f1 limited by B->C at 5 GB/s; f2 gets remaining 5 GB/s of A->B.
	if math.Abs(f1.Finish-1) > 1e-5 {
		t.Errorf("f1 Finish = %v, want ~1", f1.Finish)
	}
	if math.Abs(f2.Finish-1) > 1e-5 {
		t.Errorf("f2 Finish = %v, want ~1", f2.Finish)
	}
}

func TestDelayedStart(t *testing.T) {
	g, nodes := chain(80e9, 1)
	rt := route(t, g, nodes[0], nodes[1])
	f1 := &Flow{ID: 1, Path: rt, Bytes: 10e9}
	f2 := &Flow{ID: 2, Path: rt, Bytes: 10e9, Start: 1.0}
	if _, err := NewSim().Simulate(g, []*Flow{f1, f2}); err != nil {
		t.Fatal(err)
	}
	// f1 alone [0,1): does 10GB by t=1... finishes exactly at 1 (before
	// f2's arrival matters).
	if math.Abs(f1.Finish-1) > 1e-4 {
		t.Errorf("f1 Finish = %v, want ~1", f1.Finish)
	}
	if math.Abs(f2.Finish-2) > 1e-4 {
		t.Errorf("f2 Finish = %v, want ~2", f2.Finish)
	}
}

func TestZeroByteFlow(t *testing.T) {
	g, nodes := chain(80e9, 3)
	f := &Flow{ID: 1, Path: route(t, g, nodes[0], nodes[3]), Bytes: 0}
	if _, err := NewSim().Simulate(g, []*Flow{f}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.Finish-3e-6) > 1e-9 {
		t.Errorf("zero-byte Finish = %v, want path latency 3us", f.Finish)
	}
}

func TestEmptyPathFlow(t *testing.T) {
	g, _ := chain(80e9, 1)
	f := &Flow{ID: 1, Bytes: 1e9, Start: 0.5}
	if _, err := NewSim().Simulate(g, []*Flow{f}); err != nil {
		t.Fatal(err)
	}
	if f.Finish != 0.5 {
		t.Errorf("intra-node flow Finish = %v, want start time", f.Finish)
	}
}

func TestDownLinkErrors(t *testing.T) {
	g, nodes := chain(80e9, 1)
	rt := route(t, g, nodes[0], nodes[1])
	g.SetLinkUp(rt[0], false)
	if _, err := NewSim().Simulate(g, []*Flow{{ID: 1, Path: rt, Bytes: 1}}); err == nil {
		t.Error("expected error for flow over down link")
	}
}

// TestNonPositiveCapacityErrors: a zero or negative link rate is rejected
// like a down link instead of spinning progressive filling forever.
func TestNonPositiveCapacityErrors(t *testing.T) {
	for _, bps := range []float64{0, -400e9} {
		g, nodes := chain(bps, 2)
		rt := route(t, g, nodes[0], nodes[2])
		done := make(chan error, 1)
		go func() { _, err := NewSim().Simulate(g, []*Flow{{ID: 1, Path: rt, Bytes: 1 << 20}}); done <- err }()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("bps %g: flow over a non-positive-capacity link accepted", bps)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("bps %g: Simulate did not return", bps)
		}
	}
}

// TestNonFiniteFlowErrors: an infinite or NaN size or start is rejected
// instead of spinning the event loop forever or, for an infinite start,
// reporting an infinite makespan.
func TestNonFiniteFlowErrors(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name         string
		bytes, start float64
	}{
		{"+Inf bytes", inf, 0}, {"NaN bytes", nan, 0},
		{"NaN start", 1 << 20, nan}, {"+Inf start", 1 << 20, inf},
	} {
		g, nodes := chain(80e9, 1)
		rt := route(t, g, nodes[0], nodes[1])
		done := make(chan error, 1)
		go func() {
			_, err := NewSim().Simulate(g, []*Flow{{ID: 1, Path: rt, Bytes: c.bytes, Start: c.start}})
			done <- err
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("%s: flow accepted", c.name)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: Simulate did not return", c.name)
		}
	}
}

func TestNegativeBytesErrors(t *testing.T) {
	g, nodes := chain(80e9, 1)
	rt := route(t, g, nodes[0], nodes[1])
	if _, err := NewSim().Simulate(g, []*Flow{{ID: 1, Path: rt, Bytes: -5}}); err == nil {
		t.Error("expected error for negative bytes")
	}
}

func TestNoFlows(t *testing.T) {
	g, _ := chain(80e9, 1)
	res, err := NewSim().Simulate(g, nil)
	if err != nil || res.Makespan != 0 {
		t.Errorf("empty simulate: %v, %v", res, err)
	}
}

// Property: makespan is at least the ideal serialisation bound of the most
// loaded link and at most the sum of all flow times over the slowest link.
func TestPropertyMakespanBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bps := 10e9 * (1 + rng.Float64()*9)
		g, nodes := chain(bps, 1)
		rt := topo.Route{g.Out(nodes[0])[0]}
		n := 1 + rng.Intn(10)
		var flows []*Flow
		var total float64
		for i := 0; i < n; i++ {
			b := 1e6 * (1 + rng.Float64()*100)
			total += b
			flows = append(flows, &Flow{ID: i, Path: rt, Bytes: b})
		}
		res, err := NewSim().Simulate(g, flows)
		if err != nil {
			return false
		}
		ideal := total / (bps / 8)
		lat := 1e-6
		return res.Makespan >= ideal-1e-9 && res.Makespan <= ideal+lat+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: work conservation on a single bottleneck — the link is never
// idle while flows remain, so makespan equals total bytes / capacity
// regardless of start-time pattern (as long as arrivals never drain it).
func TestPropertyConservationWithArrivals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, nodes := chain(8e9, 1) // 1 GB/s
		rt := topo.Route{g.Out(nodes[0])[0]}
		var flows []*Flow
		flows = append(flows, &Flow{ID: 0, Path: rt, Bytes: 10e9}) // 10s alone
		n := rng.Intn(6)
		total := 10e9
		for i := 1; i <= n; i++ {
			b := 1e8 * (1 + rng.Float64()*10)
			total += b
			// Arrivals within the first flow's lifetime keep the link busy.
			flows = append(flows, &Flow{ID: i, Path: rt, Bytes: b, Start: rng.Float64() * 5})
		}
		res, err := NewSim().Simulate(g, flows)
		if err != nil {
			return false
		}
		want := total / 1e9
		return math.Abs(res.Makespan-want) < 1e-4*want+2e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: adding a flow never makes any existing flow finish earlier.
func TestPropertyMonotoneUnderLoad(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g, nodes := chain(10e9, 2)
		r := topo.NewBFSRouter(g)
		rtFull, _ := r.Route(nodes[0], nodes[2], 0)
		rtHalf, _ := r.Route(nodes[0], nodes[1], 0)
		base := []*Flow{
			{ID: 1, Path: rtFull, Bytes: 1e9 * (1 + rng.Float64())},
			{ID: 2, Path: rtHalf, Bytes: 1e9 * (1 + rng.Float64())},
		}
		if _, err := NewSim().Simulate(g, base); err != nil {
			return false
		}
		f1, f2 := base[0].Finish, base[1].Finish
		more := append(base, &Flow{ID: 3, Path: rtFull, Bytes: 5e8})
		if _, err := NewSim().Simulate(g, more); err != nil {
			return false
		}
		return more[0].Finish >= f1-1e-9 && more[1].Finish >= f2-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestEventsCountsReratedFlows pins Result.Events by hand. Two
// link-disjoint chains of one 10 GB/s link each carry two flows apiece,
// with staggered sizes:
//
//	t=0     all four arrive; both chains are re-rated: 4 rates (5 GB/s each)
//	t=1     a1 (5 GB) retires; only chain A is re-rated: 1 rate (a2)
//	t=1.5   b1 (7.5 GB) retires; only chain B is re-rated: 1 rate (b2)
//	t=2     a2 (15 GB) retires; chain A has no active flow left: 0 rates
//	t=3.25  b2 (25 GB) retires and the run ends
//
// so Events is 6, where a full refill at every event would assign
// 4+3+2+1 = 10 rates. The same four flows on one link are one component,
// and Events is the sum of the active flows over all events: 4+3+2+1 = 10.
func TestEventsCountsReratedFlows(t *testing.T) {
	g := topo.NewGraph()
	a0, a1 := g.AddNode(topo.KindNIC, "", -1, -1, -1), g.AddNode(topo.KindNIC, "", -1, -1, -1)
	b0, b1 := g.AddNode(topo.KindNIC, "", -1, -1, -1), g.AddNode(topo.KindNIC, "", -1, -1, -1)
	g.AddDuplex(a0, a1, 80e9, 0)
	g.AddDuplex(b0, b1, 80e9, 0)
	ra, rb := route(t, g, a0, a1), route(t, g, b0, b1)
	for _, c := range []struct {
		name   string
		pathB  topo.Route
		events int
		finish [4]float64 // a1, a2, b1, b2
	}{
		{"two chains", rb, 6, [4]float64{1, 2, 1.5, 3.25}},
		{"one chain", ra, 10, [4]float64{2, 4.25, 2.75, 5.25}},
	} {
		flows := []*Flow{
			{ID: 1, Path: ra, Bytes: 5e9}, {ID: 2, Path: ra, Bytes: 15e9},
			{ID: 3, Path: c.pathB, Bytes: 7.5e9}, {ID: 4, Path: c.pathB, Bytes: 25e9},
		}
		res, err := NewSim().Simulate(g, flows)
		if err != nil {
			t.Fatal(err)
		}
		if res.Events != c.events {
			t.Errorf("%s: Events = %d, want %d", c.name, res.Events, c.events)
		}
		for i, f := range flows {
			if math.Abs(f.Finish-c.finish[i]) > 1e-9 {
				t.Errorf("%s: flow %d Finish = %v, want %v", c.name, f.ID, f.Finish, c.finish[i])
			}
		}
	}
}
