package packetsim

import (
	"testing"

	"mixnet/internal/topo"
)

func TestCCRegistry(t *testing.T) {
	for _, name := range append(CCNames(), "") {
		cc, err := NewCC(Config{Window: 64, CC: name}.withDefaults())
		if err != nil {
			t.Fatalf("NewCC(%q): %v", name, err)
		}
		want := name
		if want == "" {
			want = CCFixed
		}
		if cc.Name() != want {
			t.Errorf("NewCC(%q).Name() = %q", name, cc.Name())
		}
		if err := ValidCC(name); err != nil {
			t.Errorf("ValidCC(%q): %v", name, err)
		}
	}
	if _, err := NewCC(Config{Window: 64, CC: "bbr"}); err == nil {
		t.Error("unknown controller accepted")
	}
	if err := ValidCC("bbr"); err == nil {
		t.Error("ValidCC accepted unknown controller")
	}
}

// incastFlows builds a star incast: n elephants at t=0 plus nShort late
// short flows, all into one destination NIC behind a single hot port.
func incastFlows(t *testing.T, n, nShort int) (*topo.Graph, []*Flow) {
	t.Helper()
	g := topo.NewGraph()
	dst := g.AddNode(topo.KindNIC, "", -1, -1, -1)
	sw := g.AddNode(topo.KindTor, "", -1, -1, -1)
	g.AddDuplex(sw, dst, 8e9, 1e-6) // 1 GB/s hot port
	var flows []*Flow
	add := func(id int, bytes int64, start Time) {
		src := g.AddNode(topo.KindNIC, "", -1, -1, -1)
		g.AddDuplex(src, sw, 8e9, 1e-6)
		rt, err := topo.NewBFSRouter(g).Route(src, dst, uint64(id))
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, &Flow{ID: id, Path: rt, Bytes: bytes, Start: start})
	}
	for i := 0; i < n; i++ {
		add(i, 8<<20, 0)
	}
	for i := 0; i < nShort; i++ {
		add(n+i, 64<<10, FromSeconds(2e-3))
	}
	return g, flows
}

// TestCCDeterministicAcrossRuns: every congestion controller must produce
// byte-identical makespans and per-flow finishes across repeated
// Sim.Simulate calls on a reused Sim, and match a fresh Sim.
func TestCCDeterministicAcrossRuns(t *testing.T) {
	for _, cc := range CCNames() {
		t.Run(cc, func(t *testing.T) {
			cfg := Config{CC: cc}
			g, fresh := incastFlows(t, 5, 3)
			want, err := NewSim().Simulate(g, fresh, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := NewSim()
			for run := 0; run < 3; run++ {
				_, flows := incastFlows(t, 5, 3)
				// Reuse the first graph so link IDs match busy-array sizing.
				got, err := s.Simulate(g, flows, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.Makespan != want.Makespan || got.Packets != want.Packets || got.Marks != want.Marks {
					t.Fatalf("run %d: %+v, want %+v", run, got, want)
				}
				for i := range flows {
					if flows[i].Finish != fresh[i].Finish {
						t.Errorf("run %d flow %d: Finish %v vs %v", run, i, flows[i].Finish, fresh[i].Finish)
					}
				}
			}
		})
	}
}

// TestCCDeterministicOnReusedFlows: re-simulating the same Flow structs must
// fully reset per-flow congestion state (cwnd, inflight, alpha, window
// counters) and reproduce identical results.
func TestCCDeterministicOnReusedFlows(t *testing.T) {
	for _, cc := range CCNames() {
		t.Run(cc, func(t *testing.T) {
			cfg := Config{CC: cc}
			g, flows := incastFlows(t, 4, 2)
			s := NewSim()
			first, err := s.Simulate(g, flows, cfg)
			if err != nil {
				t.Fatal(err)
			}
			firstFinish := make([]Time, len(flows))
			for i, f := range flows {
				firstFinish[i] = f.Finish
			}
			for run := 0; run < 3; run++ {
				got, err := s.Simulate(g, flows, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got != first {
					t.Fatalf("run %d: %+v, want %+v", run, got, first)
				}
				for i, f := range flows {
					if f.Finish != firstFinish[i] {
						t.Errorf("run %d flow %d: Finish %v vs %v", run, i, f.Finish, firstFinish[i])
					}
				}
			}
		})
	}
}

// TestDCQCNMarksUnderIncast: sustained incast must trip ECN marking.
func TestDCQCNMarksUnderIncast(t *testing.T) {
	g, flows := incastFlows(t, 5, 0)
	res, err := NewSim().Simulate(g, flows, Config{CC: CCDCQCN})
	if err != nil {
		t.Fatal(err)
	}
	if res.Marks == 0 {
		t.Error("dcqcn incast produced no ECN marks")
	}
	// The fixed baseline never marks.
	g2, flows2 := incastFlows(t, 5, 0)
	res2, err := NewSim().Simulate(g2, flows2, Config{CC: CCFixed})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Marks != 0 {
		t.Errorf("fixed controller marked %d packets", res2.Marks)
	}
}

// TestAdaptiveCCShortFlowLatency is the tentpole's behavioural regression:
// a short flow arriving mid-incast waits behind the fixed window's standing
// queue, while DCQCN/Swift keep the queue near threshold — its completion
// time must improve by a clear margin (1.4x here; the 16 KiB-MTU backend
// regime in abl_cc shows far larger gaps).
func TestAdaptiveCCShortFlowLatency(t *testing.T) {
	shortFCT := func(cc string) float64 {
		g, flows := incastFlows(t, 5, 1)
		if _, err := NewSim().Simulate(g, flows, Config{CC: cc}); err != nil {
			t.Fatal(err)
		}
		short := flows[len(flows)-1]
		return (short.Finish - short.Start).Seconds()
	}
	fixed := shortFCT(CCFixed)
	for _, cc := range []string{CCDCQCN, CCSwift} {
		if got := shortFCT(cc); got > fixed/1.4 {
			t.Errorf("%s short FCT %.3fms, fixed %.3fms: want at least 1.4x better", cc, got*1e3, fixed*1e3)
		}
	}
}

// TestAdaptiveCCWorkConserving: elephants alone must still finish within a
// few percent of the fixed baseline (the controllers shed queue, not
// throughput).
func TestAdaptiveCCWorkConserving(t *testing.T) {
	makespan := func(cc string) float64 {
		g, flows := incastFlows(t, 5, 0)
		res, err := NewSim().Simulate(g, flows, Config{CC: cc})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan.Seconds()
	}
	fixed := makespan(CCFixed)
	for _, cc := range []string{CCDCQCN, CCSwift} {
		got := makespan(cc)
		if got > fixed*1.05 {
			t.Errorf("%s makespan %.3fms vs fixed %.3fms: >5%% throughput loss", cc, got*1e3, fixed*1e3)
		}
	}
}

// TestCCSteadyStateAllocsStable extends the alloc guards to the congestion
// controllers: events are values in the Sim's queue and per-flow CC state
// lives inside the caller's Flows, so once the queue and busy array have
// grown a reused Sim allocates at most once per Simulate call (the
// controller's interface value) for every controller.
func TestCCSteadyStateAllocsStable(t *testing.T) {
	for _, cc := range CCNames() {
		t.Run(cc, func(t *testing.T) {
			cfg := Config{CC: cc}
			g, flows := incastFlows(t, 4, 2)
			s := NewSim()
			run := func() {
				if _, err := s.Simulate(g, flows, cfg); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm-up: grow the event queue and busy array
			if got := testing.AllocsPerRun(5, run); got > 1 {
				t.Errorf("warm Simulate allocates %v times per call, want at most 1", got)
			}
		})
	}
}

// TestECNThresholdScalesWithLinkSpeed: on a heterogeneous path the marking
// threshold must scale with link speed class. With the reference at the
// slowest class (the default), a fast first hop tolerates its startup burst
// — the same queueing *delay* any slow link tolerates — whereas expressing
// the same packet depth at the fast class (ECNRefBps = fast) over-marks
// both hops.
func TestECNThresholdScalesWithLinkSpeed(t *testing.T) {
	build := func() (*topo.Graph, []*Flow) {
		g := topo.NewGraph()
		src := g.AddNode(topo.KindNIC, "", -1, -1, -1)
		mid := g.AddNode(topo.KindTor, "", -1, -1, -1)
		dst := g.AddNode(topo.KindNIC, "", -1, -1, -1)
		g.AddDuplex(src, mid, 64e9, 1e-6) // fast class
		g.AddDuplex(mid, dst, 8e9, 1e-6)  // slow class
		rt, err := topo.NewBFSRouter(g).Route(src, dst, 0)
		if err != nil {
			t.Fatal(err)
		}
		return g, []*Flow{{ID: 1, Path: rt, Bytes: 16 << 20}}
	}
	marks := func(refBps float64) int64 {
		g, flows := build()
		res, err := NewSim().Simulate(g, flows, Config{CC: CCDCQCN, ECNRefBps: refBps})
		if err != nil {
			t.Fatal(err)
		}
		return res.Marks
	}
	auto := marks(0)       // reference resolves to the slowest class (8e9)
	slowRef := marks(8e9)  // explicit slow reference: identical
	fastRef := marks(64e9) // constant depth at the fast class: over-marks
	if auto != slowRef {
		t.Errorf("auto reference marks %d != explicit slow-class marks %d", auto, slowRef)
	}
	if fastRef <= auto {
		t.Errorf("fast-class reference marks %d, speed-scaled %d: scaling should reduce marking on heterogeneous links",
			fastRef, auto)
	}
	t.Logf("marks: speed-scaled %d, constant-depth-at-fast-class %d", auto, fastRef)
}
