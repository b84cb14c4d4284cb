package ocs

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mixnet/internal/metrics"
	"mixnet/internal/topo"
)

func TestCatalogMatchesTable2(t *testing.T) {
	cat := Catalog()
	if len(cat) != 7 {
		t.Fatalf("catalog rows = %d, want 7", len(cat))
	}
	// The port-count/agility trade-off: port counts must be descending
	// while delays (where reported) are non-increasing in agility order.
	for i := 1; i < len(cat); i++ {
		if cat[i].Ports >= cat[i-1].Ports {
			t.Errorf("catalog not in descending port order at %s", cat[i].Name)
		}
	}
	polatis := cat[1]
	if polatis.Ports != 576 || polatis.DelayLow != 10e-3 || polatis.DelayHigh != 25e-3 {
		t.Errorf("Polatis row wrong: %+v", polatis)
	}
}

func TestPolatisDelayDistribution(t *testing.T) {
	d := NewPolatisDevice(42)
	for _, tc := range []struct {
		pairs    int
		wantMean float64
	}{{1, 41.44e-3}, {4, 42.5e-3}, {16, 46.75e-3}} {
		var samples []float64
		for i := 0; i < 4000; i++ {
			samples = append(samples, d.ReconfigDelay(tc.pairs))
		}
		mean := metrics.Mean(samples)
		if math.Abs(mean-tc.wantMean)/tc.wantMean > 0.05 {
			t.Errorf("%d pairs: mean %.2fms, want ~%.2fms", tc.pairs, mean*1e3, tc.wantMean*1e3)
		}
		p99 := metrics.Percentile(samples, 99)
		if p99 > 70e-3 {
			t.Errorf("%d pairs: p99 %.1fms > 70ms (Appendix C bound)", tc.pairs, p99*1e3)
		}
		if p99 <= mean {
			t.Errorf("%d pairs: distribution has no tail", tc.pairs)
		}
	}
}

func TestFixedDevice(t *testing.T) {
	d := NewFixedDevice(25e-3)
	for pairs := 1; pairs <= 32; pairs *= 2 {
		if got := d.ReconfigDelay(pairs); got != 25e-3 {
			t.Errorf("fixed delay = %v, want 25ms", got)
		}
	}
}

func TestNICActivationPenalty(t *testing.T) {
	d := NewPolatisDevice(1).WithNICActivation()
	var samples []float64
	for i := 0; i < 2000; i++ {
		samples = append(samples, d.ReconfigDelay(1))
	}
	mean := metrics.Mean(samples)
	if mean < 5 || mean > 6.5 {
		t.Errorf("with NIC activation mean %.2fs, want ~5.7s", mean)
	}
}

func TestServerDemand(t *testing.T) {
	// 4 EP ranks, 2 per server.
	rank := metrics.NewMatrix(4, 4)
	rank.Set(0, 2, 100) // server 0 -> server 1
	rank.Set(2, 0, 50)  // server 1 -> server 0
	rank.Set(0, 1, 999) // intra-server, must be dropped
	d := ServerDemand(rank, []int{0, 0, 1, 1}, 2)
	if got := d.At(0, 1); got != 150 {
		t.Errorf("D[0][1] = %v, want 150 (TX+RX folded)", got)
	}
	if got := d.At(1, 0); got != 0 {
		t.Errorf("D[1][0] = %v, want 0 (upper triangular)", got)
	}
}

func TestGreedyAllocateFavorsBottleneck(t *testing.T) {
	// Server pair (0,1) has 10x the demand of (0,2) and (1,2).
	d := metrics.NewMatrix(3, 3)
	d.Set(0, 1, 1000)
	d.Set(0, 2, 100)
	d.Set(1, 2, 100)
	counts := GreedyAllocate(d, []int{6, 6, 6}, false)
	if counts[0][1] <= counts[0][2] {
		t.Errorf("hot pair got %d circuits, cold pair %d", counts[0][1], counts[0][2])
	}
	// Symmetry.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if counts[i][j] != counts[j][i] {
				t.Fatal("count matrix not symmetric")
			}
		}
	}
	// Budget respected.
	for i := 0; i < 3; i++ {
		tot := 0
		for j := 0; j < 3; j++ {
			tot += counts[i][j]
		}
		if tot > 6 {
			t.Errorf("server %d uses %d > 6 circuits", i, tot)
		}
	}
}

func TestGreedyAllocateEqualisesCompletionTimes(t *testing.T) {
	d := metrics.NewMatrix(2, 2)
	d.Set(0, 1, 600)
	counts := GreedyAllocate(d, []int{6, 6}, false)
	if counts[0][1] != 6 {
		t.Errorf("single hot pair should get all 6 circuits, got %d", counts[0][1])
	}
}

func TestGreedyStrictBreakStopsEarly(t *testing.T) {
	// Hot pair exhausts server 0's budget; strict break must then stop even
	// though (1,2) could still be served.
	d := metrics.NewMatrix(3, 3)
	d.Set(0, 1, 1000)
	d.Set(1, 2, 1)
	strict := GreedyAllocate(d, []int{2, 6, 6}, true)
	relaxed := GreedyAllocate(d, []int{2, 6, 6}, false)
	if relaxed[1][2] == 0 {
		t.Error("relaxed mode should serve the remaining pair")
	}
	totalStrict := strict[0][1] + strict[1][2]
	totalRelaxed := relaxed[0][1] + relaxed[1][2]
	if totalStrict > totalRelaxed {
		t.Errorf("strict allocated more (%d) than relaxed (%d)", totalStrict, totalRelaxed)
	}
}

func TestGreedyZeroDemand(t *testing.T) {
	d := metrics.NewMatrix(3, 3)
	counts := GreedyAllocate(d, []int{6, 6, 6}, false)
	for i := range counts {
		for j := range counts[i] {
			if counts[i][j] != 0 {
				t.Fatal("zero demand allocated circuits")
			}
		}
	}
}

// Property: greedy never exceeds per-server budgets and is symmetric.
func TestPropertyGreedyBudget(t *testing.T) {
	f := func(seed int64) bool {
		n := 3 + int(uint64(seed)%6)
		d := metrics.NewMatrix(n, n)
		s := seed
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(uint64(s)>>40) / float64(1<<24)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if next() > 0.3 {
					d.Set(i, j, next()*1000)
				}
			}
		}
		avail := make([]int, n)
		for i := range avail {
			avail[i] = 1 + int(next()*6)
		}
		counts := GreedyAllocate(d, avail, false)
		for i := 0; i < n; i++ {
			tot := 0
			for j := 0; j < n; j++ {
				if counts[i][j] != counts[j][i] {
					return false
				}
				tot += counts[i][j]
			}
			if tot > avail[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func buildRegion(tb testing.TB) (*topo.Cluster, *Controller) {
	tb.Helper()
	c := topo.BuildMixNet(topo.DefaultSpec(8, 100*topo.Gbps))
	ct := NewController(c, 0, NewFixedDevice(25e-3))
	return c, ct
}

func TestNICMappingNUMABalance(t *testing.T) {
	c, ct := buildRegion(t)
	servers := ct.Servers()
	counts := make([][]int, 8)
	for i := range counts {
		counts[i] = make([]int, 8)
	}
	counts[0][1], counts[1][0] = 4, 4 // four parallel circuits 0<->1
	pairs := NICMapping(c, servers, counts)
	if len(pairs) != 4 {
		t.Fatalf("pairs = %d, want 4", len(pairs))
	}
	numaA := map[int]int{}
	for _, p := range pairs {
		numaA[c.G.Nodes[p.A].NUMA]++
	}
	if numaA[0] == 0 || numaA[1] == 0 {
		t.Errorf("parallel circuits not spread across NUMA hubs: %v", numaA)
	}
}

func TestControllerPlanApply(t *testing.T) {
	c, ct := buildRegion(t)
	// Both pairs contend for server 1's NIC budget; the hot pair must win
	// more circuits.
	d := metrics.NewMatrix(8, 8)
	d.Set(0, 1, 1e9)
	d.Set(1, 2, 1e8)
	pairs, err := ct.Plan(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) == 0 {
		t.Fatal("no circuits planned")
	}
	delay, err := ct.Apply(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if delay != 25e-3 {
		t.Errorf("delay = %v, want fixed 25ms", delay)
	}
	if hot, cold := circuitsBetween(c, 0, 1), circuitsBetween(c, 1, 2); hot <= cold {
		t.Errorf("hot pair circuits %d !> cold pair %d", hot, cold)
	}
}

// circuitsBetween counts region 0's circuits between servers a and b.
func circuitsBetween(c *topo.Cluster, a, b int) int {
	n := 0
	for _, p := range c.RegionCircuits(0) {
		sa, sb := c.G.Node(p.A).Server, c.G.Node(p.B).Server
		if sa == a && sb == b || sa == b && sb == a {
			n++
		}
	}
	return n
}

func TestControllerAlphaCap(t *testing.T) {
	_, ct := buildRegion(t)
	ct.Alpha = 2
	d := metrics.NewMatrix(8, 8)
	d.Set(0, 1, 1e9)
	d.Set(0, 2, 1e9)
	d.Set(0, 3, 1e9)
	pairs, err := ct.Plan(d)
	if err != nil {
		t.Fatal(err)
	}
	deg := 0
	for _, p := range pairs {
		if ct.Cluster.G.Nodes[p.A].Server == 0 || ct.Cluster.G.Nodes[p.B].Server == 0 {
			deg++
		}
	}
	if deg > 2 {
		t.Errorf("server 0 degree %d exceeds alpha 2", deg)
	}
}

func TestControllerExcludesFailedServers(t *testing.T) {
	_, ct := buildRegion(t)
	ct.SetServerFailed(3, true)
	if len(ct.Servers()) != 7 {
		t.Fatalf("healthy servers = %d, want 7", len(ct.Servers()))
	}
	d := metrics.NewMatrix(7, 7)
	d.Set(0, 1, 1e9)
	pairs, err := ct.Plan(d)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if ct.Cluster.G.Nodes[p.A].Server == 3 || ct.Cluster.G.Nodes[p.B].Server == 3 {
			t.Error("failed server received a circuit")
		}
	}
	ct.SetServerFailed(3, false)
	if len(ct.Servers()) != 8 {
		t.Error("server not restored")
	}
}

func TestControllerDemandShapeMismatch(t *testing.T) {
	_, ct := buildRegion(t)
	if _, err := ct.Plan(metrics.NewMatrix(3, 3)); err == nil {
		t.Error("expected shape mismatch error")
	}
}

func TestPlanFromRankDemand(t *testing.T) {
	_, ct := buildRegion(t)
	// 8 EP ranks, one per server (TP folds inside).
	rank := metrics.NewMatrix(8, 8)
	rank.Set(0, 5, 1e9)
	rank.Set(5, 0, 1e9)
	serverOfRank := []int{0, 1, 2, 3, 4, 5, 6, 7}
	pairs, err := ct.PlanFromRankDemand(rank, serverOfRank)
	if err != nil {
		t.Fatal(err)
	}
	hot := 0
	for _, p := range pairs {
		a, b := ct.Cluster.G.Nodes[p.A].Server, ct.Cluster.G.Nodes[p.B].Server
		if (a == 0 && b == 5) || (a == 5 && b == 0) {
			hot++
		}
	}
	if hot == 0 {
		t.Error("no circuits between the only demanding pair")
	}
}

// BenchmarkControllerPlan plans one region of eight servers from a random
// EP-rank demand, one plan per MoE layer's dispatch on MixNet.
func BenchmarkControllerPlan(b *testing.B) {
	_, ct := buildRegion(b)
	serverOfRank := []int{0, 1, 2, 3, 4, 5, 6, 7}
	rank := randomRankDemand(rand.New(rand.NewSource(1)), len(serverOfRank))
	if _, err := ct.PlanFromRankDemand(rank, serverOfRank); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ct.PlanFromRankDemand(rank, serverOfRank); err != nil {
			b.Fatal(err)
		}
	}
}
