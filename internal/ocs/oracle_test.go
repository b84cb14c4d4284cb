package ocs

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mixnet/internal/metrics"
	"mixnet/internal/topo"
)

// The map-based Algorithm 1 the controller's scratch planner replaced, kept
// verbatim as the test oracle: refServerDemand, refGreedyAllocate and
// refNICMapping rebuild their maps and NIC pools on every call.

// refServerDemand aggregates an EP-rank demand matrix into the upper-triangular
// inter-server demand of Algorithm 1 step 1: entry (i, j) with i < j holds
// the TX+RX bytes between local servers i and j (TX and RX are provisioned
// together, §5.2). serverLocal maps each EP rank to its local server index
// in [0, n).
func refServerDemand(rank *metrics.Matrix, serverLocal []int, n int) *metrics.Matrix {
	d := metrics.NewMatrix(n, n)
	for i := 0; i < rank.Rows; i++ {
		for j := 0; j < rank.Cols; j++ {
			si, sj := serverLocal[i], serverLocal[j]
			if si == sj {
				continue // intra-server traffic rides NVSwitch
			}
			lo, hi := si, sj
			if lo > hi {
				lo, hi = hi, lo
			}
			d.Add(lo, hi, rank.At(i, j))
		}
	}
	return d
}

// refGreedyAllocate implements Algorithm 1 steps 2–3: iteratively find the
// bottleneck server pair — the pair whose transfer would take longest given
// current circuit counts — and grant it one more circuit, until NIC budgets
// stop the bottleneck pair.
//
// avail[i] is server i's optical degree (α). When strictBreak is true the
// loop stops the moment the bottleneck pair cannot be served (the paper's
// literal "Break"); otherwise that pair is excluded and allocation
// continues with the remaining budget (the engineering reading; the
// difference is measured by the GreedyVsUniform ablation bench).
func refGreedyAllocate(d *metrics.Matrix, avail []int, strictBreak bool) [][]int {
	n := d.Rows
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = make([]int, n)
	}
	left := append([]int(nil), avail...)
	excluded := make(map[[2]int]bool)
	for {
		// Find bottleneck: max completion time D/C, with C=0 treated as
		// infinite (rank by demand among unallocated pairs first).
		bi, bj := -1, -1
		bestInf := -1.0 // best demand among C==0 pairs
		bestT := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dem := d.At(i, j)
				if dem <= 0 || excluded[[2]int{i, j}] {
					continue
				}
				c := counts[i][j]
				if c == 0 {
					if dem > bestInf {
						bestInf = dem
						if bestInf >= 0 {
							bi, bj = i, j
						}
					}
				} else if bestInf < 0 {
					if t := dem / float64(c); t > bestT {
						bestT = t
						bi, bj = i, j
					}
				}
			}
		}
		if bi < 0 {
			break // no demand left to serve
		}
		if left[bi] > 0 && left[bj] > 0 {
			counts[bi][bj]++
			counts[bj][bi]++
			left[bi]--
			left[bj]--
			continue
		}
		if strictBreak {
			break
		}
		excluded[[2]int{bi, bj}] = true
	}
	return counts
}

// refNICMapping implements Algorithm 1 steps 4: translate circuit counts into
// concrete NIC pairs, permuting multi-link pairs across NUMA nodes so that
// parallel circuits between two servers terminate on different NUMA hubs
// (avoiding intra-host congestion during delegated forwarding, §5.3).
// servers lists the region's global server indices in local order; numa
// balancing falls back to any free NIC when the preferred hub is exhausted.
func refNICMapping(c *topo.Cluster, servers []int, counts [][]int) []topo.CircuitPair {
	n := len(servers)
	// Free OCS NICs per local server, grouped by NUMA node.
	type nicPool struct {
		byNUMA map[int][]topo.NIC
		order  []int // NUMA ids, stable
	}
	pools := make([]nicPool, n)
	for li, s := range servers {
		p := nicPool{byNUMA: map[int][]topo.NIC{}}
		for _, nic := range c.OCSPorts(s) {
			if _, ok := p.byNUMA[nic.NUMA]; !ok {
				p.order = append(p.order, nic.NUMA)
			}
			p.byNUMA[nic.NUMA] = append(p.byNUMA[nic.NUMA], nic)
		}
		sort.Ints(p.order)
		pools[li] = p
	}
	take := func(li, preferNUMA int) (topo.NodeID, bool) {
		p := &pools[li]
		if len(p.order) == 0 {
			return topo.NoNode, false
		}
		pref := p.order[preferNUMA%len(p.order)]
		// Preferred hub first, then any hub with free NICs.
		tryOrder := append([]int{pref}, p.order...)
		for _, numa := range tryOrder {
			if nics := p.byNUMA[numa]; len(nics) > 0 {
				nic := nics[0]
				p.byNUMA[numa] = nics[1:]
				return nic.Node, true
			}
		}
		return topo.NoNode, false
	}

	// Serve heaviest pairs first so their NUMA spreading is cleanest.
	type pairCount struct{ i, j, k int }
	var pcs []pairCount
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if counts[i][j] > 0 {
				pcs = append(pcs, pairCount{i, j, counts[i][j]})
			}
		}
	}
	sort.Slice(pcs, func(a, b int) bool {
		if pcs[a].k != pcs[b].k {
			return pcs[a].k > pcs[b].k
		}
		if pcs[a].i != pcs[b].i {
			return pcs[a].i < pcs[b].i
		}
		return pcs[a].j < pcs[b].j
	})

	var pairs []topo.CircuitPair
	for _, pc := range pcs {
		for link := 0; link < pc.k; link++ {
			a, okA := take(pc.i, link)
			b, okB := take(pc.j, link)
			if !okA || !okB {
				break // budget exhausted (counts were over-subscribed)
			}
			pairs = append(pairs, topo.CircuitPair{A: a, B: b})
		}
	}
	return pairs
}

// refPlanFromRankDemand is Controller.PlanFromRankDemand over the oracle:
// a map from healthy server to local index, a fresh server demand matrix,
// budgets from OCSPorts, then the oracle's allocation and mapping.
func refPlanFromRankDemand(ct *Controller, rank *metrics.Matrix, serverOfRank []int) []topo.CircuitPair {
	servers := ct.Servers()
	local := map[int]int{}
	for li, s := range servers {
		local[s] = li
	}
	serverLocal := make([]int, len(serverOfRank))
	for r, s := range serverOfRank {
		li, ok := local[s]
		if !ok {
			li = 0
		}
		serverLocal[r] = li
	}
	d := refServerDemand(rank, serverLocal, len(servers))
	avail := make([]int, len(servers))
	for i, s := range servers {
		a := len(ct.Cluster.OCSPorts(s))
		if ct.Alpha > 0 && ct.Alpha < a {
			a = ct.Alpha
		}
		avail[i] = a
	}
	return refNICMapping(ct.Cluster, servers, refGreedyAllocate(d, avail, ct.StrictBreak))
}

// randomRankDemand draws an EP-rank demand with about a third of the cells
// empty and a few hot pairs.
func randomRankDemand(rng *rand.Rand, ranks int) *metrics.Matrix {
	d := metrics.NewMatrix(ranks, ranks)
	for i := 0; i < ranks; i++ {
		for j := 0; j < ranks; j++ {
			if i == j || rng.Intn(3) == 0 {
				continue
			}
			v := float64(1+rng.Intn(1000)) * 1e6
			if rng.Intn(8) == 0 {
				v *= 50
			}
			d.Set(i, j, v)
		}
	}
	return d
}

// TestControllerMatchesOracle: on random rank demands the controller must
// plan exactly the oracle's circuit pairs, in the same order, across
// clusters with two, three and four NUMA hubs per server and the
// co-packaged-optics variant (GPU ports), Alpha caps, both break rules and
// failed servers, with one controller reused for every plan of a cluster.
func TestControllerMatchesOracle(t *testing.T) {
	type cluster struct {
		name string
		c    *topo.Cluster
	}
	var clusters []cluster
	for _, hubs := range []int{2, 3, 4} {
		spec := topo.DefaultSpec(16, 100*topo.Gbps)
		spec.NUMAHubs = hubs
		clusters = append(clusters, cluster{fmt.Sprintf("mixnet-%dhub", hubs), topo.BuildMixNet(spec)})
	}
	clusters = append(clusters, cluster{"cpo", topo.BuildMixNetCPO(topo.ScaleUpSpec{Domains: 8, GPUsPerDomain: 8, RegionDomains: 4})})
	rng := rand.New(rand.NewSource(1))
	plans := 0
	for _, cl := range clusters {
		for region := range cl.c.Regions {
			ct := NewController(cl.c, region, NewFixedDevice(25e-3))
			servers := cl.c.Regions[region]
			for trial := 0; trial < 60; trial++ {
				ct.Alpha = []int{0, 0, 1, 2, 3, 5}[rng.Intn(6)]
				ct.StrictBreak = rng.Intn(2) == 0
				for _, s := range servers {
					ct.SetServerFailed(s, rng.Intn(6) == 0)
				}
				// One to three EP ranks per region server, some on a
				// server outside the region.
				var serverOfRank []int
				for _, s := range servers {
					for k := rng.Intn(3); k >= 0; k-- {
						serverOfRank = append(serverOfRank, s)
					}
				}
				if rng.Intn(4) == 0 {
					serverOfRank[rng.Intn(len(serverOfRank))] = -1
				}
				rng.Shuffle(len(serverOfRank), func(a, b int) {
					serverOfRank[a], serverOfRank[b] = serverOfRank[b], serverOfRank[a]
				})
				rank := randomRankDemand(rng, len(serverOfRank))
				want := refPlanFromRankDemand(ct, rank, serverOfRank)
				got, err := ct.PlanFromRankDemand(rank, serverOfRank)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s region %d trial %d (alpha %d, strict %v, %d healthy): pairs\n%v\noracle\n%v",
						cl.name, region, trial, ct.Alpha, ct.StrictBreak, len(ct.Servers()), got, want)
				}
				plans++
			}
		}
	}
	t.Logf("%d plans equal to the oracle", plans)
}

// TestExportedAllocationMatchesOracle drives the exported ServerDemand,
// GreedyAllocate and NICMapping, including NICMapping on over-subscribed
// counts, where a pair's first end can take a NIC its second end cannot
// match.
func TestExportedAllocationMatchesOracle(t *testing.T) {
	spec := topo.DefaultSpec(8, 100*topo.Gbps)
	spec.NUMAHubs = 3
	c := topo.BuildMixNet(spec)
	servers := c.Regions[0]
	n := len(servers)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 200; trial++ {
		serverLocal := make([]int, 2*n)
		for r := range serverLocal {
			serverLocal[r] = rng.Intn(n)
		}
		rank := randomRankDemand(rng, len(serverLocal))
		d, want := ServerDemand(rank, serverLocal, n), refServerDemand(rank, serverLocal, n)
		if !slices.Equal(d.Data, want.Data) {
			t.Fatalf("trial %d: ServerDemand differs from the oracle", trial)
		}
		avail := make([]int, n)
		for i := range avail {
			avail[i] = rng.Intn(8)
		}
		strict := rng.Intn(2) == 0
		counts, wantCounts := GreedyAllocate(d, avail, strict), refGreedyAllocate(d, avail, strict)
		for i := range counts {
			if !slices.Equal(counts[i], wantCounts[i]) {
				t.Fatalf("trial %d: GreedyAllocate row %d %v, oracle %v", trial, i, counts[i], wantCounts[i])
			}
		}
		// Over-subscribe: random symmetric counts up to 5 per pair.
		over := make([][]int, n)
		for i := range over {
			over[i] = make([]int, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Intn(3) == 0 {
					over[i][j] = rng.Intn(6)
					over[j][i] = over[i][j]
				}
			}
		}
		for _, cs := range [][][]int{counts, over} {
			if got, want := NICMapping(c, servers, cs), refNICMapping(c, servers, cs); !slices.Equal(got, want) {
				t.Fatalf("trial %d: NICMapping %v, oracle %v", trial, got, want)
			}
		}
	}
}
