package ocs

import (
	"fmt"
	"slices"

	"mixnet/internal/metrics"
	"mixnet/internal/topo"
)

// ServerDemand aggregates an EP-rank demand matrix into the upper-triangular
// inter-server demand of Algorithm 1 step 1: entry (i, j) with i < j holds
// the TX+RX bytes between local servers i and j (TX and RX are provisioned
// together, §5.2). serverLocal maps each EP rank to its local server index
// in [0, n).
func ServerDemand(rank *metrics.Matrix, serverLocal []int, n int) *metrics.Matrix {
	d := metrics.NewMatrix(n, n)
	addServerDemand(d, rank, serverLocal)
	return d
}

// addServerDemand adds rank's inter-server bytes to the zeroed server
// matrix d (see ServerDemand).
//
//mixnet:noalloc
func addServerDemand(d, rank *metrics.Matrix, serverLocal []int) {
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
}

// GreedyAllocate implements Algorithm 1 steps 2–3: iteratively find the
// bottleneck server pair — the pair whose transfer would take longest given
// current circuit counts — and grant it one more circuit, until NIC budgets
// stop the bottleneck pair.
//
// avail[i] is server i's optical degree (α). When strictBreak is true the
// loop stops the moment the bottleneck pair cannot be served (the paper's
// literal "Break"); otherwise that pair is excluded and allocation
// continues with the remaining budget (the engineering reading; the
// difference is measured by the GreedyVsUniform ablation bench).
func GreedyAllocate(d *metrics.Matrix, avail []int, strictBreak bool) [][]int {
	var p planner
	p.greedy(d, avail, strictBreak)
	n := d.Rows
	counts := make([][]int, n)
	for i := range counts {
		counts[i] = p.counts[i*n : (i+1)*n : (i+1)*n]
	}
	return counts
}

// NICMapping implements Algorithm 1 steps 4: translate circuit counts into
// concrete NIC pairs, permuting multi-link pairs across NUMA nodes so that
// parallel circuits between two servers terminate on different NUMA hubs
// (avoiding intra-host congestion during delegated forwarding, §5.3).
// servers lists the region's global server indices in local order; numa
// balancing falls back to any free NIC when the preferred hub is exhausted.
func NICMapping(c *topo.Cluster, servers []int, counts [][]int) []topo.CircuitPair {
	n := len(servers)
	var p planner
	p.ports = make([]*hubPorts, n)
	for li, s := range servers {
		hp := groupPorts(c.OCSPorts(s))
		p.ports[li] = &hp
	}
	p.counts = make([]int, n*n)
	for i := 0; i < n; i++ {
		copy(p.counts[i*n:(i+1)*n], counts[i])
	}
	return p.mapNICs(n)
}

// hubPorts is one server's OCS ports grouped by NUMA hub, hubs in ascending
// order and each hub's ports in OCSPorts order: hub h holds
// nodes[end[h-1]:end[h]] (from 0 for h = 0). While a mapping runs, next[h]
// is hub h's next free port in nodes.
type hubPorts struct {
	nodes []topo.NodeID
	end   []int
	next  []int
}

// groupPorts groups a server's OCS ports by NUMA hub.
func groupPorts(ports []topo.NIC) hubPorts {
	var hubs []int
	for _, nic := range ports {
		if !slices.Contains(hubs, nic.NUMA) {
			hubs = append(hubs, nic.NUMA)
		}
	}
	slices.Sort(hubs)
	hp := hubPorts{
		nodes: make([]topo.NodeID, 0, len(ports)),
		end:   make([]int, len(hubs)),
		next:  make([]int, len(hubs)),
	}
	for h, numa := range hubs {
		for _, nic := range ports {
			if nic.NUMA == numa {
				hp.nodes = append(hp.nodes, nic.Node)
			}
		}
		hp.end[h] = len(hp.nodes)
	}
	return hp
}

// pairCount is a server pair (i < j) and its circuit count.
type pairCount struct{ i, j, k int }

// planner is the scratch of one Algorithm 1 run, reused across the plans of
// a controller. Every buffer is overwritten before it is read.
type planner struct {
	ports    []*hubPorts // each local server's OCS ports
	servers  []int       // healthy servers (global indices), local order
	local    []int       // EP rank -> local server index
	demand   metrics.Matrix
	avail    []int
	left     []int
	counts   []int  // n×n circuit counts, row-major
	excluded []bool // n×n pairs the relaxed break gave up on
	pcs      []pairCount
}

// greedy runs GreedyAllocate into p.counts.
//
//mixnet:noalloc
func (p *planner) greedy(d *metrics.Matrix, avail []int, strictBreak bool) {
	n := d.Rows
	if cap(p.counts) < n*n {
		p.counts = make([]int, n*n)
		p.excluded = make([]bool, n*n)
	}
	counts, excluded := p.counts[:n*n], p.excluded[:n*n]
	clear(counts)
	clear(excluded)
	p.counts, p.excluded = counts, excluded
	left := append(p.left[:0], avail...)
	p.left = left
	for {
		// Find bottleneck: max completion time D/C, with C=0 treated as
		// infinite (rank by demand among unallocated pairs first).
		bi, bj := -1, -1
		bestInf := -1.0 // best demand among C==0 pairs
		bestT := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dem := d.At(i, j)
				if dem <= 0 || excluded[i*n+j] {
					continue
				}
				c := counts[i*n+j]
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
			counts[bi*n+bj]++
			counts[bj*n+bi]++
			left[bi]--
			left[bj]--
			continue
		}
		if strictBreak {
			break
		}
		excluded[bi*n+bj] = true
	}
}

// mapNICs runs NICMapping over p.ports and p.counts for n local servers.
// Only the returned pairs are allocated.
func (p *planner) mapNICs(n int) []topo.CircuitPair {
	for _, hp := range p.ports[:n] {
		start := 0
		for h, end := range hp.end {
			hp.next[h] = start
			start = end
		}
	}

	// Serve heaviest pairs first so their NUMA spreading is cleanest.
	pcs := p.pcs[:0]
	total := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if k := p.counts[i*n+j]; k > 0 {
				pcs = append(pcs, pairCount{i, j, k})
				total += k
			}
		}
	}
	p.pcs = pcs
	slices.SortFunc(pcs, func(a, b pairCount) int {
		if a.k != b.k {
			return b.k - a.k
		}
		if a.i != b.i {
			return a.i - b.i
		}
		return a.j - b.j
	})
	if total == 0 {
		return nil
	}

	pairs := make([]topo.CircuitPair, 0, total)
	for _, pc := range pcs {
		for link := 0; link < pc.k; link++ {
			// Both ends are taken before either is checked: a port taken
			// for a pair whose other end has none left stays consumed.
			a, okA := p.ports[pc.i].take(link)
			b, okB := p.ports[pc.j].take(link)
			if !okA || !okB {
				break // budget exhausted (counts were over-subscribed)
			}
			pairs = append(pairs, topo.CircuitPair{A: a, B: b})
		}
	}
	return pairs
}

// take hands out the server's next free OCS port: from hub preferHub
// modulo its hub count first, then from the first hub, in ascending order,
// that has one left.
//
//mixnet:noalloc
func (hp *hubPorts) take(preferHub int) (topo.NodeID, bool) {
	if len(hp.end) == 0 {
		return topo.NoNode, false
	}
	if h := preferHub % len(hp.end); hp.next[h] < hp.end[h] {
		hp.next[h]++
		return hp.nodes[hp.next[h]-1], true
	}
	for h := range hp.next {
		if hp.next[h] < hp.end[h] {
			hp.next[h]++
			return hp.nodes[hp.next[h]-1], true
		}
	}
	return topo.NoNode, false
}

// Controller is one region's decentralised topology controller (§5.2).
type Controller struct {
	Cluster *topo.Cluster
	Region  int
	Device  *Device
	// Alpha caps the optical degree per server; 0 means all OCS NICs.
	Alpha int
	// StrictBreak selects the literal Algorithm 1 break semantics.
	StrictBreak bool
	// failed servers (global indices) excluded from topology generation
	// (§5.4 runtime reconfiguration).
	failed map[int]bool
	// ports groups each region server's OCS ports by NUMA hub, indexed like
	// Cluster.Regions[Region]. A server's OCS ports are fixed once the
	// cluster is built, so they are grouped once.
	ports []hubPorts
	plan  planner
}

// NewController builds a controller for one region of a MixNet cluster.
func NewController(c *topo.Cluster, region int, dev *Device) *Controller {
	ct := &Controller{Cluster: c, Region: region, Device: dev, failed: map[int]bool{}}
	for _, s := range c.Regions[region] {
		ct.ports = append(ct.ports, groupPorts(c.OCSPorts(s)))
	}
	return ct
}

// FailedServers returns how many servers are currently excluded from
// topology generation; engine pools require zero before reusing an engine.
func (ct *Controller) FailedServers() int { return len(ct.failed) }

// SetServerFailed marks a server excluded (or restored) for future plans.
func (ct *Controller) SetServerFailed(server int, failed bool) {
	if failed {
		ct.failed[server] = true
	} else {
		delete(ct.failed, server)
	}
}

// Servers returns the region's healthy servers in local order.
func (ct *Controller) Servers() []int {
	return slices.Clone(ct.healthy())
}

// healthy fills the planner's server list and port groups with the region's
// healthy servers, in local order, and returns the servers.
//
//mixnet:noalloc
func (ct *Controller) healthy() []int {
	p := &ct.plan
	servers, ports := p.servers[:0], p.ports[:0]
	for k, s := range ct.Cluster.Regions[ct.Region] {
		if !ct.failed[s] {
			servers = append(servers, s)
			ports = append(ports, &ct.ports[k])
		}
	}
	p.servers, p.ports = servers, ports
	return servers
}

// Plan runs Algorithm 1 on a local server-level demand matrix (indices must
// match Servers()) and returns the NIC-level circuit pairs.
func (ct *Controller) Plan(demand *metrics.Matrix) ([]topo.CircuitPair, error) {
	return ct.planHealthy(len(ct.healthy()), demand)
}

// planHealthy is Plan once healthy has filled the planner with n servers.
func (ct *Controller) planHealthy(n int, demand *metrics.Matrix) ([]topo.CircuitPair, error) {
	if demand.Rows != n || demand.Cols != n {
		return nil, fmt.Errorf("ocs: demand %dx%d does not match %d healthy servers",
			demand.Rows, demand.Cols, n)
	}
	p := &ct.plan
	avail := p.avail[:0]
	for _, hp := range p.ports[:n] {
		a := len(hp.nodes)
		if ct.Alpha > 0 && ct.Alpha < a {
			a = ct.Alpha
		}
		avail = append(avail, a)
	}
	p.avail = avail
	p.greedy(demand, avail, ct.StrictBreak)
	return p.mapNICs(n), nil
}

// Apply installs the circuit pairs on the cluster graph and returns the
// sampled reconfiguration delay in seconds (Algorithm 1 step 5). Callers
// decide whether that delay blocks training or hides under computation
// (§5.1, §B.2).
func (ct *Controller) Apply(pairs []topo.CircuitPair) (float64, error) {
	if err := ct.Cluster.SetRegionCircuits(ct.Region, pairs); err != nil {
		return 0, err
	}
	if ct.Device == nil {
		return 0, nil
	}
	return ct.Device.ReconfigDelay(len(pairs)), nil
}

// PlanFromRankDemand aggregates an EP-rank demand matrix (serverOfRank
// gives each rank's global server) and plans circuits in one call.
func (ct *Controller) PlanFromRankDemand(rank *metrics.Matrix, serverOfRank []int) ([]topo.CircuitPair, error) {
	servers := ct.healthy()
	p := &ct.plan
	local := p.local[:0]
	for _, s := range serverOfRank {
		// A rank on a failed/foreign server folds into local server 0 so
		// its demand still steers circuits.
		li := max(slices.Index(servers, s), 0)
		local = append(local, li)
	}
	p.local = local
	n := len(servers)
	d := &p.demand
	if cap(d.Data) < n*n {
		d.Data = make([]float64, n*n)
	}
	d.Rows, d.Cols, d.Data = n, n, d.Data[:n*n]
	clear(d.Data)
	addServerDemand(d, rank, local)
	return ct.planHealthy(n, d)
}
