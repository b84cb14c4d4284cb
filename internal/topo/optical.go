package topo

import "slices"

// BuildMixNet constructs the MixNet fabric (§4.2, §7.1): each server wires
// spec.EPSNICs NICs into a shared fat-tree EPS fabric and spec.OCSNICs NICs
// into a regional OCS. Servers are grouped into regions of
// spec.RegionServers consecutive servers (one EP group per region). The
// regional circuits start in the uniform round-robin topology and can be
// regenerated at runtime with SetRegionCircuits.
func BuildMixNet(spec Spec) *Cluster {
	spec = spec.withDefaults()
	if spec.EPSNICs+spec.OCSNICs != spec.NICsPerServer {
		spec.NICsPerServer = spec.EPSNICs + spec.OCSNICs
	}
	g := NewGraph()
	classes := make([]NICClass, spec.NICsPerServer)
	for i := range classes {
		if i < spec.EPSNICs {
			classes[i] = NICEps
		} else {
			classes[i] = NICOcs
		}
	}
	servers := buildServers(g, spec, classes)

	// EPS sub-fabric over the EPS NICs only.
	var epsClass = NICEps
	eps := allNICNodes(servers, &epsClass)
	res := buildClos(g, spec, eps, false, spec.EPSNICs, 1)
	idx := 0
	for s := range servers {
		for n := range servers[s].NICs {
			if servers[s].NICs[n].Class == NICEps {
				servers[s].NICs[n].Tor = res.torOf[idx]
				idx++
			}
		}
	}

	c := &Cluster{G: g, Spec: spec, Kind: FabricMixNet, Servers: servers}
	c.BOM = res.bom
	c.BOM.NICs = spec.Servers * spec.NICsPerServer
	c.BOM.OCSPorts = spec.Servers * spec.OCSNICs
	c.BOM.OCSCables = spec.Servers * spec.OCSNICs

	// Partition into regions and install the initial uniform circuits.
	assignRegions(c, spec.RegionServers)
	for r := range c.Regions {
		c.SetRegionCircuits(r, UniformCircuits(c, r))
	}
	c.sealBuildCircuits()
	return c
}

// sealBuildCircuits snapshots every region's currently installed circuits
// as the build-time configuration ResetCircuits restores. Builders with
// runtime-reconfigurable circuits call it once, after initial installation.
func (c *Cluster) sealBuildCircuits() {
	for _, rc := range c.ocs {
		rc.buildPairs = slices.Clone(rc.pairs)
		rc.buildBps = rc.bps
	}
}

// ResetCircuits restores every region's build-time circuit configuration,
// undoing runtime reconfiguration (the OCS controller retargeting circuits
// mid-run). It retargets each region to its sealed build pairs, so a
// region already at its build configuration is left untouched (see
// SetRegionCircuitsBps): a cluster that never reconfigured keeps its epoch
// and its warm epoch-keyed caches. Reinstalled circuits allocate fresh link
// IDs (IDs are never reused), but append at the same adjacency positions
// the build used (circuits always install after a NIC's fabric links), so
// routing and simulation are byte-identical to a fresh build; StateHash is
// ID-insensitive and verifies the restored state. Returns whether the
// graph epoch moved. Fabrics whose circuits are configured once and never
// retargeted (TopoOpt's patch panels, fixed fabrics without regions) are
// no-ops.
func (c *Cluster) ResetCircuits() (changed bool, err error) {
	e0 := c.G.Epoch()
	for r, rc := range c.ocs {
		if err = c.SetRegionCircuitsBps(r, rc.buildPairs, rc.buildBps); err != nil {
			break
		}
	}
	//mixnet:allow reports whether the graph changed; no cached state is reused on the comparison
	return c.G.Epoch() != e0, err
}

// BuildTopoOpt constructs the TopoOpt baseline: every NIC is attached to a
// flat optical patch panel whose topology is configured once before
// training and never changes. The one-shot topology follows TopoOpt's
// recipe: a bidirectional server ring for all-reduce traffic (2 NICs) plus a
// uniform static mesh across each EP group with the remaining NICs.
func BuildTopoOpt(spec Spec) *Cluster {
	spec = spec.withDefaults()
	g := NewGraph()
	classes := make([]NICClass, spec.NICsPerServer)
	for i := range classes {
		classes[i] = NICOcs // all optical
	}
	servers := buildServers(g, spec, classes)
	c := &Cluster{G: g, Spec: spec, Kind: FabricTopoOpt, Servers: servers}
	c.BOM.NICs = spec.Servers * spec.NICsPerServer
	c.BOM.PatchPorts = spec.Servers * spec.NICsPerServer
	c.BOM.PatchCables = spec.Servers * spec.NICsPerServer

	assignRegions(c, spec.RegionServers)

	// Ring over all servers using 2 NICs per server (when >2 servers).
	n := spec.Servers
	free := make([]int, n) // next free NIC index per server
	install := func(a, b int) bool {
		sa, sb := &c.Servers[a], &c.Servers[b]
		if free[a] >= len(sa.NICs) || free[b] >= len(sb.NICs) {
			return false
		}
		na := sa.NICs[free[a]].Node
		nb := sb.NICs[free[b]].Node
		free[a]++
		free[b]++
		g.AddCircuit(na, nb, spec.NICBps, spec.LinkLatency)
		return true
	}
	if n > 2 {
		for s := 0; s < n; s++ {
			install(s, (s+1)%n)
		}
	} else if n == 2 {
		install(0, 1)
	}
	// Uniform mesh within each region with remaining NICs.
	for _, region := range c.Regions {
		m := len(region)
		for k := 1; k <= m/2; k++ {
			for i := 0; i < m; i++ {
				if 2*k == m && i >= m/2 {
					continue // diameter offset pairs each server once
				}
				install(region[i], region[(i+k)%m])
			}
		}
	}
	return c
}

// assignRegions partitions servers into consecutive groups of size
// regionServers and stamps Region onto servers and their nodes.
func assignRegions(c *Cluster, regionServers int) {
	if regionServers <= 0 {
		regionServers = len(c.Servers)
	}
	n := len(c.Servers)
	for s := 0; s < n; s++ {
		r := s / regionServers
		c.Servers[s].Region = r
		srv := &c.Servers[s]
		stamp := func(id NodeID) { c.G.Node(id).Region = r }
		stamp(srv.NVSwitch)
		for _, id := range srv.GPUs {
			stamp(id)
		}
		for _, id := range srv.Hubs {
			stamp(id)
		}
		for _, nic := range srv.NICs {
			stamp(nic.Node)
		}
		if r >= len(c.Regions) {
			c.Regions = append(c.Regions, nil)
		}
		c.Regions[r] = append(c.Regions[r], s)
	}
	c.ocs = make([]*regionCircuits, len(c.Regions))
	for i := range c.ocs {
		c.ocs[i] = &regionCircuits{}
	}
}

// UniformCircuits returns the round-robin circuit assignment for a region:
// offsets ±1, ±2, ... until every server's OCS NICs are used. This is the
// topology MixNet starts from and the one the greedy controller replaces.
func UniformCircuits(c *Cluster, region int) []CircuitPair {
	servers := c.Regions[region]
	m := len(servers)
	if m < 2 {
		return nil
	}
	avail := make([]int, m)
	nics := make([][]NIC, m)
	for i, s := range servers {
		nics[i] = c.Servers[s].OCSNICs()
		avail[i] = len(nics[i])
	}
	used := make([]int, m)
	var pairs []CircuitPair
	for k := 1; k <= m/2; k++ {
		for i := 0; i < m; i++ {
			j := (i + k) % m
			if j == i {
				continue
			}
			if 2*k == m && i >= m/2 {
				continue // diameter offset pairs each server once
			}
			if used[i] >= avail[i] || used[j] >= avail[j] {
				continue
			}
			pairs = append(pairs, CircuitPair{A: nics[i][used[i]].Node, B: nics[j][used[j]].Node})
			used[i]++
			used[j]++
		}
	}
	return pairs
}

// SetRegionCircuits retargets a region to the given pairs: it tears down
// the region's existing circuits and installs the pairs, unless they are
// exactly what is installed, in which case the graph is left alone (see
// SetRegionCircuitsBps). Pair endpoints must be OCS-attached NIC nodes (or
// GPU nodes for the CPO variant) within the region. The physical
// reconfiguration delay is modelled by the caller (internal/ocs), which
// charges it either way; this call performs the instantaneous graph
// surgery.
func (c *Cluster) SetRegionCircuits(region int, pairs []CircuitPair) error {
	bps := c.CircuitBps
	if bps == 0 {
		bps = c.Spec.NICBps
	}
	return c.SetRegionCircuitsBps(region, pairs, bps)
}

// RegionCircuits returns the currently installed circuit pairs of a region.
func (c *Cluster) RegionCircuits(region int) []CircuitPair {
	if region < 0 || region >= len(c.ocs) {
		return nil
	}
	return c.ocs[region].pairs
}

// CircuitTable summarises, for one region, the installed circuits between
// server pairs: key is (low server index, high server index).
type CircuitTable map[[2]int][]CircuitPair

// RegionCircuitTable indexes a region's circuits by server pair.
func (c *Cluster) RegionCircuitTable(region int) CircuitTable {
	t := make(CircuitTable)
	for _, p := range c.RegionCircuits(region) {
		sa := c.G.Node(p.A).Server
		sb := c.G.Node(p.B).Server
		key := [2]int{sa, sb}
		if sa > sb {
			key = [2]int{sb, sa}
		}
		t[key] = append(t[key], p)
	}
	return t
}
