package topo

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
	return c
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
