package topo

import (
	"fmt"
	"slices"
)

// ScaleUpSpec parameterises the §8 look-ahead study: high-radix scale-up
// domains (NVL72-style) versus MixNet with co-packaged optical I/O.
type ScaleUpSpec struct {
	Domains       int     // number of scale-up domains
	GPUsPerDomain int     // GPUs used per domain (64 of 72 in practice)
	NVLinkBps     float64 // per-GPU scale-up bandwidth
	OCSBps        float64 // per-GPU co-packaged optical bandwidth (CPO only)
	EthBps        float64 // per-GPU scale-out Ethernet bandwidth
	SwitchRadix   int
	LinkLatency   float64
	RegionDomains int // domains per reconfigurable region (CPO only)
}

func (s ScaleUpSpec) withDefaults() ScaleUpSpec {
	if s.GPUsPerDomain == 0 {
		s.GPUsPerDomain = 64
	}
	if s.SwitchRadix == 0 {
		s.SwitchRadix = 64
	}
	if s.LinkLatency == 0 {
		s.LinkLatency = 1e-6
	}
	if s.RegionDomains == 0 {
		s.RegionDomains = 2
	}
	return s
}

// BuildNVL72 models a cluster of NVL72-style domains: each domain is one
// giant NVSwitch fabric, with one scale-out NIC per GPU wired into a shared
// fat-tree. A domain is represented as a Server with GPUsPerDomain GPUs.
func BuildNVL72(su ScaleUpSpec) *Cluster {
	su = su.withDefaults()
	spec := Spec{
		Servers:       su.Domains,
		GPUsPerServer: su.GPUsPerDomain,
		NICsPerServer: su.GPUsPerDomain, // one scale-out NIC per GPU
		NICBps:        su.EthBps,
		NVSwitchBps:   su.NVLinkBps,
		HubFactor:     float64(su.GPUsPerDomain), // hubs never bottleneck here
		NUMAHubs:      1,
		LinkLatency:   su.LinkLatency,
		SwitchRadix:   su.SwitchRadix,
		Oversub:       1,
	}
	c := buildElectrical(spec, FabricNVL72, false, 1)
	c.Kind = FabricNVL72
	return c
}

// BuildMixNetCPO models MixNet with co-packaged optical ports directly on
// the GPUs (§8, Figure 15): per GPU, NVLink carries su.NVLinkBps into the
// domain NVSwitch, su.OCSBps goes to a regional OCS as a GPU-attached
// circuit port, and su.EthBps goes to the scale-out Ethernet fat-tree.
// Regions span RegionDomains consecutive domains; circuits connect GPU
// nodes directly.
func BuildMixNetCPO(su ScaleUpSpec) *Cluster {
	su = su.withDefaults()
	spec := Spec{
		Servers:       su.Domains,
		GPUsPerServer: su.GPUsPerDomain,
		NICsPerServer: su.GPUsPerDomain,
		NICBps:        su.EthBps,
		NVSwitchBps:   su.NVLinkBps,
		HubFactor:     float64(su.GPUsPerDomain),
		NUMAHubs:      1,
		LinkLatency:   su.LinkLatency,
		SwitchRadix:   su.SwitchRadix,
		Oversub:       1,
	}
	c := buildElectrical(spec, FabricMixNetCPO, false, 1)
	c.Kind = FabricMixNetCPO
	c.Spec.OCSNICs = 1 // one CPO port per GPU, for accounting
	c.Spec.RegionServers = su.RegionDomains
	c.CircuitBps = su.OCSBps

	// Regions over domains; GPU nodes are the circuit endpoints.
	assignRegions(c, su.RegionDomains)
	c.BOM.OCSPorts = su.Domains * su.GPUsPerDomain
	c.BOM.OCSCables = su.Domains * su.GPUsPerDomain

	// Initial uniform circuits: GPU g of domain d pairs with GPU g of
	// another domain in the region, round-robin over domain offsets.
	for r, domains := range c.Regions {
		var pairs []CircuitPair
		m := len(domains)
		if m < 2 {
			continue
		}
		for g := 0; g < su.GPUsPerDomain; g++ {
			k := 1 + g%(m-1) // offset cycles through peers
			for i := 0; i < m; i++ {
				j := (i + k) % m
				if 2*k == m && i >= m/2 {
					continue
				}
				if j == i {
					continue
				}
				if i < j || 2*k == m {
					pairs = append(pairs, CircuitPair{
						A: c.Servers[domains[i]].GPUs[g],
						B: c.Servers[domains[j]].GPUs[g],
					})
				}
			}
		}
		if err := c.SetRegionCircuitsBps(r, pairs, su.OCSBps); err != nil {
			panic(fmt.Sprintf("topo: BuildMixNetCPO: %v", err))
		}
	}
	c.sealBuildCircuits()
	return c
}

// SetRegionCircuitsBps is SetRegionCircuits with an explicit per-circuit
// bandwidth (used by the CPO variant where circuits are not NIC line rate).
//
// A retarget to what is already installed leaves the graph alone: when
// pairs equal the installed pairs, bps equals the installed bandwidth, and
// every installed circuit link is still attached and up with the bandwidth
// and latency a fresh install would give it, the call returns at once, the
// epoch does not move and routers keep their caches. A reinstall would
// differ only in link IDs: circuits are the last adjacency entries of
// their ports, so they would come back at the same positions, and
// StateHash ignores IDs. Any other call tears the region's circuits down
// and installs pairs on fresh link IDs.
func (c *Cluster) SetRegionCircuitsBps(region int, pairs []CircuitPair, bps float64) error {
	if region < 0 || region >= len(c.ocs) {
		return fmt.Errorf("topo: region %d out of range", region)
	}
	rc := c.ocs[region]
	if c.installed(rc, pairs, bps) {
		return nil
	}
	for _, id := range rc.linkIDs {
		if !c.G.Link(id).detached() {
			c.G.detachLink(id)
		}
	}
	rc.linkIDs = rc.linkIDs[:0]
	rc.pairs = append(rc.pairs[:0], pairs...)
	rc.bps = bps
	for _, p := range pairs {
		ab, ba := c.G.AddCircuit(p.A, p.B, bps, c.Spec.LinkLatency)
		rc.linkIDs = append(rc.linkIDs, ab, ba)
	}
	return nil
}

// installed reports whether rc holds exactly the circuits a fresh install
// of pairs at bps would leave: the same pairs in the same order, each link
// attached, up, and at that bandwidth and latency.
func (c *Cluster) installed(rc *regionCircuits, pairs []CircuitPair, bps float64) bool {
	if rc.bps != bps || !slices.Equal(rc.pairs, pairs) {
		return false
	}
	for _, id := range rc.linkIDs {
		l := c.G.Link(id)
		if l.detached() || !l.Up || l.Bps != bps || l.Latency != c.Spec.LinkLatency {
			return false
		}
	}
	return true
}
