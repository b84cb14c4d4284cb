package topo

import (
	"testing"
	"testing/quick"
)

func TestBuildFatTreeSmall(t *testing.T) {
	spec := DefaultSpec(4, 100*Gbps)
	c := BuildFatTree(spec)
	if err := c.G.Validate(); err != nil {
		t.Fatalf("graph invalid: %v", err)
	}
	if c.GPUCount() != 32 {
		t.Errorf("GPUCount = %d, want 32", c.GPUCount())
	}
	if c.BOM.NICs != 32 {
		t.Errorf("NICs = %d, want 32", c.BOM.NICs)
	}
	if c.BOM.ServerTorLinks != 32 {
		t.Errorf("ServerTorLinks = %d, want 32", c.BOM.ServerTorLinks)
	}
	// 32 endpoints fit under one radix-64 leaf at down=32.
	if c.BOM.AggPorts != 0 || c.BOM.CorePorts != 0 {
		t.Errorf("small cluster should be single-tier: %+v", c.BOM)
	}
}

func TestBuildFatTreeTwoTier(t *testing.T) {
	// 16 servers * 8 NICs = 128 endpoints: 4 leaves, needs spines.
	c := BuildFatTree(DefaultSpec(16, 100*Gbps))
	if err := c.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.BOM.AggPorts == 0 {
		t.Error("two-tier build produced no spine ports")
	}
	if c.BOM.CorePorts != 0 {
		t.Error("128 endpoints should not need a core tier")
	}
	// Non-blocking: uplink ports == downlink ports at leaves.
	if c.BOM.TorPorts != 128*2 {
		t.Errorf("TorPorts = %d, want 256 (128 down + 128 up)", c.BOM.TorPorts)
	}
}

func TestBuildFatTreeThreeTier(t *testing.T) {
	// 512 servers * 8 = 4096 endpoints: > 2048 two-tier capacity at radix 64.
	c := BuildFatTree(DefaultSpec(512, 400*Gbps))
	if err := c.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.BOM.CorePorts == 0 {
		t.Error("4096 endpoints should use a core tier")
	}
	// Full connectivity: route between far-apart GPUs.
	r := NewBFSRouter(c.G)
	if _, err := r.Route(c.GPU(0, 0), c.GPU(511, 7), 1); err != nil {
		t.Errorf("no route across pods: %v", err)
	}
}

func TestOverSubReducesPorts(t *testing.T) {
	full := BuildFatTree(DefaultSpec(64, 100*Gbps))
	spec := DefaultSpec(64, 100*Gbps)
	spec.Oversub = 3
	over := BuildOverSubFatTree(spec)
	if over.BOM.ElecPorts() >= full.BOM.ElecPorts() {
		t.Errorf("oversub ports %d !< full ports %d", over.BOM.ElecPorts(), full.BOM.ElecPorts())
	}
	if err := over.G.Validate(); err != nil {
		t.Fatal(err)
	}
	r := NewBFSRouter(over.G)
	if _, err := r.Route(over.GPU(0, 0), over.GPU(63, 7), 1); err != nil {
		t.Errorf("oversub tree disconnected: %v", err)
	}
}

func TestBuildByKind(t *testing.T) {
	for _, kind := range []FabricKind{FabricFatTree, FabricOverSubFatTree, FabricRailOptimized, FabricTopoOpt, FabricMixNet} {
		c, err := Build(kind, DefaultSpec(64, 100*Gbps))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if c.Kind != kind {
			t.Errorf("Build(%v) built %v", kind, c.Kind)
		}
		if err := c.G.Validate(); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
	// DefaultSpec is non-blocking (Oversub 1); the over-subscribed kind
	// still tapers 3:1.
	over, _ := Build(FabricOverSubFatTree, DefaultSpec(64, 100*Gbps))
	spec := DefaultSpec(64, 100*Gbps)
	spec.Oversub = 3
	if want := BuildOverSubFatTree(spec).BOM; over.BOM != want {
		t.Errorf("oversub BOM %+v, want the 3:1 taper %+v", over.BOM, want)
	}
	for _, kind := range []FabricKind{FabricNVL72, FabricMixNetCPO} {
		if _, err := Build(kind, DefaultSpec(64, 100*Gbps)); err == nil {
			t.Errorf("Build(%v) accepted a Spec; scale-up fabrics need a ScaleUpSpec", kind)
		}
	}
}

func TestRailOptimizedGroupsNICsByRail(t *testing.T) {
	c := BuildRailOptimized(DefaultSpec(32, 100*Gbps))
	if err := c.G.Validate(); err != nil {
		t.Fatal(err)
	}
	// NIC r of servers 0..31 should share one ToR (group = radix/2 = 32).
	for r := 0; r < 8; r++ {
		tor := c.Servers[0].NICs[r].Tor
		for s := 1; s < 32; s++ {
			if c.Servers[s].NICs[r].Tor != tor {
				t.Fatalf("rail %d: server %d on different ToR", r, s)
			}
		}
	}
	// Different rails on different ToRs.
	if c.Servers[0].NICs[0].Tor == c.Servers[0].NICs[1].Tor {
		t.Error("rails 0 and 1 share a ToR")
	}
}

func TestBuildMixNet(t *testing.T) {
	spec := DefaultSpec(16, 100*Gbps) // 2 regions of 8 servers
	c := BuildMixNet(spec)
	if err := c.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(c.Regions))
	}
	if c.BOM.OCSPorts != 16*6 {
		t.Errorf("OCSPorts = %d, want 96", c.BOM.OCSPorts)
	}
	// Every server: 2 EPS NICs attached to a ToR, 6 OCS NICs.
	for s := range c.Servers {
		if got := len(c.Servers[s].EPSNICs()); got != 2 {
			t.Fatalf("server %d EPS NICs = %d", s, got)
		}
		if got := len(c.Servers[s].OCSNICs()); got != 6 {
			t.Fatalf("server %d OCS NICs = %d", s, got)
		}
	}
	// Uniform initial circuits: every server in region 0 has 6 circuits.
	table := regionCircuitTable(c, 0)
	perServer := map[int]int{}
	for key, pairs := range table {
		perServer[key[0]] += len(pairs)
		perServer[key[1]] += len(pairs)
	}
	for _, s := range c.Regions[0] {
		if perServer[s] != 6 {
			t.Errorf("server %d has %d circuits, want 6", s, perServer[s])
		}
	}
	// EPS fabric connects across regions even with no circuits.
	c.SetRegionCircuits(0, nil)
	c.SetRegionCircuits(1, nil)
	r := NewBFSRouter(c.G)
	if _, err := r.Route(c.GPU(0, 0), c.GPU(15, 0), 3); err != nil {
		t.Errorf("EPS-only route failed: %v", err)
	}
}

func TestMixNetReconfigure(t *testing.T) {
	c := BuildMixNet(DefaultSpec(8, 100*Gbps))
	s0 := c.Servers[0].OCSNICs()
	s1 := c.Servers[1].OCSNICs()
	// Install 3 parallel circuits between servers 0 and 1.
	pairs := []CircuitPair{
		{A: s0[0].Node, B: s1[0].Node},
		{A: s0[1].Node, B: s1[1].Node},
		{A: s0[2].Node, B: s1[2].Node},
	}
	if err := c.SetRegionCircuits(0, pairs); err != nil {
		t.Fatal(err)
	}
	table := regionCircuitTable(c, 0)
	if got := len(table[[2]int{0, 1}]); got != 3 {
		t.Errorf("circuits between 0-1 = %d, want 3", got)
	}
	if len(table) != 1 {
		t.Errorf("stale circuits survive reconfiguration: %v", table)
	}
	// Old circuit links must be detached from adjacency (their frozen
	// simulation fields keep Up for deferred communication steps).
	for _, l := range c.G.Links {
		if l.Circuit && l.Up && !l.Detached {
			a, b := c.G.Nodes[l.From].Server, c.G.Nodes[l.To].Server
			if !(a == 0 && b == 1 || a == 1 && b == 0) {
				t.Fatalf("unexpected live circuit %d-%d", a, b)
			}
		}
	}
	if err := c.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetRegionCircuitsOutOfRange(t *testing.T) {
	c := BuildMixNet(DefaultSpec(8, 100*Gbps))
	if err := c.SetRegionCircuits(5, nil); err == nil {
		t.Error("expected error for out-of-range region")
	}
}

func TestBuildTopoOpt(t *testing.T) {
	c := BuildTopoOpt(DefaultSpec(16, 100*Gbps))
	if err := c.G.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.BOM.PatchPorts != 16*8 {
		t.Errorf("PatchPorts = %d, want 128", c.BOM.PatchPorts)
	}
	if c.BOM.ElecPorts() != 0 {
		t.Error("TopoOpt should have no electrical switch ports")
	}
	// All-optical fabric must still be connected (ring + mesh).
	r := NewBFSRouter(c.G)
	if _, err := r.Route(c.GPU(0, 0), c.GPU(15, 7), 9); err != nil {
		t.Errorf("TopoOpt disconnected: %v", err)
	}
	// No server exceeds its NIC budget.
	for s := range c.Servers {
		deg := 0
		for _, nic := range c.Servers[s].NICs {
			for _, lid := range c.G.Out(nic.Node) {
				if c.G.Link(lid).Circuit {
					deg++
				}
			}
		}
		if deg > 8 {
			t.Errorf("server %d uses %d circuit NICs (>8)", s, deg)
		}
	}
}

// scaleUpRadixes are the switch radixes the scale-up builder tests take:
// the default, and 8, whose 32 scale-out NICs need a three-tier Clos. Only
// the fat-tree builders fold, so the scale-up builds must stay eager there.
var scaleUpRadixes = []int{0, 8}

// requireEagerScaleUp checks a scale-up build is eager, valid and routes
// GPU to GPU across domains.
func requireEagerScaleUp(t *testing.T, c *Cluster, radix int) {
	t.Helper()
	if c.Folded() {
		t.Fatalf("radix %d: %v build folded", radix, c.Kind)
	}
	if err := c.G.Validate(); err != nil {
		t.Fatalf("radix %d: %v", radix, err)
	}
	r := NewBFSRouter(c.G)
	if _, err := r.Route(c.GPU(0, 0), c.GPU(3, 7), 1); err != nil {
		t.Errorf("radix %d: %v scale-out disconnected: %v", radix, c.Kind, err)
	}
}

func TestBuildNVL72(t *testing.T) {
	for _, radix := range scaleUpRadixes {
		su := ScaleUpSpec{Domains: 4, GPUsPerDomain: 8, NVLinkBps: 7.2 * Tbps, EthBps: 800 * Gbps, SwitchRadix: radix}
		c := BuildNVL72(su)
		requireEagerScaleUp(t, c, radix)
		if c.GPUCount() != 32 {
			t.Errorf("radix %d: GPUCount = %d, want 32", radix, c.GPUCount())
		}
	}
}

func TestBuildMixNetCPO(t *testing.T) {
	for _, radix := range scaleUpRadixes {
		su := ScaleUpSpec{Domains: 4, GPUsPerDomain: 8, NVLinkBps: 3.6 * Tbps,
			OCSBps: 3.6 * Tbps, EthBps: 800 * Gbps, RegionDomains: 2, SwitchRadix: radix}
		c := BuildMixNetCPO(su)
		requireEagerScaleUp(t, c, radix)
		if len(c.Regions) != 2 {
			t.Fatalf("radix %d: regions = %d, want 2", radix, len(c.Regions))
		}
		// GPU-attached circuits exist.
		live := 0
		for _, l := range c.G.Links {
			if l.Circuit && l.Up && c.G.Nodes[l.From].Kind == KindGPU {
				live++
			}
		}
		if live == 0 {
			t.Errorf("radix %d: no GPU-attached circuits installed", radix)
		}
	}
}

// Property: for random cluster sizes the fat-tree builder yields a connected
// graph with one ToR port per endpoint at the edge.
func TestPropertyFatTreeConnected(t *testing.T) {
	f := func(raw uint8) bool {
		servers := 1 + int(raw)%64
		c := BuildFatTree(DefaultSpec(servers, 100*Gbps))
		if c.G.Validate() != nil {
			return false
		}
		r := NewBFSRouter(c.G)
		_, err := r.Route(c.GPU(0, 0), c.GPU(servers-1, 7), 5)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: MixNet uniform circuits never exceed per-server OCS NIC budgets.
func TestPropertyUniformCircuitBudget(t *testing.T) {
	f := func(raw uint8) bool {
		servers := 2 + int(raw)%31
		spec := DefaultSpec(servers, 100*Gbps)
		spec.RegionServers = servers
		c := BuildMixNet(spec)
		used := make(map[int]int)
		for _, p := range c.RegionCircuits(0) {
			used[c.G.Nodes[p.A].Server]++
			used[c.G.Nodes[p.B].Server]++
		}
		for _, u := range used {
			if u > spec.OCSNICs {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// regionCircuitTable indexes a region's circuits by server pair: the key is
// (low server index, high server index).
func regionCircuitTable(c *Cluster, region int) map[[2]int][]CircuitPair {
	t := make(map[[2]int][]CircuitPair)
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
