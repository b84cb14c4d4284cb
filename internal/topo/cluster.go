package topo

import "fmt"

// Units for bandwidth values.
const (
	Kbps = 1e3
	Mbps = 1e6
	Gbps = 1e9
	Tbps = 1e12
)

// NICClass says which fabric a NIC is wired into.
type NICClass uint8

// NIC classes.
const (
	NICEps NICClass = iota // electrical packet-switched scale-out fabric
	NICOcs                 // regional optical circuit switch
)

func (c NICClass) String() string {
	if c == NICEps {
		return "eps"
	}
	return "ocs"
}

// Spec describes the physical shape of a cluster before fabric wiring.
type Spec struct {
	Servers       int
	GPUsPerServer int
	NICsPerServer int
	NICBps        float64 // per-NIC line rate, bits/s
	NVSwitchBps   float64 // per-GPU bandwidth into the scale-up fabric
	HubFactor     float64 // NUMA-hub uplink capacity as a multiple of NICBps
	NUMAHubs      int     // PCIe/NUMA domains per server (NICs spread across)
	LinkLatency   float64 // propagation latency per hop, seconds
	SwitchRadix   int     // ports per electrical switch

	// MixNet-specific splits; ignored by purely electrical fabrics.
	EPSNICs       int // NICs per server wired to the EPS fabric
	OCSNICs       int // NICs per server wired to the regional OCS
	RegionServers int // servers per reconfigurable region (EP group span)

	// Oversub is the over-subscription ratio for the tapered fat-tree
	// (1.0 = non-blocking).
	Oversub float64

	// Eager asks the three-tier fat-tree builders for the reference build,
	// which materializes the whole cluster up front. By default they fold
	// by symmetry: identical pods and servers are constructed lazily, on
	// first touch. Folded and eager clusters produce byte-identical
	// simulation results; failure injectors and inventory accessors
	// materialize (unfold) what they touch. Only the large-scale bench's
	// reference rows and the fold-equivalence tests set it.
	Eager bool
}

// DefaultSpec returns the paper's simulation setup (§7.1): 8 GPUs and
// 8 NICs per server, NVSwitch at 900 GB/s per GPU, 1 µs link latency,
// radix-64 switches, and the default MixNet split of 2 EPS + 6 OCS NICs.
func DefaultSpec(servers int, nicBps float64) Spec {
	return Spec{
		Servers:       servers,
		GPUsPerServer: 8,
		NICsPerServer: 8,
		NICBps:        nicBps,
		NVSwitchBps:   900 * 8 * Gbps, // 900 GB/s
		HubFactor:     2.2,
		NUMAHubs:      2,
		LinkLatency:   1e-6,
		SwitchRadix:   64,
		EPSNICs:       2,
		OCSNICs:       6,
		RegionServers: 8,
		Oversub:       1,
	}
}

func (s Spec) withDefaults() Spec {
	if s.GPUsPerServer == 0 {
		s.GPUsPerServer = 8
	}
	if s.NICsPerServer == 0 {
		s.NICsPerServer = 8
	}
	if s.NVSwitchBps == 0 {
		s.NVSwitchBps = 900 * 8 * Gbps
	}
	if s.HubFactor == 0 {
		s.HubFactor = 2.2
	}
	if s.NUMAHubs == 0 {
		s.NUMAHubs = 2
	}
	if s.LinkLatency == 0 {
		s.LinkLatency = 1e-6
	}
	if s.SwitchRadix == 0 {
		s.SwitchRadix = 64
	}
	if s.Oversub == 0 {
		s.Oversub = 1
	}
	if s.RegionServers == 0 {
		s.RegionServers = 8
	}
	return s
}

// NIC is a network interface inside a server.
type NIC struct {
	Node  NodeID
	Index int // index within the server
	NUMA  int
	Class NICClass
	Tor   NodeID // attached ToR for EPS NICs; NoNode otherwise
}

// Server is one GPU host: GPUs around an NVSwitch, NICs hanging off NUMA
// hubs.
type Server struct {
	Index    int
	Region   int
	GPUs     []NodeID
	NVSwitch NodeID
	Hubs     []NodeID
	NICs     []NIC
}

// OCSNICs returns the server's optically attached NICs.
func (s *Server) OCSNICs() []NIC {
	var out []NIC
	for _, n := range s.NICs {
		if n.Class == NICOcs {
			out = append(out, n)
		}
	}
	return out
}

// OCSPorts returns a server's optical circuit attachment points: its OCS
// NICs, or — on the co-packaged-optics variant where circuits terminate
// directly on GPUs (§8) — its GPUs wrapped as pseudo-NIC ports.
func (c *Cluster) OCSPorts(server int) []NIC {
	s := c.Server(server)
	if ports := s.OCSNICs(); len(ports) > 0 {
		return ports
	}
	if c.Kind != FabricMixNetCPO {
		return nil
	}
	out := make([]NIC, 0, len(s.GPUs))
	for i, g := range s.GPUs {
		out = append(out, NIC{Node: g, Index: i, NUMA: c.G.Node(g).NUMA, Class: NICOcs, Tor: NoNode})
	}
	return out
}

// EPSNICs returns the server's electrically attached NICs.
func (s *Server) EPSNICs() []NIC {
	var out []NIC
	for _, n := range s.NICs {
		if n.Class == NICEps {
			out = append(out, n)
		}
	}
	return out
}

// BOM is the bill of materials used by the cost model. The builders count
// only actually used ports and cables, following the paper's §7.2
// methodology.
type BOM struct {
	NICs           int // NIC cards
	TorPorts       int // used ToR (leaf) switch ports
	AggPorts       int // used aggregation switch ports
	CorePorts      int // used core switch ports
	OCSPorts       int // used optical circuit switch ports
	PatchPorts     int // used patch-panel ports (TopoOpt)
	ServerTorLinks int // duplex cables NIC<->ToR
	FabricLinks    int // duplex cables switch<->switch
	OCSCables      int // duplex fibers NIC<->OCS
	PatchCables    int // duplex fibers NIC<->patch panel
}

// ElecPorts returns all used electrical switch ports.
func (b BOM) ElecPorts() int { return b.TorPorts + b.AggPorts + b.CorePorts }

// Add accumulates another BOM into b.
func (b *BOM) Add(o BOM) {
	b.NICs += o.NICs
	b.TorPorts += o.TorPorts
	b.AggPorts += o.AggPorts
	b.CorePorts += o.CorePorts
	b.OCSPorts += o.OCSPorts
	b.PatchPorts += o.PatchPorts
	b.ServerTorLinks += o.ServerTorLinks
	b.FabricLinks += o.FabricLinks
	b.OCSCables += o.OCSCables
	b.PatchCables += o.PatchCables
}

// FabricKind names one of the evaluated interconnect architectures.
type FabricKind uint8

// The five evaluated fabrics plus the §8 scale-up variants.
const (
	FabricFatTree FabricKind = iota
	FabricOverSubFatTree
	FabricRailOptimized
	FabricTopoOpt
	FabricMixNet
	FabricNVL72
	FabricMixNetCPO
)

var fabricNames = [...]string{
	"Fat-tree", "OverSub. Fat-tree", "Rail-optimized", "TopoOpt", "MixNet",
	"NVL72", "MixNet (w/ optical I/O)",
}

func (f FabricKind) String() string {
	if int(f) < len(fabricNames) {
		return fabricNames[f]
	}
	return fmt.Sprintf("fabric(%d)", uint8(f))
}

// Fabrics maps the CLI fabric names to the five evaluated fabrics.
func Fabrics() map[string]FabricKind {
	return map[string]FabricKind{
		"fat-tree": FabricFatTree,
		"oversub":  FabricOverSubFatTree,
		"rail":     FabricRailOptimized,
		"topoopt":  FabricTopoOpt,
		"mixnet":   FabricMixNet,
	}
}

// Build wires spec as one of the five evaluated fabrics — the one
// kind-to-builder mapping the simulation entry points and the cost model
// share. The over-subscribed fat-tree tapers 3:1 unless spec.Oversub says
// otherwise. The §8 scale-up fabrics take a ScaleUpSpec and are an error
// here.
func Build(kind FabricKind, spec Spec) (*Cluster, error) {
	switch kind {
	case FabricFatTree:
		return BuildFatTree(spec), nil
	case FabricOverSubFatTree:
		return BuildOverSubFatTree(spec), nil
	case FabricRailOptimized:
		return BuildRailOptimized(spec), nil
	case FabricTopoOpt:
		return BuildTopoOpt(spec), nil
	case FabricMixNet:
		return BuildMixNet(spec), nil
	}
	return nil, fmt.Errorf("topo: %v is not built from a Spec", kind)
}

// Cluster is a fully wired cluster: the graph, per-server inventory and the
// bill of materials.
type Cluster struct {
	G       *Graph
	Spec    Spec
	Kind    FabricKind
	Servers []Server
	BOM     BOM

	// Regions lists server indices per reconfigurable region. Empty for
	// fabrics without regional OCS.
	Regions [][]int

	// CircuitBps is the bandwidth of reconfigurable circuits; 0 means the
	// NIC line rate (the CPO variant sets it to the per-GPU optical I/O).
	CircuitBps float64

	// ocs holds mutable circuit state per region (MixNet / TopoOpt).
	ocs []*regionCircuits

	// fold tracks lazy materialization state for symmetry-folded clusters
	// (fold.go); nil for eagerly built clusters.
	fold *foldState
}

// regionCircuits tracks currently installed circuits for one OCS region.
type regionCircuits struct {
	linkIDs []LinkID // directed link IDs of installed circuits (both dirs)
	pairs   []CircuitPair
	bps     float64 // per-circuit bandwidth of the installed set

	// Build-time snapshot (sealBuildCircuits): the configuration
	// ResetCircuits restores so a reused cluster starts runs from the same
	// circuits a fresh build would.
	buildPairs []CircuitPair
	buildBps   float64
}

// CircuitPair is one duplex optical circuit between two NIC (or GPU) ports.
type CircuitPair struct {
	A, B NodeID
}

// GPUCount returns the number of GPUs in the cluster.
func (c *Cluster) GPUCount() int { return len(c.Servers) * c.Spec.GPUsPerServer }

// NumServers returns the logical server count (materialized or not).
func (c *Cluster) NumServers() int { return len(c.Servers) }

// Server returns server i's inventory, materializing it first on folded
// clusters. This is the unfold-on-demand escape hatch: failure injectors
// and placement code that read a server's nodes force it (and its leaves
// and pod) into existence here.
func (c *Cluster) Server(i int) *Server {
	if c.fold != nil && !c.fold.srvDone[i] {
		c.ensureServer(i)
	}
	return &c.Servers[i]
}

// EnsureServer materializes server i on a folded cluster (no-op otherwise).
func (c *Cluster) EnsureServer(i int) { c.Server(i) }

// MaterializeAll unfolds the entire cluster.
func (c *Cluster) MaterializeAll() {
	for i := range c.Servers {
		c.Server(i)
	}
}

// Folded reports whether the cluster was built with symmetry folding.
func (c *Cluster) Folded() bool { return c.fold != nil }

// MaterializedServers returns how many servers physically exist in memory.
func (c *Cluster) MaterializedServers() int {
	if c.fold == nil {
		return len(c.Servers)
	}
	return c.fold.matServers
}

// FoldFactor returns logical servers per materialized server (1 when not
// folded or fully unfolded).
func (c *Cluster) FoldFactor() float64 {
	mat := c.MaterializedServers()
	if mat == 0 {
		mat = 1
	}
	return float64(len(c.Servers)) / float64(mat)
}

// GPU returns the node ID of GPU g on server s.
func (c *Cluster) GPU(s, g int) NodeID { return c.Server(s).GPUs[g] }

// GlobalGPU returns the node ID of the i-th GPU cluster-wide (server-major).
func (c *Cluster) GlobalGPU(i int) NodeID {
	per := c.Spec.GPUsPerServer
	return c.Server(i / per).GPUs[i%per]
}

// RegionOf returns the region index of a server (-1 if none).
func (c *Cluster) RegionOf(server int) int { return c.Servers[server].Region }

// buildServers creates per-server internals (GPUs, NVSwitch, NUMA hubs,
// NICs) and returns the servers. classes assigns NICClass per NIC index.
func buildServers(g *Graph, spec Spec, classes []NICClass) []Server {
	if len(g.Nodes) == 0 {
		// Servers occupy the leading node/link ID blocks; record the layout
		// so BFSRouter can replay a representative server's internal routes
		// for its identical copies.
		g.blockNodes = int32(nodesPerServer(spec))
		g.blockLinks = int32(linksPerServer(spec))
		g.blockCount = int32(spec.Servers)
		g.blockRep = 0
	}
	hubDeg := make([]int, spec.NUMAHubs)
	for i := 0; i < spec.NICsPerServer; i++ {
		hubDeg[i%spec.NUMAHubs]++
	}
	internalDeg := spec.NUMAHubs + spec.GPUsPerServer
	servers := make([]Server, spec.Servers)
	for s := 0; s < spec.Servers; s++ {
		srv := Server{Index: s, Region: -1}
		srv.NVSwitch = g.AddNode(KindNVSwitch, fmt.Sprintf("srv%d/nvsw", s), s, -1, -1)
		g.ReserveAdj(srv.NVSwitch, internalDeg, internalDeg)
		for h := 0; h < spec.NUMAHubs; h++ {
			hub := g.AddNode(KindNUMAHub, fmt.Sprintf("srv%d/numa%d", s, h), s, h, -1)
			g.ReserveAdj(hub, 1+hubDeg[h], 1+hubDeg[h])
			srv.Hubs = append(srv.Hubs, hub)
			g.AddDuplex(hub, srv.NVSwitch, spec.HubFactor*spec.NICBps, 0)
		}
		for i := 0; i < spec.GPUsPerServer; i++ {
			gpu := g.AddNode(KindGPU, fmt.Sprintf("srv%d/gpu%d", s, i), s, i%spec.NUMAHubs, -1)
			g.ReserveAdj(gpu, 1, 1)
			srv.GPUs = append(srv.GPUs, gpu)
			g.AddDuplex(gpu, srv.NVSwitch, spec.NVSwitchBps, 0)
		}
		for i := 0; i < spec.NICsPerServer; i++ {
			numa := i % spec.NUMAHubs
			nic := g.AddNode(KindNIC, fmt.Sprintf("srv%d/nic%d", s, i), s, numa, -1)
			g.ReserveAdj(nic, 2, 2)
			g.AddDuplex(nic, srv.Hubs[numa], spec.NICBps, 0)
			class := NICEps
			if i < len(classes) {
				class = classes[i]
			}
			srv.NICs = append(srv.NICs, NIC{Node: nic, Index: i, NUMA: numa, Class: class, Tor: NoNode})
		}
		servers[s] = srv
	}
	return servers
}
