// Package topo models GPU-cluster interconnect topologies as explicit
// directed graphs: GPUs, NVSwitch scale-up fabrics, NUMA/PCIe hubs, NICs,
// electrical packet switches (ToR/Agg/Core), and optical circuit links.
//
// It provides builders for the five fabrics evaluated in the MixNet paper
// (Fat-tree, over-subscribed Fat-tree, Rail-optimized, TopoOpt, MixNet) plus
// the NVL72-style high-radix scale-up domain of §8, and generic shortest-path
// ECMP routing over the resulting graphs.
package topo

import (
	"fmt"
	"math"
	"slices"
)

// NodeID identifies a node in a Graph.
type NodeID int32

// LinkID identifies a directed link in a Graph.
type LinkID int32

// Invalid sentinel IDs.
const (
	NoNode NodeID = -1
	NoLink LinkID = -1
)

// Kind classifies a node.
type Kind uint8

// Node kinds.
const (
	KindGPU Kind = iota
	KindNVSwitch
	KindNUMAHub
	KindNIC
	KindTor
	KindAgg
	KindCore
	KindPatch // TopoOpt patch-panel (passive; circuits only)
)

var kindNames = [...]string{"gpu", "nvswitch", "numahub", "nic", "tor", "agg", "core", "patch"}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is a vertex in the interconnect graph.
type Node struct {
	ID     NodeID
	Kind   Kind
	Name   string
	Server int // owning server index, or -1 for fabric switches
	NUMA   int // NUMA node within the server, or -1
	Region int // reconfigurable high-bandwidth-domain region, or -1
}

// Link is a directed edge. Physical duplex cables are represented as two
// directed links (see AddDuplex).
type Link struct {
	ID      LinkID
	From    NodeID
	To      NodeID
	Bps     float64 // capacity in bits per second
	Latency float64 // propagation delay in seconds
	Up      bool    // false when failed
	Circuit bool    // true for OCS/patch-panel optical circuits
	// Detached marks a circuit torn down by reconfiguration. Detached links
	// leave the adjacency lists — routing and DAG walks never see them — but
	// keep their endpoint, capacity and Up fields frozen at teardown, so a
	// communication step whose routes were compiled while the circuit was
	// installed still simulates byte-identically after later
	// reconfigurations rewired the region (batched communication plans defer
	// simulation past the graph surgery). Link IDs are never reused.
	Detached bool
}

// Graph is a mutable directed multigraph.
//
// Storage is dense in materialization order: Nodes and Links hold only the
// nodes/links that physically exist in memory. On eagerly built graphs the
// storage index of a node/link equals its ID, so Nodes[id] is valid. On
// symmetry-folded graphs (see fold.go) the ID space is larger than storage —
// unmaterialized pods/servers have IDs but no backing entries — and callers
// must go through Node/Link/Out/In (ID-based, slot-translating) or
// NodeIndex/LinkIndex. len(Nodes)/len(Links) is the stored count;
// NumNodes/NumLinks the logical (ID-space) count. Dense per-link simulation
// arenas should be sized by len(Links) and indexed by LinkIndex, so folded
// graphs only pay for materialized links.
type Graph struct {
	Nodes []Node
	Links []Link
	out   [][]LinkID // adjacency per storage slot: outgoing link IDs
	in    [][]LinkID
	epoch uint64 // bumped on every mutation; used by route caches

	// growth counts lazy materializations (fold.go). Unlike epoch it does
	// NOT invalidate route caches: the folded builders only ever add nodes
	// and links in ways that neither shorten existing shortest paths nor
	// widen existing ECMP candidate sets (new links are incident to new
	// pods/leaves/servers, and a candidate set for a route always lies in
	// the source pod, the destination pod/server, or the eagerly built core
	// plane). Distance fields use it to detect when a miss means "not yet
	// computed against the grown graph" rather than "unreachable".
	growth uint64

	// Logical->storage slot maps (+1, so 0 means unmaterialized). nil on
	// eager graphs: identity. nNodes/nLinks are the logical counts.
	nodeSlot []int32
	linkSlot []int32
	nNodes   int
	nLinks   int

	// adjArena backs pre-sized adjacency lists (ReserveAdj): one shared
	// allocation instead of two per node.
	adjArena []LinkID

	// Server-block layout for intra-server route replay (router.go): every
	// server occupies blockNodes consecutive node IDs and blockLinks
	// consecutive link IDs, identical across servers. blockRep is the
	// representative server whose internal routes replay for its copies
	// (-1 = replay disabled). dirtySrv lists servers whose incident links
	// were mutated (failures, circuits) and therefore no longer mirror the
	// representative.
	blockNodes int32
	blockLinks int32
	blockCount int32
	blockRep   int32
	dirtySrv   map[int32]struct{}
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{blockRep: -1} }

// Epoch returns a counter that increases on every mutation and never
// decreases, so a cache stamped with any earlier value is stale. Route
// caches and distance fields key on it and invalidate lazily on mismatch.
func (g *Graph) Epoch() uint64 { return g.epoch }

// Growth returns a counter that changes whenever a folded graph
// materializes more of its ID space. Growth does not invalidate routes
// (see the field comment); distance-field caches use it to distinguish
// "stale, recompute" from "unreachable".
func (g *Graph) Growth() uint64 { return g.growth }

// NumNodes returns the logical node count (the ID space), which on folded
// graphs exceeds len(g.Nodes).
func (g *Graph) NumNodes() int {
	if g.nodeSlot != nil {
		return g.nNodes
	}
	return len(g.Nodes)
}

// NumLinks returns the logical link count (the ID space).
func (g *Graph) NumLinks() int {
	if g.linkSlot != nil {
		return g.nLinks
	}
	return len(g.Links)
}

// NodeIndex returns the storage slot of a node ID, or -1 when the node is
// not materialized. On eager graphs it is the identity.
func (g *Graph) NodeIndex(id NodeID) int32 {
	if g.nodeSlot == nil {
		return int32(id)
	}
	return g.nodeSlot[id] - 1
}

// LinkIndex returns the storage slot of a link ID, or -1 when the link is
// not materialized. On eager graphs it is the identity.
func (g *Graph) LinkIndex(id LinkID) int32 {
	if g.linkSlot == nil {
		return int32(id)
	}
	return g.linkSlot[id] - 1
}

// Grow pre-sizes the graph for nodes more nodes and links more directed
// links, including the shared adjacency arena ReserveAdj carves from —
// the counted two-pass allocation the builders use instead of append
// regrowth.
func (g *Graph) Grow(nodes, links int) {
	g.Nodes = slices.Grow(g.Nodes, nodes)
	g.Links = slices.Grow(g.Links, links)
	g.out = slices.Grow(g.out, nodes)
	g.in = slices.Grow(g.in, nodes)
	if cap(g.adjArena)-len(g.adjArena) < 2*links {
		g.adjArena = make([]LinkID, 0, 2*links)
	}
}

// carve reserves an n-capacity adjacency list from the shared arena,
// starting a fresh arena chunk when the current one is exhausted (earlier
// carvings keep their old backing).
//
//mixnet:noalloc
func (g *Graph) carve(n int) []LinkID {
	if n == 0 {
		return nil
	}
	if len(g.adjArena)+n > cap(g.adjArena) {
		chunk := 4096
		if n > chunk {
			chunk = n
		}
		g.adjArena = make([]LinkID, 0, chunk)
	}
	off := len(g.adjArena)
	g.adjArena = g.adjArena[:off+n]
	return g.adjArena[off : off : off+n]
}

// ReserveAdj pre-sizes a node's adjacency lists for its exact final degree,
// carving both from the shared arena. Safe to skip: adjacency appends grow
// normally past the reservation.
func (g *Graph) ReserveAdj(n NodeID, outDeg, inDeg int) {
	i := g.NodeIndex(n)
	if len(g.out[i]) == 0 {
		g.out[i] = g.carve(outDeg)
	}
	if len(g.in[i]) == 0 {
		g.in[i] = g.carve(inDeg)
	}
}

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(kind Kind, name string, server, numa, region int) NodeID {
	id := NodeID(g.NumNodes())
	slot := len(g.Nodes)
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Name: name, Server: server, NUMA: numa, Region: region})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	if g.nodeSlot != nil {
		g.nodeSlot = append(g.nodeSlot, int32(slot)+1)
		g.nNodes++
	}
	g.epoch++
	return id
}

// AddLink appends one directed link and returns its ID.
func (g *Graph) AddLink(from, to NodeID, bps, latency float64) LinkID {
	id := LinkID(g.NumLinks())
	slot := len(g.Links)
	g.Links = append(g.Links, Link{ID: id, From: from, To: to, Bps: bps, Latency: latency, Up: true})
	if g.linkSlot != nil {
		g.linkSlot = append(g.linkSlot, int32(slot)+1)
		g.nLinks++
	}
	fi, ti := g.NodeIndex(from), g.NodeIndex(to)
	g.out[fi] = append(g.out[fi], id)
	g.in[ti] = append(g.in[ti], id)
	g.epoch++
	return id
}

// AddDuplex adds a bidirectional link pair and returns both directed IDs.
func (g *Graph) AddDuplex(a, b NodeID, bps, latency float64) (ab, ba LinkID) {
	ab = g.AddLink(a, b, bps, latency)
	ba = g.AddLink(b, a, bps, latency)
	return ab, ba
}

// AddCircuit adds a duplex optical circuit between two NIC (or GPU-CPO)
// nodes. Circuits are marked so they can be torn down on reconfiguration.
func (g *Graph) AddCircuit(a, b NodeID, bps, latency float64) (ab, ba LinkID) {
	ab, ba = g.AddDuplex(a, b, bps, latency)
	g.Link(ab).Circuit = true
	g.Link(ba).Circuit = true
	// A circuit changes the servers' internal reachability structure: their
	// routes no longer mirror the representative block.
	g.markDirty(a)
	g.markDirty(b)
	return ab, ba
}

// Node returns the node with the given ID. The node must be materialized.
func (g *Graph) Node(id NodeID) *Node { return &g.Nodes[g.NodeIndex(id)] }

// Link returns the link with the given ID. The link must be materialized.
func (g *Graph) Link(id LinkID) *Link { return &g.Links[g.LinkIndex(id)] }

// Out returns the outgoing link IDs of n (nil when unmaterialized).
func (g *Graph) Out(n NodeID) []LinkID {
	i := g.NodeIndex(n)
	if i < 0 {
		return nil
	}
	return g.out[i]
}

// In returns the incoming link IDs of n (nil when unmaterialized).
func (g *Graph) In(n NodeID) []LinkID {
	i := g.NodeIndex(n)
	if i < 0 {
		return nil
	}
	return g.in[i]
}

// markDirty flags a node's server as diverged from the representative
// server block, disabling intra-server route replay for it.
func (g *Graph) markDirty(n NodeID) {
	if g.blockNodes == 0 {
		return
	}
	if s := g.Node(n).Server; s >= 0 {
		if g.dirtySrv == nil {
			g.dirtySrv = make(map[int32]struct{})
		}
		g.dirtySrv[int32(s)] = struct{}{}
	}
}

// srvDirty reports whether a server's links were mutated since build.
func (g *Graph) srvDirty(s int32) bool {
	_, ok := g.dirtySrv[s]
	return ok
}

// SetLinkUp marks a directed link up or down (failure injection).
func (g *Graph) SetLinkUp(id LinkID, up bool) {
	l := g.Link(id)
	if l.Up != up {
		l.Up = up
		g.epoch++
		g.markDirty(l.From)
		g.markDirty(l.To)
	}
}

// SetDuplexUp flips both directions of a duplex pair created by AddDuplex,
// identified by either directed ID. AddDuplex allocates the pair
// consecutively but at an arbitrary offset, so the partner is the adjacent
// link (id^1 for the common even-aligned case — which also disambiguates
// parallel duplex rails between the same endpoints — with id+1/id-1 as the
// odd-offset fallback) whose endpoints are the reverse of ab's. Callers
// that kept both IDs should prefer calling SetLinkUp twice; this helper
// assumes consecutive allocation.
func (g *Graph) SetDuplexUp(ab LinkID, up bool) {
	g.SetLinkUp(ab, up)
	l := *g.Link(ab)
	for _, other := range [3]LinkID{ab ^ 1, ab + 1, ab - 1} {
		if other >= 0 && int(other) < g.NumLinks() && g.LinkIndex(other) >= 0 {
			o := g.Link(other)
			if l.From == o.To && l.To == o.From {
				g.SetLinkUp(other, up)
				return
			}
		}
	}
}

// RemoveCircuits detaches every circuit link whose endpoint region matches
// region (-1 for all). The links remain allocated (IDs stay stable, and
// their simulation fields freeze at teardown for deferred communication
// steps) but are removed from adjacency so routing ignores them.
func (g *Graph) RemoveCircuits(region int) int {
	n := 0
	for i := range g.Links {
		l := &g.Links[i]
		if !l.Circuit || l.detached() {
			continue
		}
		if region >= 0 && g.Node(l.From).Region != region && g.Node(l.To).Region != region {
			continue
		}
		g.detachLink(l.ID)
		n++
	}
	return n
}

func (l *Link) detached() bool { return l.Detached }

// detachLink removes a link from adjacency and bumps the epoch, like every
// other mutation: a teardown with no reinstall after it must still
// invalidate routes cached over the link.
func (g *Graph) detachLink(id LinkID) {
	l := g.Link(id)
	fi, ti := g.NodeIndex(l.From), g.NodeIndex(l.To)
	g.out[fi] = removeLinkID(g.out[fi], id)
	g.in[ti] = removeLinkID(g.in[ti], id)
	l.Detached = true
	g.epoch++
	g.markDirty(l.From)
	g.markDirty(l.To)
}

func removeLinkID(s []LinkID, id LinkID) []LinkID {
	for i, v := range s {
		if v == id {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// StateHash fingerprints the graph's simulation-relevant state: node
// counts plus, for every attached materialized link, its endpoints,
// capacity, latency and up/circuit flags. Per-link hashes combine by
// commutative sum, so neither storage order nor link IDs contribute — a
// circuit torn down and reinstalled between the same endpoints (which
// allocates fresh IDs) hashes identically to the original. Callers use it
// to verify that a mutated graph has been restored to a snapshot's state.
//
//mixnet:noalloc
func (g *Graph) StateHash() uint64 {
	h := hash64(uint64(g.NumNodes())<<32 ^ uint64(len(g.Nodes)))
	var sum uint64
	for i := range g.Links {
		l := &g.Links[i]
		if l.detached() {
			continue
		}
		x := hash64(uint64(uint32(l.From))<<32 | uint64(uint32(l.To)))
		x = hash64(x ^ math.Float64bits(l.Bps))
		x = hash64(x ^ math.Float64bits(l.Latency))
		var flags uint64
		if l.Up {
			flags |= 1
		}
		if l.Circuit {
			flags |= 2
		}
		sum += hash64(x ^ flags)
	}
	return hash64(h ^ sum)
}

// beginFolded switches the graph to folded (slot-indirected) storage with a
// logical ID space of nNodes/nLinks, all initially unmaterialized.
func (g *Graph) beginFolded(nNodes, nLinks int) {
	g.nodeSlot = make([]int32, nNodes)
	g.linkSlot = make([]int32, nLinks)
	g.nNodes, g.nLinks = nNodes, nLinks
}

// putNode materializes a node at a pre-assigned logical ID, reserving
// adjacency capacity for its exact degree. Folded-builder counterpart of
// AddNode; bumps growth (via the caller's unit) rather than epoch.
func (g *Graph) putNode(id NodeID, kind Kind, name string, server, numa, region, outDeg, inDeg int) {
	if g.nodeSlot[id] != 0 {
		panic("topo: putNode on materialized node")
	}
	slot := len(g.Nodes)
	g.Nodes = append(g.Nodes, Node{ID: id, Kind: kind, Name: name, Server: server, NUMA: numa, Region: region})
	g.out = append(g.out, g.carve(outDeg))
	g.in = append(g.in, g.carve(inDeg))
	g.nodeSlot[id] = int32(slot) + 1
}

// putLink materializes a directed link at a pre-assigned logical ID. Both
// endpoints must already be materialized.
func (g *Graph) putLink(id LinkID, from, to NodeID, bps, latency float64) {
	if g.linkSlot[id] != 0 {
		panic("topo: putLink on materialized link")
	}
	slot := len(g.Links)
	g.Links = append(g.Links, Link{ID: id, From: from, To: to, Bps: bps, Latency: latency, Up: true})
	g.linkSlot[id] = int32(slot) + 1
	fi, ti := g.NodeIndex(from), g.NodeIndex(to)
	g.out[fi] = append(g.out[fi], id)
	g.in[ti] = append(g.in[ti], id)
}

// putDuplex materializes the duplex pair (ab, ab+1), mirroring AddDuplex's
// consecutive allocation.
func (g *Graph) putDuplex(ab LinkID, a, b NodeID, bps, latency float64) {
	g.putLink(ab, a, b, bps, latency)
	g.putLink(ab+1, b, a, bps, latency)
}

// Validate performs internal consistency checks and returns the first
// problem found, or nil.
func (g *Graph) Validate() error {
	for i := range g.Links {
		l := &g.Links[i]
		if l.detached() {
			continue
		}
		if int(l.From) >= g.NumNodes() || int(l.To) >= g.NumNodes() ||
			g.NodeIndex(l.From) < 0 || g.NodeIndex(l.To) < 0 {
			return fmt.Errorf("link %d references missing node", l.ID)
		}
		if l.Bps <= 0 {
			return fmt.Errorf("link %d has non-positive bandwidth", l.ID)
		}
		if l.Latency < 0 {
			return fmt.Errorf("link %d has negative latency", l.ID)
		}
	}
	for i := range g.out {
		nid := g.Nodes[i].ID
		for _, id := range g.out[i] {
			if g.Link(id).From != nid {
				return fmt.Errorf("adjacency mismatch at node %d link %d", nid, id)
			}
		}
	}
	return nil
}
