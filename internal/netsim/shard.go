package netsim

import "mixnet/internal/topo"

// Partitioner splits a phase's flows into connected components over shared
// links: two flows land in the same shard iff they are joined by a chain of
// flows whose paths intersect. Components never exchange packets or share
// queue state, so the packet backend simulates each shard on its own — one
// after another on one event loop, with a smaller event heap than the whole
// phase — and still reproduces the unpartitioned results byte-for-byte.
//
// The decomposition is deterministic: shards are ordered by their first
// flow's position in the input slice, and flows within a shard keep their
// input order. All bookkeeping lives in reusable arenas (a union-find over
// flow indices plus an epoch-stamped per-link owner table), so steady-state
// Partition calls over same-shaped phases perform no heap allocations.
//
// A Partitioner must not be used from multiple goroutines concurrently.
type Partitioner struct {
	parent  []int32  // union-find over flow indices
	shardOf []int32  // flow root -> shard index (-1 = unassigned)
	owner   []int32  // link -> first flow that used it this epoch
	stamp   []uint32 // link -> epoch of owner validity
	epoch   uint32

	offs   []int32 // per-shard fill cursors, then prefix offsets
	flat   []*Flow // backing storage for the returned shards
	shards [][]*Flow
}

// NewPartitioner returns an empty reusable partitioner.
func NewPartitioner() *Partitioner { return &Partitioner{} }

// find resolves a flow's component representative with path halving.
func (p *Partitioner) find(i int32) int32 {
	for p.parent[i] != i {
		p.parent[i] = p.parent[p.parent[i]]
		i = p.parent[i]
	}
	return i
}

// union merges two components, keeping the smaller flow index as the
// representative so component identity is input-order deterministic.
func (p *Partitioner) union(a, b int32) {
	ra, rb := p.find(a), p.find(b)
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	p.parent[rb] = ra
}

// Partition splits flows into connected components over shared links.
// nLinks is the link-ID space of the graph the paths were routed on, with
// link IDs indexing it directly. The returned shards and their backing
// arrays are owned by the partitioner and valid until the next Partition
// call; callers must not retain them. Flows with empty paths touch no links
// and become singleton shards.
func (p *Partitioner) Partition(nLinks int, flows []*Flow) [][]*Flow {
	return p.partition(nLinks, nil, flows)
}

// PartitionGraph is Partition against a graph: the owner table is sized by
// the graph's link storage (len(g.Links)) and indexed through
// g.LinkIndex, so symmetry-folded graphs only pay for materialized links.
func (p *Partitioner) PartitionGraph(g *topo.Graph, flows []*Flow) [][]*Flow {
	return p.partition(len(g.Links), g, flows)
}

func (p *Partitioner) partition(nLinks int, g *topo.Graph, flows []*Flow) [][]*Flow {
	n := len(flows)
	if n == 0 {
		return p.shards[:0]
	}
	if cap(p.parent) < n {
		p.parent = make([]int32, n)
		p.shardOf = make([]int32, n)
		p.offs = make([]int32, n+1)
		p.flat = make([]*Flow, n)
	}
	parent, shardOf := p.parent[:n], p.shardOf[:n]
	flat := p.flat[:n]
	if len(p.stamp) < nLinks {
		p.stamp = make([]uint32, nLinks)
		p.owner = make([]int32, nLinks)
	}
	p.epoch++
	if p.epoch == 0 { // wrapped: stamps from the previous cycle are stale
		clear(p.stamp)
		p.epoch = 1
	}
	epoch := p.epoch

	for i := range parent {
		parent[i] = int32(i)
		shardOf[i] = -1
	}
	// Union flows through the first flow seen on each link.
	for i, f := range flows {
		for _, lid := range f.Path {
			li := int32(lid)
			if g != nil {
				li = g.LinkIndex(lid)
			}
			if p.stamp[li] != epoch {
				p.stamp[li] = epoch
				p.owner[li] = int32(i)
				continue
			}
			p.union(int32(i), p.owner[li])
		}
	}
	// Number shards by first appearance and count their sizes.
	nShards := int32(0)
	offs := p.offs[:n+1]
	for i := range flows {
		r := p.find(int32(i))
		if shardOf[r] < 0 {
			shardOf[r] = nShards
			offs[nShards] = 0
			nShards++
		}
		offs[shardOf[r]]++
	}
	// Sizes -> exclusive prefix offsets (offs[k] = start of shard k).
	var sum int32
	for k := int32(0); k < nShards; k++ {
		sz := offs[k]
		offs[k] = sum
		sum += sz
	}
	offs[nShards] = sum
	// Fill shard storage in input order using per-shard cursors; rebuild the
	// offsets as each shard fills to its end boundary.
	if cap(p.shards) < int(nShards) {
		p.shards = make([][]*Flow, nShards)
	}
	shards := p.shards[:nShards]
	for i, f := range flows {
		k := shardOf[p.find(int32(i))]
		flat[offs[k]] = f
		offs[k]++
	}
	// offs[k] now equals the end of shard k; reconstruct starts.
	end := offs
	start := int32(0)
	for k := int32(0); k < nShards; k++ {
		shards[k] = flat[start:end[k]:end[k]]
		start = end[k]
	}
	return shards
}
