package topo

import (
	"errors"
	"math/bits"
)

// Route is an ordered list of directed link IDs from a source to a
// destination node.
type Route []LinkID

// ErrNoRoute is returned when no path exists (e.g. after failures).
var ErrNoRoute = errors.New("topo: no route")

// Router computes paths over a Graph. flowKey seeds ECMP hashing so
// distinct flows between the same endpoints can take different equal-cost
// paths, while a single flow is stable.
type Router interface {
	Route(src, dst NodeID, flowKey uint64) (Route, error)
}

// BFSRouter is a generic shortest-path ECMP router. It caches per-destination
// distance fields and fully resolved routes, and invalidates both when the
// graph epoch changes, so steady-state Route calls perform zero heap
// allocations. A route that meets exactly one candidate at every hop is the
// same under every flow key, so it is cached once per (src, dst) pair and
// returned for any key; routes with an ECMP choice are cached per key.
//
// Path selection walks from src towards dst, at each hop choosing among the
// neighbours that strictly decrease the distance to dst, hashed by
// (flowKey, hop, node) — per-hop ECMP as practised in Clos fabrics.
//
// Distance fields are resumable breadth-first searches: Route expands a
// field only until src is labelled, DistanceField to completion. Every OCS
// reconfiguration bumps the epoch, and most routes compiled right after one
// (intra-server gather/scatter hops, one-hop circuit legs) need only the
// first few BFS levels, so the rest of the fabric is never walked. Dropped
// fields return their buffers to an entry pool for the next epoch.
//
// On symmetry-folded graphs the router operates on the quotient: distance
// fields are sized and indexed by storage slot (materialized nodes only),
// refresh lazily when a lookup misses after the graph has grown, and
// intra-server routes are computed once on a representative server and
// replayed — by pure link-ID offset translation — for every identical copy.
type BFSRouter struct {
	G *Graph

	epoch  uint64
	growth uint64                // graph growth the single cache holds for
	dist   map[NodeID]*distEntry // dst -> distances of materialized nodes to dst
	routes map[routeKey]Route    // paths with an ECMP choice, keyed by (src, dst, flowKey)
	single map[nodePair]Route    // paths without one: the same under every flow key
	cands  []LinkID              // per-hop ECMP candidate scratch

	// pool holds every distance entry this router has allocated;
	// pool[:live] are the ones r.dist currently maps. Invalidation resets
	// live instead of dropping the entries, so the next epoch reuses their
	// buffers.
	pool []*distEntry
	live int
}

// distEntry is one cached distance field, computed as a resumable BFS
// towards the destination: d is indexed by node storage slot (-1 unlabelled:
// unreachable, not yet reached, or out of range) and queue[head:] holds the
// frontier, labelled slots not yet expanded, in discovery order. The field
// was started at the recorded growth. Materialization never changes
// distances between already-materialized nodes (see Graph.growth), so a
// stale entry is still correct for every slot it labelled; but its frontier
// cannot be resumed, because expanded nodes may have gained in-links since,
// so it restarts when a route endpoint lies beyond it.
type distEntry struct {
	d      []int32
	queue  []int32
	head   int
	growth uint64
}

// routeKey identifies a cached route. flowKey is part of the key because it
// seeds the per-hop ECMP hash: the same (src, dst) pair takes different
// equal-cost paths under different keys.
type routeKey struct {
	src, dst NodeID
	flow     uint64
}

// nodePair identifies a cached route that no flow key can change.
type nodePair struct{ src, dst NodeID }

// NewBFSRouter creates a router over g.
func NewBFSRouter(g *Graph) *BFSRouter {
	r := &BFSRouter{G: g}
	r.Invalidate()
	return r
}

// Invalidate drops all cached distance fields and routes. Callers normally
// do not need this: the caches self-invalidate on graph mutation via the
// epoch counter.
func (r *BFSRouter) Invalidate() {
	if r.dist == nil {
		r.dist = make(map[NodeID]*distEntry)
		r.routes = make(map[routeKey]Route)
		r.single = make(map[nodePair]Route)
	}
	clear(r.dist)
	clear(r.routes)
	clear(r.single)
	r.live = 0
}

// sync drops what the graph has outdated since the last call: every cache
// when the epoch moved, and the single-path routes when a folded graph
// grew, because a new pod can give a hop a second equal-cost candidate
// (core to core, say). Distance fields carry their own growth stamp, and
// reach/DistanceField restart a stale one.
func (r *BFSRouter) sync() {
	g := r.G
	if r.epoch != g.Epoch() {
		r.Invalidate()
		r.epoch = g.Epoch()
	} else if r.growth != g.Growth() {
		clear(r.single)
	}
	r.growth = g.Growth()
}

// computeDist (re)starts dst's distance field against the current graph:
// it labels dst alone and leaves the rest of the search to expand.
func (r *BFSRouter) computeDist(dst NodeID) *distEntry {
	g := r.G
	e := r.dist[dst]
	if e == nil {
		if r.live == len(r.pool) {
			r.pool = append(r.pool, &distEntry{})
		}
		e = r.pool[r.live]
		r.live++
		r.dist[dst] = e
	}
	e.growth = g.Growth()
	n := len(g.Nodes)
	if cap(e.d) < n {
		e.d = make([]int32, n)
	}
	e.d = e.d[:n]
	for i := range e.d {
		e.d[i] = -1
	}
	e.queue, e.head = e.queue[:0], 0
	if di := g.NodeIndex(dst); di >= 0 {
		e.d[di] = 0
		e.queue = append(e.queue, di)
	}
	return e
}

// expand resumes the search until slot stop is labelled (stop < 0: until
// the field is complete). Whole nodes are expanded in FIFO order, so when
// a slot is labelled j every node at distance <= j-1 already is: labels
// below the stop node's are final, and a Route walk from it sees exactly
// the candidate sets a complete field would give.
//
//mixnet:noalloc
func (e *distEntry) expand(g *Graph, stop int32) {
	d, q, h := e.d, e.queue, e.head
	for h < len(q) && (stop < 0 || d[stop] < 0) {
		ni := q[h]
		h++
		// Walk incoming links: we want distance *towards* dst.
		for _, lid := range g.in[ni] {
			l := &g.Links[g.LinkIndex(lid)]
			if !l.Up {
				continue
			}
			if fi := g.NodeIndex(l.From); d[fi] == -1 {
				d[fi] = d[ni] + 1
				if len(q) == cap(q) && 2*h >= len(q) {
					// Reuse the expanded half instead of growing: the
					// buffer stays as wide as the frontier, not the graph.
					q, h = q[:copy(q, q[h:])], 0
				}
				q = append(q, fi)
			}
		}
	}
	e.queue, e.head = q, h
}

// reach labels n's slot if the field can, and reports whether it is
// labelled. A stale field is never resumed: it answers only for the slots
// it already labelled.
//
//mixnet:noalloc
func (e *distEntry) reach(g *Graph, n NodeID) bool {
	i := g.NodeIndex(n)
	if i < 0 || int(i) >= len(e.d) {
		return false
	}
	if e.d[i] < 0 && e.growth == g.Growth() {
		e.expand(g, i)
	}
	return e.d[i] >= 0
}

// DistanceField returns every materialized node's hop distance to dst over
// up links (-1 = unreachable), indexed by node storage slot (== NodeID on
// eager graphs; use Graph.NodeIndex on folded ones). The field is cached
// per destination and completed on demand, and is restarted when the
// folded graph has grown, so it always covers every materialized node.
// Treat it as read-only, and use it only until the next graph mutation: a
// mutation invalidates the field and its buffer is recycled for another
// destination's. It exposes the ECMP structure Route samples from, so
// callers (e.g. the analytic netsim backend) can enumerate a hop's
// equal-cost candidates instead of committing to one sampled path.
func (r *BFSRouter) DistanceField(dst NodeID) []int32 {
	r.sync()
	e, ok := r.dist[dst]
	if !ok || e.growth != r.G.Growth() {
		e = r.computeDist(dst)
	}
	e.expand(r.G, -1)
	return e.d
}

// hash64 mixes inputs with a splitmix64-style finaliser.
//
//mixnet:noalloc
func hash64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Route implements Router. The returned Route may be shared with the
// router's cache and with other callers routing the same (src, dst): under
// the same flowKey, or under any key when the route has no ECMP choice.
// Treat it as read-only.
func (r *BFSRouter) Route(src, dst NodeID, flowKey uint64) (Route, error) {
	if src == dst {
		return nil, nil
	}
	r.sync()
	key := routeKey{src, dst, flowKey}
	if rt, ok := r.routes[key]; ok {
		return rt, nil
	}
	if rt, ok := r.single[nodePair{src, dst}]; ok {
		return rt, nil
	}
	if rt, ok := r.replayIntraServer(src, dst, flowKey); ok {
		r.routes[key] = rt
		return rt, nil
	}
	g := r.G
	e, ok := r.dist[dst]
	if !ok {
		e = r.computeDist(dst)
	}
	if !e.reach(g, src) {
		// Either unreachable or the field predates src's materialization.
		if e.growth == g.Growth() {
			return nil, ErrNoRoute
		}
		e = r.computeDist(dst)
		if !e.reach(g, src) {
			return nil, ErrNoRoute
		}
	}
	// From here every node on a shortest src->dst path is labelled in e:
	// such nodes are closer to dst than src, and lie in src's pod, dst's
	// pod/server, or the eagerly built core plane, all materialized no
	// later than src and dst themselves.
	d := e.d
	ci := g.NodeIndex(src)
	route := make(Route, 0, d[ci])
	cur := src
	hop := 0
	choice := false
	for cur != dst {
		want := d[ci] - 1
		// Gather candidate links that strictly approach dst.
		cands := r.cands[:0]
		for _, lid := range g.out[ci] {
			l := &g.Links[g.LinkIndex(lid)]
			if !l.Up {
				continue
			}
			ti := g.NodeIndex(l.To)
			if int(ti) < len(d) && d[ti] == want {
				cands = append(cands, lid)
			}
		}
		r.cands = cands[:0]
		if len(cands) == 0 {
			return nil, ErrNoRoute
		}
		var pick LinkID
		if len(cands) == 1 {
			pick = cands[0]
		} else {
			choice = true
			h := hash64(flowKey ^ hash64(uint64(cur)<<16^uint64(hop)))
			pick = cands[h%uint64(len(cands))]
		}
		route = append(route, pick)
		cur = g.Link(pick).To
		ci = g.NodeIndex(cur)
		hop++
		if hop > len(g.Nodes) {
			return nil, errors.New("topo: routing loop")
		}
	}
	// A walk over a stale field may miss candidates a restarted field
	// would see, so only a current field's single path is key-free.
	if choice || e.growth != g.Growth() {
		r.routes[key] = route
	} else {
		r.single[nodePair{src, dst}] = route
	}
	return route, nil
}

// replayIntraServer answers routes between two nodes of the same server by
// translating the representative server's route by a link-ID offset.
// Internal server paths are nearly always structurally unique (every NIC
// hangs off one hub, every GPU off the one NVSwitch). The exception is two
// NICs sharing a hub and a ToR, which have two equal-cost paths: the replay
// takes the representative's hash pick, which can differ from walking the
// server itself, and falls back to a direct computation when that pick
// leaves the block via the ToR. Eager and folded builds replay alike.
// Disabled for servers whose links were mutated (failures, circuits) and
// when no block layout is recorded.
func (r *BFSRouter) replayIntraServer(src, dst NodeID, flowKey uint64) (Route, bool) {
	g := r.G
	bn := g.blockNodes
	if bn == 0 || g.blockRep < 0 {
		return nil, false
	}
	limit := NodeID(bn * g.blockCount)
	if src >= limit || dst >= limit {
		return nil, false
	}
	s := int32(src) / bn
	if int32(dst)/bn != s {
		return nil, false
	}
	rep := g.blockRep
	if s == rep || g.srvDirty(s) || g.srvDirty(rep) {
		return nil, false
	}
	if g.NodeIndex(src) < 0 || g.NodeIndex(dst) < 0 {
		return nil, false // unmaterialized endpoints: no links to translate to
	}
	off := NodeID((rep - s) * bn)
	canon, err := r.Route(src+off, dst+off, flowKey)
	if err != nil {
		return nil, false
	}
	bl := g.blockLinks
	lo, hi := LinkID(rep*bl), LinkID((rep+1)*bl)
	out := make(Route, len(canon))
	delta := LinkID((s - rep) * bl)
	for i, lid := range canon {
		if lid < lo || lid >= hi {
			// The canonical route left the server block (a NIC pair
			// hashed onto its ToR); fall back to a direct computation.
			return nil, false
		}
		out[i] = lid + delta
	}
	return out, true
}

// PathLatency sums propagation latency along a route.
//
//mixnet:noalloc
func PathLatency(g *Graph, rt Route) float64 {
	var s float64
	for _, id := range rt {
		s += g.Link(id).Latency
	}
	return s
}

// PathMinBandwidth returns the bottleneck capacity along a route
// (+Inf semantics: returns 0 for an empty route).
//
//mixnet:noalloc
func PathMinBandwidth(g *Graph, rt Route) float64 {
	if len(rt) == 0 {
		return 0
	}
	m := g.Link(rt[0]).Bps
	for _, id := range rt[1:] {
		if b := g.Link(id).Bps; b < m {
			m = b
		}
	}
	return m
}

// FlowKey builds a stable ECMP key from a (src, dst, salt) triple.
//
//mixnet:noalloc
func FlowKey(src, dst NodeID, salt uint64) uint64 {
	return hash64(uint64(src)<<32 | uint64(uint32(dst))&0xffffffff ^ bits.RotateLeft64(salt, 17))
}
