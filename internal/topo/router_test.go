package topo

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// refRouter is the reference BFSRouter's resumable distance fields are
// checked against: a complete breadth-first search per destination,
// computed from scratch against the graph as it is now, and the same
// per-hop ECMP walk. It keeps a field only while neither the graph's epoch
// nor its growth moves.
type refRouter struct {
	g             *Graph
	epoch, growth uint64
	dist          map[NodeID][]int32
}

// field returns dst's complete distance field, indexed by storage slot.
func (r *refRouter) field(dst NodeID) []int32 {
	g := r.g
	if r.dist == nil || r.epoch != g.Epoch() || r.growth != g.Growth() {
		r.dist = map[NodeID][]int32{}
		r.epoch, r.growth = g.Epoch(), g.Growth()
	}
	if d, ok := r.dist[dst]; ok {
		return d
	}
	d := make([]int32, len(g.Nodes))
	for i := range d {
		d[i] = -1
	}
	if di := g.NodeIndex(dst); di >= 0 {
		d[di] = 0
		for q := []NodeID{dst}; len(q) > 0; q = q[1:] {
			n := q[0]
			for _, lid := range g.In(n) {
				l := g.Link(lid)
				if fi := g.NodeIndex(l.From); l.Up && d[fi] == -1 {
					d[fi] = d[g.NodeIndex(n)] + 1
					q = append(q, l.From)
				}
			}
		}
	}
	r.dist[dst] = d
	return d
}

// Route mirrors BFSRouter's contract, intra-server replay included: a
// route inside a server whose links still mirror the representative's is
// the representative's route shifted by the block offset, unless that
// route leaves the block. The shift is not always what walking the server
// itself would give: two NICs sharing a hub and a ToR have two equal-cost
// paths, and the hash picks by node ID.
func (r *refRouter) Route(src, dst NodeID, flowKey uint64) (Route, error) {
	if src == dst {
		return nil, nil
	}
	g := r.g
	bn, rep := NodeID(g.blockNodes), g.blockRep
	if bn > 0 && rep >= 0 && src < bn*NodeID(g.blockCount) && dst < bn*NodeID(g.blockCount) && src/bn == dst/bn {
		s := int32(src / bn)
		if s != rep && !g.srvDirty(s) && !g.srvDirty(rep) {
			bl := LinkID(g.blockLinks)
			canon, err := r.walk(src+NodeID(rep-s)*bn, dst+NodeID(rep-s)*bn, flowKey)
			inBlock := err == nil
			for _, lid := range canon {
				inBlock = inBlock && lid/bl == LinkID(rep)
			}
			if inBlock {
				out := make(Route, len(canon))
				for i, lid := range canon {
					out[i] = lid + LinkID(s-rep)*bl
				}
				return out, nil
			}
		}
	}
	return r.walk(src, dst, flowKey)
}

// walk follows the complete field from src, hashing among equal-cost next
// hops.
func (r *refRouter) walk(src, dst NodeID, flowKey uint64) (Route, error) {
	g := r.g
	d := r.field(dst)
	if si := g.NodeIndex(src); si < 0 || d[si] < 0 {
		return nil, ErrNoRoute
	}
	var route Route
	for cur, hop := src, 0; cur != dst; hop++ {
		want := d[g.NodeIndex(cur)] - 1
		var cands []LinkID
		for _, lid := range g.Out(cur) {
			if l := g.Link(lid); l.Up && d[g.NodeIndex(l.To)] == want {
				cands = append(cands, lid)
			}
		}
		if len(cands) == 0 {
			return nil, ErrNoRoute
		}
		pick := cands[0]
		if len(cands) > 1 {
			pick = cands[hash64(flowKey^hash64(uint64(cur)<<16^uint64(hop)))%uint64(len(cands))]
		}
		route = append(route, pick)
		cur = g.Link(pick).To
	}
	return route, nil
}

// materialized lists every node ID with backing storage, or with
// serverOnly only those inside a server.
func materialized(g *Graph, serverOnly bool) []NodeID {
	var ids []NodeID
	for id := NodeID(0); int(id) < g.NumNodes(); id++ {
		if g.NodeIndex(id) >= 0 && (!serverOnly || g.Node(id).Server >= 0) {
			ids = append(ids, id)
		}
	}
	return ids
}

// routeOracle drives one BFSRouter and its reference through a sequence
// of graph states on the same graph.
type routeOracle struct {
	t   *testing.T
	rng *rand.Rand
	r   *BFSRouter
	ref *refRouter

	// partial counts DistanceField calls made on a field that Route had
	// expanded only partly: the mix the analytic-ecmp backend produces.
	partial int
}

func newRouteOracle(t *testing.T, g *Graph, seed uint64) *routeOracle {
	return &routeOracle{t: t, rng: rand.New(rand.NewPCG(seed, 1)), r: NewBFSRouter(g), ref: &refRouter{g: g}}
}

// check routes every ordered pair of nodes (or, with limit > 0, that many
// random pairs) under several salts, in a random order, on both routers and
// requires identical routes and errors. Now and then it also requires
// DistanceField of the pair's destination to equal the complete reference
// field.
func (o *routeOracle) check(state string, nodes []NodeID, limit int) {
	t := o.t
	t.Helper()
	type pair struct{ src, dst NodeID }
	pairs := make([]pair, 0, len(nodes)*len(nodes))
	for _, s := range nodes {
		for _, d := range nodes {
			pairs = append(pairs, pair{s, d})
		}
	}
	o.rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	if limit > 0 && limit < len(pairs) {
		pairs = pairs[:limit]
	}
	for _, p := range pairs {
		for salt := uint64(0); salt < 3; salt++ {
			key := FlowKey(p.src, p.dst, salt)
			got, errGot := o.r.Route(p.src, p.dst, key)
			want, errWant := o.ref.Route(p.src, p.dst, key)
			if !errors.Is(errGot, errWant) || !slices.Equal(got, want) {
				t.Fatalf("%s: route %d->%d salt %d = %v, %v; reference %v, %v",
					state, p.src, p.dst, salt, got, errGot, want, errWant)
			}
		}
		if o.rng.IntN(64) != 0 {
			continue
		}
		if e := o.r.dist[p.dst]; e != nil && e.head < len(e.queue) {
			o.partial++
		}
		if got, want := o.r.DistanceField(p.dst), o.ref.field(p.dst); !slices.Equal(got, want) {
			t.Fatalf("%s: DistanceField(%d) = %v, complete field %v", state, p.dst, got, want)
		}
	}
}

// done requires that at least one DistanceField call completed a field
// Route had left partial, so the oracle exercised the mixed use.
func (o *routeOracle) done() {
	if o.partial == 0 {
		o.t.Error("no DistanceField call met a partially expanded field")
	}
}

// failLinks downs n random up links and returns them.
func (o *routeOracle) failLinks(n int) []LinkID {
	g := o.r.G
	var down []LinkID
	for len(down) < n {
		l := &g.Links[o.rng.IntN(len(g.Links))]
		if l.Up && !l.Detached {
			g.SetLinkUp(l.ID, false)
			down = append(down, l.ID)
		}
	}
	return down
}

// randomCircuits pairs a random subset of region's OCS NICs across
// distinct servers.
func randomCircuits(c *Cluster, rng *rand.Rand, region int) []CircuitPair {
	var nics []NodeID
	for _, s := range c.Regions[region] {
		for _, nic := range c.Servers[s].OCSNICs() {
			nics = append(nics, nic.Node)
		}
	}
	rng.Shuffle(len(nics), func(i, j int) { nics[i], nics[j] = nics[j], nics[i] })
	var pairs []CircuitPair
	for i := 0; i+1 < len(nics); i += 2 {
		a, b := nics[i], nics[i+1]
		if c.G.Node(a).Server != c.G.Node(b).Server && rng.IntN(4) != 0 {
			pairs = append(pairs, CircuitPair{A: a, B: b})
		}
	}
	return pairs
}

// TestRouterMatchesReference: resumable distance fields must route every
// pair exactly as complete BFS fields do — across OCS retargets, link
// failures, a static optical fabric and folded-graph growth — and
// DistanceField must return the complete field even after Route expanded
// it only partly.
func TestRouterMatchesReference(t *testing.T) {
	t.Parallel()
	t.Run("mixnet-retarget", func(t *testing.T) {
		t.Parallel()
		spec := DefaultSpec(8, 100*Gbps)
		spec.RegionServers = 4
		c := BuildMixNet(spec)
		o := newRouteOracle(t, c.G, 1)
		o.check("uniform circuits", materialized(c.G, false), 0)
		for round := 0; round < 4; round++ {
			for region := range c.Regions {
				if err := c.SetRegionCircuits(region, randomCircuits(c, o.rng, region)); err != nil {
					t.Fatal(err)
				}
			}
			o.check(fmt.Sprintf("random circuits, round %d", round), materialized(c.G, false), 0)
		}
		o.done()
	})
	t.Run("mixnet-failures", func(t *testing.T) {
		t.Parallel()
		spec := DefaultSpec(8, 100*Gbps)
		spec.RegionServers = 4
		c := BuildMixNet(spec)
		o := newRouteOracle(t, c.G, 2)
		for round := 0; round < 3; round++ {
			down := o.failLinks(6)
			o.check("links down", materialized(c.G, false), 0)
			if err := c.SetRegionCircuits(round%len(c.Regions), randomCircuits(c, o.rng, round%len(c.Regions))); err != nil {
				t.Fatal(err)
			}
			o.check("links down, retargeted", materialized(c.G, false), 0)
			for _, id := range down[:3] {
				c.G.SetLinkUp(id, true)
			}
			o.check("links partly restored", materialized(c.G, false), 0)
		}
		o.done()
	})
	t.Run("topoopt", func(t *testing.T) {
		t.Parallel()
		c := BuildTopoOpt(DefaultSpec(8, 100*Gbps))
		o := newRouteOracle(t, c.G, 3)
		o.check("static circuits", materialized(c.G, false), 0)
		o.failLinks(8)
		o.check("links down", materialized(c.G, false), 0)
		o.done()
	})
	// Growth keeps routes between server nodes, the router's endpoints on
	// folded graphs, unchanged; a route between two switches (say two
	// cores) does gain equal-cost detours through every new pod.
	t.Run("folded-growth", func(t *testing.T) {
		t.Parallel()
		s := foldSpec(12)
		s.Fold = true
		c := BuildFatTree(s)
		if !c.Folded() {
			t.Fatal("test setup: fat-tree did not fold")
		}
		o := newRouteOracle(t, c.G, 4)
		// Sampling a few pairs per step leaves fields partly expanded when
		// the graph grows under them.
		for _, srv := range []int{0, 5, 1, 11, 6} {
			c.EnsureServer(srv)
			o.check(fmt.Sprintf("grown to server %d", srv), materialized(c.G, true), 300)
		}
		o.check("grown", materialized(c.G, true), 0)
		nic := c.Server(5).NICs[0].Node
		c.G.SetLinkUp(c.G.Out(nic)[0], false)
		o.check("grown, link down", materialized(c.G, true), 300)
		c.EnsureServer(8)
		o.check("grown after failure", materialized(c.G, true), 0)
		o.done()
	})
}
