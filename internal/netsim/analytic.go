package netsim

import (
	"fmt"
	"math"

	"mixnet/internal/topo"
)

// Analytic is the alpha-beta/bottleneck-counting backend: no event loop and
// no max-min fixed-point iteration. A phase's completion time is the larger
// of two classical lower bounds:
//
//   - the bandwidth bound: for every link, the total bytes crossing it
//     divided by its capacity (the busiest link paces the phase);
//   - the serialization bound: for every flow, start offset plus payload
//     over its path's bottleneck capacity plus propagation delay (the
//     alpha-beta term for the longest individual transfer).
//
// It is exact for a single saturated bottleneck and a slight underestimate
// when max-min sharing leaves capacity stranded, which the cross-validation
// suite bounds. One pass over the flows against a dense epoch-stamped link
// arena makes it allocation-free in steady state and fast enough for
// 32k-GPU-scale sweeps.
//
// With ECMP spreading enabled (NewAnalyticECMP / the "analytic-ecmp"
// registry name), the bandwidth bound stops charging a flow's full bytes to
// each link of its single sampled path: the bytes route fractionally over
// the flow's shortest-path DAG, splitting evenly across each node's
// equal-cost next hops (the choices per-hop ECMP hashing samples from).
// That models even fractional load balancing, pricing the fabric's spread
// capacity free of hash-collision artifacts. It is an estimate, not a
// strict bound relative to one concrete hash outcome: even splitting can
// place fractions on a link the sampled routing happened to avoid, so on
// asymmetric flow sets the spread term may exceed the sampled term for
// individual links (the symmetric-fabric orderings ecmp <= analytic <=
// fluid are pinned empirically by the cross-validation tests). The
// per-flow serialization bound still uses the sampled path's bottleneck,
// so uncongested transfers keep their exact alpha-beta term.
type Analytic struct {
	ecmp    bool
	router  *topo.BFSRouter // distance fields for ECMP candidate sets
	epoch   uint32
	stamp   []uint32  // indexed by link storage slot (topo.Graph.LinkIndex)
	load    []float64 // bytes routed over the link this phase, by slot
	touched []int32   // storage slots charged this phase (not link IDs)

	// per-flow fractional-routing scratch (ECMP spreading): the byte
	// fraction reaching each node of the shortest-path DAG, epoch-stamped so
	// consecutive flows reuse the arena without clearing it. pend buffers a
	// flow's link charges until the DAG walk succeeds, so a degenerate DAG
	// can fall back to sampled charging without leaving partial loads.
	fracEpoch uint32
	fracStamp []uint32
	frac      []float64
	level     [2][]topo.NodeID
	pend      []pendCharge
}

// pendCharge is one buffered fractional link charge (by storage slot).
type pendCharge struct {
	li    int32
	bytes float64
}

// NewAnalytic returns a reusable analytic backend charging sampled paths.
func NewAnalytic() *Analytic { return &Analytic{} }

// NewAnalyticECMP returns a reusable analytic backend that spreads each
// flow's bytes across its per-hop equal-cost paths.
func NewAnalyticECMP() *Analytic { return &Analytic{ecmp: true} }

// Name implements Backend.
func (a *Analytic) Name() string {
	if a.ecmp {
		return "analytic-ecmp"
	}
	return "analytic"
}

// reset starts a new arena epoch sized for nLinks links, allocating only
// when the graph outgrew the arena.
//
//mixnet:noalloc
func (a *Analytic) reset(nLinks int) {
	if len(a.stamp) < nLinks {
		a.stamp = make([]uint32, nLinks)
		a.load = make([]float64, nLinks)
	}
	a.epoch++
	if a.epoch == 0 { // wrapped: stamps from the previous cycle are stale
		clear(a.stamp)
		a.epoch = 1
	}
	a.touched = a.touched[:0]
}

// add charges bytes to a link storage slot in the current arena epoch.
//
//mixnet:noalloc
func (a *Analytic) add(li int32, bytes float64) {
	if a.stamp[li] != a.epoch {
		a.stamp[li] = a.epoch
		a.load[li] = 0
		a.touched = append(a.touched, li)
	}
	a.load[li] += bytes
}

// chargeSampled charges a flow's full bytes to every link of its sampled
// path — the pre-ECMP behaviour, and the fallback when the sampled path is
// not a shortest path (circuit detours, post-failure reroutes): the ECMP
// hash had no equal-cost choice there.
//
//mixnet:noalloc
func (a *Analytic) chargeSampled(g *topo.Graph, f *Flow) {
	for _, lid := range f.Path {
		a.add(g.LinkIndex(lid), f.Bytes)
	}
}

// chargeECMP spreads a flow's bytes fractionally over its whole
// shortest-path DAG: starting from the source with fraction 1, each node
// splits its incoming fraction evenly across its equal-cost next hops
// (exactly the choices per-hop ECMP hashing samples from), charging each
// link its share of the bytes. Splits propagate level by level — distance
// to the destination decreases by one per hop — so a fan-out at one hop
// correctly dilutes the load on every downstream link, which per-hop-local
// spreading would miss.
//
// The DAG is derived from the graph's adjacency at simulation time. Under
// deferred communication plans that can postdate the circuits a step's
// routes were compiled against: a path through a since-detached circuit is
// no longer shortest (its links left the adjacency) and falls back to
// sampled charging, and the spread may include circuits installed later in
// the iteration. Frontier execution and the step-by-step test reference
// defer identically, so they agree byte for byte; only the estimate's
// reference topology on reconfigurable fabrics is the end-of-iteration one
// (~1% iteration time at quick Mixtral scale vs the historical inline
// simulation — consistent with this backend being an even-spreading
// estimate, not a bound against one concrete circuit schedule).
func (a *Analytic) chargeECMP(g *topo.Graph, f *Flow) {
	if a.router == nil || a.router.G != g {
		a.router = topo.NewBFSRouter(g)
	}
	dst := g.Link(f.Path[len(f.Path)-1]).To
	src := g.Link(f.Path[0]).From
	// DistanceField is indexed by node storage slot and always covers every
	// materialized node (it recomputes when a folded graph grows).
	d := a.router.DistanceField(dst)
	if int(d[g.NodeIndex(src)]) != len(f.Path) {
		a.chargeSampled(g, f) // sampled path is not shortest: no ECMP choice
		return
	}
	if len(a.fracStamp) < len(g.Nodes) {
		a.fracStamp = make([]uint32, len(g.Nodes))
		a.frac = make([]float64, len(g.Nodes))
	}
	a.fracEpoch++
	if a.fracEpoch == 0 {
		clear(a.fracStamp)
		a.fracEpoch = 1
	}
	epoch := a.fracEpoch
	reach := func(n topo.NodeID) *float64 {
		ni := g.NodeIndex(n)
		if a.fracStamp[ni] != epoch {
			a.fracStamp[ni] = epoch
			a.frac[ni] = 0
		}
		return &a.frac[ni]
	}
	cur := a.level[0][:0]
	next := a.level[1][:0]
	pend := a.pend[:0]
	*reach(src) = 1
	cur = append(cur, src)
	for dist := d[g.NodeIndex(src)]; dist > 0 && len(cur) > 0; dist-- {
		next = next[:0]
		for _, n := range cur {
			share := *reach(n)
			if share == 0 {
				continue
			}
			ncand := 0
			for _, cand := range g.Out(n) {
				cl := g.Link(cand)
				if cl.Up && cl.Bps > 0 && d[g.NodeIndex(cl.To)] == dist-1 {
					ncand++
				}
			}
			if ncand == 0 {
				// Degenerate DAG (e.g. a zero-capacity candidate was the only
				// way down): drop the buffered fractional charges and fall
				// back to the sampled path for the whole flow.
				a.level[0], a.level[1], a.pend = cur[:0], next[:0], pend[:0]
				a.chargeSampled(g, f)
				return
			}
			part := share / float64(ncand)
			for _, cand := range g.Out(n) {
				cli := g.LinkIndex(cand)
				cl := &g.Links[cli]
				if cl.Up && cl.Bps > 0 && d[g.NodeIndex(cl.To)] == dist-1 {
					pend = append(pend, pendCharge{cli, part * f.Bytes})
					to := reach(cl.To)
					if *to == 0 {
						next = append(next, cl.To)
					}
					*to += part
				}
			}
			*reach(n) = 0 // consumed; guards against revisits within a level
		}
		cur, next = next, cur
	}
	for _, pc := range pend {
		a.add(pc.li, pc.bytes)
	}
	a.level[0], a.level[1], a.pend = cur[:0], next[:0], pend[:0]
}

// Makespan implements Backend.
func (a *Analytic) Makespan(g *topo.Graph, phases Phases) (float64, error) {
	var total float64
	for _, fs := range phases {
		if len(fs) == 0 {
			continue
		}
		a.reset(len(g.Links))
		var phase float64
		for _, f := range fs {
			if f.Bytes < 0 {
				return 0, fmt.Errorf("netsim: flow %d negative bytes", f.ID)
			}
			// bottleneck starts at +Inf as the "no links yet" sentinel, so a
			// genuine (erroneous) zero-capacity link can't be confused with
			// an empty path: zero capacity is rejected like a down link
			// instead of silently yielding +Inf/NaN makespans.
			bottleneck, latency := math.Inf(1), 0.0
			for _, lid := range f.Path {
				li := g.LinkIndex(lid)
				l := &g.Links[li]
				if !l.Up {
					return 0, fmt.Errorf("netsim: flow %d uses down link %d", f.ID, lid)
				}
				if l.Bps <= 0 {
					return 0, fmt.Errorf("netsim: flow %d uses zero-capacity link %d", f.ID, lid)
				}
				cap := l.Bps / 8
				if cap < bottleneck {
					bottleneck = cap
				}
				latency += l.Latency
				if !a.ecmp {
					a.add(li, f.Bytes)
				}
			}
			if a.ecmp && len(f.Path) > 0 {
				a.chargeECMP(g, f)
			}
			// Serialization bound for this flow (empty path: Bytes/Inf = 0).
			t := f.Start + latency + f.Bytes/bottleneck
			f.Finish = t
			if t > phase {
				phase = t
			}
		}
		// Bandwidth bound over every touched link (slots index storage
		// directly).
		for _, li := range a.touched {
			if t := a.load[li] / (g.Links[li].Bps / 8); t > phase {
				phase = t
			}
		}
		total += phase
	}
	return total, nil
}
