// Package collective compiles collective-communication operations into
// concurrent flow sets over a cluster topology: ring and hierarchical
// all-reduce (DP), direct all-to-all (the EPS baseline) and MixNet's
// five-step topology-aware all-to-all with delegation over regional optical
// circuits (§5.3, Figure 8).
//
// A collective is returned as Phases: an ordered list of flow sets. Flows
// within a phase run concurrently; a phase starts when the previous one
// completes. The training simulator sums phase makespans.
package collective

import (
	"fmt"

	"mixnet/internal/metrics"
	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// Phases is a sequence of concurrent flow sets in the backend-neutral
// netsim representation, so a compiled collective can be simulated at any
// fidelity (fluid, packet, analytic) without recompilation.
type Phases = netsim.Phases

// Ctx carries the routing state shared by collective compilations. The
// router's route cache persists across compilations, so steady-state
// recompilation of the same collectives reuses routes instead of
// re-deriving them per phase.
//
// Flows, the paths of delegated flows and the all-to-alls' flow lists are
// carved from chunked slabs the Ctx owns. A chunk is never handed out
// twice: the compiled phases keep their flows alive, and the garbage
// collector frees a chunk once no plan holds any of its flows.
type Ctx struct {
	Cluster *topo.Cluster
	Router  *topo.BFSRouter
	nextID  int
	saltOf  map[pairKey]int32 // endpoint pair -> its salt in salts
	salts   []uint8           // per-(src,dst) rotating ECMP salt
	flows   []netsim.Flow     // unused rest of the current flow chunk
	links   []topo.LinkID     // unused rest of the current path chunk
	lists   []*netsim.Flow    // unused rest of the current flow-list chunk
	build   [4][]*netsim.Flow // an all-to-all's flow lists while it compiles
	a2a     a2aScratch
}

// pairKey identifies an ordered endpoint pair for ECMP salt rotation.
type pairKey struct{ src, dst topo.NodeID }

// ecmpSpread bounds the distinct ECMP salts used per endpoint pair.
// Concurrent flows between the same endpoints still fan out over up to
// ecmpSpread equal-cost paths, but salts repeat across compilations so the
// router's route cache hits instead of re-deriving paths every phase.
const ecmpSpread = 16

// Slab chunk sizes: flows per flow chunk, link IDs per path chunk, flow
// pointers per flow-list chunk.
const (
	flowChunk = 256
	linkChunk = 2048
	listChunk = 1024
)

// NewCtx creates a compilation context for a cluster.
func NewCtx(c *topo.Cluster) *Ctx {
	return &Ctx{Cluster: c, Router: topo.NewBFSRouter(c.G), saltOf: make(map[pairKey]int32)}
}

// ResetRunState rewinds the context's per-run compilation state — flow ID
// counter and per-pair ECMP salt rotation — to the freshly built position,
// so a reused engine replays a run byte-identically to a fresh one. Cached
// routes survive: they are exactly the cross-run reuse a warm engine exists
// for.
func (ctx *Ctx) ResetRunState() {
	ctx.nextID = 0
	clear(ctx.saltOf)
	ctx.salts = ctx.salts[:0]
}

// nextSalt returns the rotating ECMP salt for a pair and advances it.
func (ctx *Ctx) nextSalt(src, dst topo.NodeID) uint64 {
	k := pairKey{src, dst}
	i, ok := ctx.saltOf[k]
	if !ok {
		if ctx.saltOf == nil {
			ctx.saltOf = make(map[pairKey]int32)
		}
		i = int32(len(ctx.salts))
		ctx.saltOf[k] = i
		ctx.salts = append(ctx.salts, 0)
	}
	s := ctx.salts[i]
	ctx.salts[i] = (s + 1) % ecmpSpread
	return uint64(s)
}

// newFlow carves the next flow, with the next flow ID, from the flow slab.
//
//mixnet:noalloc
func (ctx *Ctx) newFlow(path topo.Route, bytes float64) *netsim.Flow {
	if len(ctx.flows) == 0 {
		ctx.flows = make([]netsim.Flow, flowChunk)
	}
	f := &ctx.flows[0]
	ctx.flows = ctx.flows[1:]
	ctx.nextID++
	*f = netsim.Flow{ID: ctx.nextID, Path: path, Bytes: bytes}
	return f
}

// newPath carves an empty route with capacity n from the path slab; its
// capacity ends where the next carve starts.
//
//mixnet:noalloc
func (ctx *Ctx) newPath(n int) topo.Route {
	if len(ctx.links) < n {
		ctx.links = make([]topo.LinkID, max(linkChunk, n))
	}
	p := ctx.links[:0:n]
	ctx.links = ctx.links[n:]
	return p
}

// phase carves a flow list holding a's flows, then b's, from the flow-list
// slab; it returns nil when both are empty.
//
//mixnet:noalloc
func (ctx *Ctx) phase(a, b []*netsim.Flow) []*netsim.Flow {
	n := len(a) + len(b)
	if n == 0 {
		return nil
	}
	if len(ctx.lists) < n {
		ctx.lists = make([]*netsim.Flow, max(listChunk, n))
	}
	fs := ctx.lists[:n:n]
	ctx.lists = ctx.lists[n:]
	copy(fs[copy(fs, a):], b)
	return fs
}

// phases assembles the non-empty flow lists into Phases, in order.
func phases(lists ...[]*netsim.Flow) Phases {
	n := 0
	for _, fs := range lists {
		if len(fs) > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make(Phases, 0, n)
	for _, fs := range lists {
		if len(fs) > 0 {
			out = append(out, fs)
		}
	}
	return out
}

// flow routes one transfer and allocates a flow ID. Zero-byte transfers are
// skipped (returns nil, nil).
func (ctx *Ctx) flow(src, dst topo.NodeID, bytes float64) (*netsim.Flow, error) {
	if bytes <= 0 || src == dst {
		return nil, nil
	}
	rt, err := ctx.Router.Route(src, dst, topo.FlowKey(src, dst, ctx.nextSalt(src, dst)))
	if err != nil {
		return nil, fmt.Errorf("collective: route %d->%d: %w", src, dst, err)
	}
	return ctx.newFlow(rt, bytes), nil
}

// flowVia routes a transfer through an explicit circuit link: the path is
// src -> circuit.A's NIC, the circuit itself, then circuit.B's NIC -> dst.
func (ctx *Ctx) flowVia(src, dst topo.NodeID, viaA, viaB topo.NodeID, bytes float64) (*netsim.Flow, error) {
	if bytes <= 0 {
		return nil, nil
	}
	key := topo.FlowKey(src, dst, ctx.nextSalt(src, dst))
	head, err := ctx.Router.Route(src, viaA, key)
	if err != nil {
		return nil, fmt.Errorf("collective: route to delegate NIC: %w", err)
	}
	mid, err := ctx.Router.Route(viaA, viaB, key)
	if err != nil {
		return nil, fmt.Errorf("collective: circuit hop: %w", err)
	}
	tail, err := ctx.Router.Route(viaB, dst, key)
	if err != nil {
		return nil, fmt.Errorf("collective: route from delegate NIC: %w", err)
	}
	path := ctx.newPath(len(head) + len(mid) + len(tail))
	path = append(append(append(path, head...), mid...), tail...)
	return ctx.newFlow(path, bytes), nil
}

// RingAllReduce compiles a ring all-reduce over the given GPU nodes: every
// participant concurrently streams 2*S*(n-1)/n bytes to its ring successor
// (reduce-scatter + all-gather volume).
func RingAllReduce(ctx *Ctx, gpus []topo.NodeID, bytes float64) (Phases, error) {
	n := len(gpus)
	if n < 2 || bytes <= 0 {
		return nil, nil
	}
	per := 2 * bytes * float64(n-1) / float64(n)
	var fs []*netsim.Flow
	for i := 0; i < n; i++ {
		f, err := ctx.flow(gpus[i], gpus[(i+1)%n], per)
		if err != nil {
			return nil, err
		}
		if f != nil {
			fs = append(fs, f)
		}
	}
	return Phases{fs}, nil
}

// HierarchicalAllReduce compiles the three-stage DP all-reduce of §5.3:
// intra-host reduction to a gateway GPU, a ring all-reduce among gateways
// over the EPS fabric, then an intra-host broadcast. servers lists the
// participating server indices; gatewayGPU selects which local GPU fronts
// the EPS NIC (usually 0).
func HierarchicalAllReduce(ctx *Ctx, servers []int, gatewayGPU int, bytes float64) (Phases, error) {
	if len(servers) == 0 || bytes <= 0 {
		return nil, nil
	}
	c := ctx.Cluster
	var reduce, bcast []*netsim.Flow
	gateways := make([]topo.NodeID, len(servers))
	for si, s := range servers {
		srv := c.Server(s)
		gw := srv.GPUs[gatewayGPU%len(srv.GPUs)]
		gateways[si] = gw
		for _, g := range srv.GPUs {
			if g == gw {
				continue
			}
			f, err := ctx.flow(g, gw, bytes)
			if err != nil {
				return nil, err
			}
			if f != nil {
				reduce = append(reduce, f)
			}
			b, err := ctx.flow(gw, g, bytes)
			if err != nil {
				return nil, err
			}
			if b != nil {
				bcast = append(bcast, b)
			}
		}
	}
	var phases Phases
	if len(reduce) > 0 {
		phases = append(phases, reduce)
	}
	if len(servers) > 1 {
		ring, err := RingAllReduce(ctx, gateways, bytes)
		if err != nil {
			return nil, err
		}
		phases = append(phases, ring...)
	}
	if len(bcast) > 0 {
		phases = append(phases, bcast)
	}
	return phases, nil
}

// DirectAllToAll compiles the baseline all-to-all: rank i streams
// demand[i][j] straight to rank j's GPU over whatever fabric routing finds.
func DirectAllToAll(ctx *Ctx, gpus []topo.NodeID, demand *metrics.Matrix) (Phases, error) {
	fs := ctx.build[0][:0]
	for i := 0; i < demand.Rows; i++ {
		for j := 0; j < demand.Cols; j++ {
			if i == j {
				continue
			}
			f, err := ctx.flow(gpus[i], gpus[j], demand.At(i, j))
			if err != nil {
				return nil, err
			}
			if f != nil {
				fs = append(fs, f)
			}
		}
	}
	ctx.build[0] = fs
	return phases(ctx.phase(fs, nil)), nil
}

// delegateGPU picks the GPU that fronts a NIC for delegated forwarding:
// with the standard 1:1 GPU:NIC ratio it is the same-index GPU, otherwise
// the NUMA-nearest one. GPU-attached circuit ports (the §8 co-packaged
// optics variant) are their own delegates.
func delegateGPU(c *topo.Cluster, nic topo.NodeID) topo.NodeID {
	node := c.G.Node(nic)
	if node.Kind == topo.KindGPU {
		return nic
	}
	srv := c.Server(node.Server)
	// Find the NIC's index within the server.
	for _, sn := range srv.NICs {
		if sn.Node == nic {
			idx := sn.Index * len(srv.GPUs) / len(srv.NICs)
			return srv.GPUs[idx%len(srv.GPUs)]
		}
	}
	return srv.GPUs[0]
}

// TopologyAwareAllToAll compiles MixNet's five-step EP all-to-all (§5.3)
// for one EP group whose rank leaders are gpus (rank r's traffic enters the
// network at gpus[r]) and whose pairwise demand is the rank matrix:
//
//	(1) delegation lookup on the circuit table,
//	(2) intra-host gather of outbound bytes to delegation GPUs,
//	(3) inter-host transfers over circuits (EPS fallback otherwise),
//	(4) intra-host all-to-all among local experts (overlapped with 3),
//	(5) intra-host scatter of received bytes to destination GPUs.
//
// region selects which regional OCS's circuit table to consult.
func TopologyAwareAllToAll(ctx *Ctx, region int, gpus []topo.NodeID, demand *metrics.Matrix) (Phases, error) {
	c := ctx.Cluster
	n := demand.Rows
	sc := &ctx.a2a
	ns := sc.index(c, gpus[:n])
	local := sc.local
	sc.bucketCircuits(c, c.RegionCircuits(region))

	// Aggregate demand to ordered server pairs, remembering their
	// first-appearance order: flow compilation must be deterministic.
	gather, inter, intra, scatter := ctx.build[0][:0], ctx.build[1][:0], ctx.build[2][:0], ctx.build[3][:0]
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := demand.At(i, j)
			if v <= 0 {
				continue
			}
			si, sj := local[i], local[j]
			if si == sj {
				// Step 4: local expert exchange over NVSwitch.
				f, err := ctx.flow(gpus[i], gpus[j], v)
				if err != nil {
					return nil, err
				}
				if f != nil {
					intra = append(intra, f)
				}
				continue
			}
			k := si*ns + sj
			if !sc.seen[k] {
				sc.seen[k] = true
				sc.order = append(sc.order, int32(k))
			}
			sc.vol[k] += v
		}
	}

	// Steps 1–3, 5 per ordered server pair, visited in first-appearance
	// order, so flow IDs and ECMP salt draws replay identically run to run.
	for _, k := range sc.order {
		vol := sc.vol[k]
		si, sj := int(k)/ns, int(k)%ns
		circuits := sc.circuits(si, sj)
		if len(circuits) > 0 {
			share := vol / float64(len(circuits))
			sc.fillShares(demand, si, sj, share/vol)
			for _, cp := range circuits {
				// Orient the circuit ends: A-side on si.
				a, b := cp.A, cp.B
				if c.G.Node(a).Server != sc.servers[si] {
					a, b = b, a
				}
				dgA := delegateGPU(c, a)
				dgB := delegateGPU(c, b)
				// Step 2: gather from each source rank on si to delegate.
				if err := addSplitFlows(ctx, &gather, gpus, local, si, dgA, false, sc.share); err != nil {
					return nil, err
				}
				// Step 3: the delegated inter-host transfer via the circuit.
				f, err := ctx.flowVia(dgA, dgB, a, b, share)
				if err != nil {
					return nil, err
				}
				if f != nil {
					inter = append(inter, f)
				}
				// Step 5: scatter from delegate to destination ranks on sj.
				if err := addSplitFlows(ctx, &scatter, gpus, local, sj, dgB, true, sc.share); err != nil {
					return nil, err
				}
			}
			continue
		}
		// No circuit: EPS fallback, rank-to-rank via the electrical fabric.
		for i := 0; i < n; i++ {
			if local[i] != si {
				continue
			}
			for j := 0; j < n; j++ {
				if local[j] != sj || i == j {
					continue
				}
				f, err := ctx.flow(gpus[i], gpus[j], demand.At(i, j))
				if err != nil {
					return nil, err
				}
				if f != nil {
					inter = append(inter, f)
				}
			}
		}
	}

	ctx.build = [4][]*netsim.Flow{gather, inter, intra, scatter}
	// Steps 3 and 4 overlap (§5.3): one phase.
	return phases(ctx.phase(gather, nil), ctx.phase(inter, intra), ctx.phase(scatter, nil)), nil
}

// a2aScratch is TopologyAwareAllToAll's dense scratch, reused across
// compiles. Servers are numbered locally, in order of first appearance
// among the ranks, so every table is sized by the ranks' servers only.
type a2aScratch struct {
	servers []int     // local server index -> global server
	local   []int     // rank -> local server index
	vol     []float64 // ns×ns ordered pair volumes
	seen    []bool    // ns×ns: the pair is in order
	order   []int32   // ordered pairs si*ns+sj in first-appearance order
	off     []int32   // ns×ns+1: unordered pair k's circuits are circ[off[k]:off[k+1]]
	bucket  []int32   // per region circuit: its unordered pair lo*ns+hi, or -1
	circ    []topo.CircuitPair
	share   []float64 // per rank: row shares on si, column shares on sj
}

// index numbers the servers of the rank leaders gpus, fills local and
// clears the pair tables. It returns the number of servers.
//
//mixnet:noalloc
func (sc *a2aScratch) index(c *topo.Cluster, gpus []topo.NodeID) int {
	servers, local := sc.servers[:0], sc.local[:0]
	for _, g := range gpus {
		s := c.G.Node(g).Server
		li := indexOf(servers, s)
		if li < 0 {
			li = len(servers)
			servers = append(servers, s)
		}
		local = append(local, li)
	}
	sc.servers, sc.local = servers, local
	ns := len(servers)
	if cap(sc.vol) < ns*ns {
		sc.vol = make([]float64, ns*ns)
		sc.seen = make([]bool, ns*ns)
	}
	sc.vol, sc.seen = sc.vol[:ns*ns], sc.seen[:ns*ns]
	clear(sc.vol)
	clear(sc.seen)
	sc.order = sc.order[:0]
	if cap(sc.share) < len(gpus) {
		sc.share = make([]float64, len(gpus))
	}
	sc.share = sc.share[:len(gpus)]
	return ns
}

// bucketCircuits groups a region's circuits by the unordered local server
// pair they join, keeping their order within a pair. Circuits touching a
// server that holds no rank are never looked up and are left out.
//
//mixnet:noalloc
func (sc *a2aScratch) bucketCircuits(c *topo.Cluster, pairs []topo.CircuitPair) {
	ns := len(sc.servers)
	if cap(sc.off) < ns*ns+1 {
		sc.off = make([]int32, ns*ns+1)
	}
	off := sc.off[:ns*ns+1]
	clear(off)
	bucket := sc.bucket[:0]
	for _, p := range pairs {
		la := indexOf(sc.servers, c.G.Node(p.A).Server)
		lb := indexOf(sc.servers, c.G.Node(p.B).Server)
		k := int32(-1)
		if la >= 0 && lb >= 0 && la != lb {
			k = int32(min(la, lb)*ns + max(la, lb))
			off[k]++
		}
		bucket = append(bucket, k)
	}
	// Prefix sums leave off[k] at the end of pair k's circuits; placing
	// them back to front walks it down to their start.
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	if cap(sc.circ) < int(off[ns*ns]) {
		sc.circ = make([]topo.CircuitPair, off[ns*ns])
	}
	sc.circ = sc.circ[:off[ns*ns]]
	for i := len(bucket) - 1; i >= 0; i-- {
		if k := bucket[i]; k >= 0 {
			off[k]--
			sc.circ[off[k]] = pairs[i]
		}
	}
	sc.off, sc.bucket = off, bucket
}

// indexOf returns the position of s in servers, or -1.
//
//mixnet:noalloc
func indexOf(servers []int, s int) int {
	for i, x := range servers {
		if x == s {
			return i
		}
	}
	return -1
}

// circuits returns the circuits between local servers si and sj, in
// installation order.
func (sc *a2aScratch) circuits(si, sj int) []topo.CircuitPair {
	k := min(si, sj)*len(sc.servers) + max(si, sj)
	return sc.circ[sc.off[k]:sc.off[k+1]]
}

// fillShares writes into share, for every rank on si, its bytes toward sj
// and, for every rank on sj, its bytes from si, each scaled by frac (a
// circuit's fraction of the pair volume). The sums run in the same order
// for every rank and every circuit of the pair.
//
//mixnet:noalloc
func (sc *a2aScratch) fillShares(d *metrics.Matrix, si, sj int, frac float64) {
	local, out := sc.local, sc.share
	for i := 0; i < d.Rows; i++ {
		if local[i] != si {
			continue
		}
		out[i] = 0
		for j := 0; j < d.Cols; j++ {
			if local[j] == sj && i != j {
				out[i] += d.At(i, j) * frac
			}
		}
	}
	for j := 0; j < d.Cols; j++ {
		if local[j] != sj {
			continue
		}
		out[j] = 0
		for i := 0; i < d.Rows; i++ {
			if local[i] == si && i != j {
				out[j] += d.At(i, j) * frac
			}
		}
	}
}

// addSplitFlows emits gather or scatter flows between rank GPUs and a
// delegate GPU on one local server: rank->delegate when fromDelegate is
// false (step 2), delegate->rank when true (step 5), carrying each rank's
// bytes from perRank. Ranks are visited in ascending order so flow IDs and
// ECMP salts replay identically across runs.
func addSplitFlows(ctx *Ctx, dst *[]*netsim.Flow, gpus []topo.NodeID, local []int, server int, delegate topo.NodeID, fromDelegate bool, perRank []float64) error {
	for r := 0; r < len(gpus); r++ {
		if local[r] != server {
			continue
		}
		v := perRank[r]
		if gpus[r] == delegate || v <= 0 {
			continue
		}
		src, d := gpus[r], delegate
		if fromDelegate {
			src, d = delegate, gpus[r]
		}
		f, err := ctx.flow(src, d, v)
		if err != nil {
			return err
		}
		if f != nil {
			*dst = append(*dst, f)
		}
	}
	return nil
}
