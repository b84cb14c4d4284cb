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

// Ctx carries routing and simulation state shared by collective
// compilations. The router's route cache and the attached netsim backend
// persist across compilations, so steady-state recompilation of the same
// collectives reuses routes and simulation buffers instead of reallocating
// them per phase.
type Ctx struct {
	Cluster *topo.Cluster
	Router  *topo.BFSRouter
	nextID  int
	pairSeq map[pairKey]uint8 // per-(src,dst) rotating ECMP salt
	backend netsim.Backend
}

// pairKey identifies an ordered endpoint pair for ECMP salt rotation.
type pairKey struct{ src, dst topo.NodeID }

// ecmpSpread bounds the distinct ECMP salts used per endpoint pair.
// Concurrent flows between the same endpoints still fan out over up to
// ecmpSpread equal-cost paths, but salts repeat across compilations so the
// router's route cache hits instead of re-deriving paths every phase.
const ecmpSpread = 16

// NewCtx creates a compilation context for a cluster simulating on the
// default fluid backend.
func NewCtx(c *topo.Cluster) *Ctx {
	return NewCtxWithBackend(c, netsim.NewFluid())
}

// NewCtxWithBackend creates a compilation context that simulates compiled
// phases on the given netsim backend. The backend becomes owned by the
// context (backends are not safe for concurrent use).
func NewCtxWithBackend(c *topo.Cluster, b netsim.Backend) *Ctx {
	if b == nil {
		b = netsim.NewFluid()
	}
	return &Ctx{
		Cluster: c, Router: topo.NewBFSRouter(c.G),
		pairSeq: make(map[pairKey]uint8), backend: b,
	}
}

// Backend returns the netsim backend the context simulates on.
func (ctx *Ctx) Backend() netsim.Backend { return ctx.backend }

// ResetRunState rewinds the context's per-run compilation state — flow ID
// counter and per-pair ECMP salt rotation — to the freshly built position,
// so a reused engine replays a run byte-identically to a fresh one. Cached
// routes survive: they are exactly the cross-run reuse a warm engine exists
// for.
func (ctx *Ctx) ResetRunState() {
	ctx.nextID = 0
	clear(ctx.pairSeq)
}

// nextSalt returns the rotating ECMP salt for a pair and advances it.
func (ctx *Ctx) nextSalt(src, dst topo.NodeID) uint64 {
	if ctx.pairSeq == nil {
		ctx.pairSeq = make(map[pairKey]uint8)
	}
	k := pairKey{src, dst}
	s := ctx.pairSeq[k]
	ctx.pairSeq[k] = (s + 1) % ecmpSpread
	return uint64(s)
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
	ctx.nextID++
	return &netsim.Flow{ID: ctx.nextID, Path: rt, Bytes: bytes}, nil
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
	path := make(topo.Route, 0, len(head)+len(mid)+len(tail))
	path = append(append(append(path, head...), mid...), tail...)
	ctx.nextID++
	return &netsim.Flow{ID: ctx.nextID, Path: path, Bytes: bytes}, nil
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
	var fs []*netsim.Flow
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
	if fs == nil {
		return nil, nil
	}
	return Phases{fs}, nil
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
	table := c.RegionCircuitTable(region)

	// Aggregate demand to ordered server pairs; remember per-rank shares.
	serverOf := make([]int, n)
	for r, g := range gpus {
		serverOf[r] = c.G.Node(g).Server
	}
	type key [2]int
	pairVol := map[key]float64{}
	var pairOrder []key // first-appearance order: flow compilation must be deterministic
	var gather, inter, intra, scatter []*netsim.Flow
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := demand.At(i, j)
			if v <= 0 {
				continue
			}
			si, sj := serverOf[i], serverOf[j]
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
			k := key{si, sj}
			if _, seen := pairVol[k]; !seen {
				pairOrder = append(pairOrder, k)
			}
			pairVol[k] += v
		}
	}

	// Steps 1–3, 5 per ordered server pair, visited in first-appearance
	// order: map iteration order would randomise flow IDs and ECMP salt
	// draws run to run, breaking the byte-identical replays the
	// batched-vs-serial (and sharded-vs-serial) guarantees rest on.
	for _, k := range pairOrder {
		vol := pairVol[k]
		si, sj := k[0], k[1]
		tk := [2]int{si, sj}
		if si > sj {
			tk = [2]int{sj, si}
		}
		circuits := table[tk]
		if len(circuits) > 0 {
			share := vol / float64(len(circuits))
			for _, cp := range circuits {
				// Orient the circuit ends: A-side on si.
				a, b := cp.A, cp.B
				if c.G.Node(a).Server != si {
					a, b = b, a
				}
				dgA := delegateGPU(c, a)
				dgB := delegateGPU(c, b)
				// Step 2: gather from each source rank on si to delegate.
				if err := addSplitFlows(ctx, &gather, gpus, serverOf, si, dgA, false, demandRowShare(demand, serverOf, si, sj, share/vol)); err != nil {
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
				if err := addSplitFlows(ctx, &scatter, gpus, serverOf, sj, dgB, true, demandColShare(demand, serverOf, si, sj, share/vol)); err != nil {
					return nil, err
				}
			}
			continue
		}
		// No circuit: EPS fallback, rank-to-rank via the electrical fabric.
		for i := 0; i < n; i++ {
			if serverOf[i] != si {
				continue
			}
			for j := 0; j < n; j++ {
				if serverOf[j] != sj || i == j {
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

	var phases Phases
	if len(gather) > 0 {
		phases = append(phases, gather)
	}
	// Steps 3 and 4 overlap (§5.3): one phase.
	overlap := append(inter, intra...)
	if len(overlap) > 0 {
		phases = append(phases, overlap)
	}
	if len(scatter) > 0 {
		phases = append(phases, scatter)
	}
	return phases, nil
}

// demandRowShare returns per-source-rank bytes from server si toward sj,
// scaled by share (a circuit's fraction of the pair volume).
func demandRowShare(d *metrics.Matrix, serverOf []int, si, sj int, share float64) map[int]float64 {
	out := map[int]float64{}
	for i := 0; i < d.Rows; i++ {
		if serverOf[i] != si {
			continue
		}
		for j := 0; j < d.Cols; j++ {
			if serverOf[j] == sj && i != j {
				out[i] += d.At(i, j) * share
			}
		}
	}
	return out
}

// demandColShare returns per-destination-rank bytes on server sj received
// from si, scaled by share.
func demandColShare(d *metrics.Matrix, serverOf []int, si, sj int, share float64) map[int]float64 {
	out := map[int]float64{}
	for j := 0; j < d.Cols; j++ {
		if serverOf[j] != sj {
			continue
		}
		for i := 0; i < d.Rows; i++ {
			if serverOf[i] == si && i != j {
				out[j] += d.At(i, j) * share
			}
		}
	}
	return out
}

// addSplitFlows emits gather or scatter flows between rank GPUs and a
// delegate GPU on one server: rank->delegate when fromDelegate is false
// (step 2), delegate->rank when true (step 5). Ranks are visited in
// ascending order (not map order) so flow IDs and ECMP salts replay
// identically across runs.
func addSplitFlows(ctx *Ctx, dst *[]*netsim.Flow, gpus []topo.NodeID, serverOf []int, server int, delegate topo.NodeID, fromDelegate bool, perRank map[int]float64) error {
	for r := 0; r < len(gpus); r++ {
		v, ok := perRank[r]
		if !ok || gpus[r] == delegate || v <= 0 || serverOf[r] != server {
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

// Makespan simulates the phases sequentially on the context's backend and
// returns the summed completion time in seconds. The backend's buffers are
// reused, so on the fluid and analytic backends repeated calls perform no
// steady-state simulation allocations.
func Makespan(ctx *Ctx, phases Phases) (float64, error) {
	return ctx.backend.Makespan(ctx.Cluster.G, phases)
}
