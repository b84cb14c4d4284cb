package topo

import "fmt"

// closResult reports the switch fabric produced by buildClos.
type closResult struct {
	torOf []NodeID // per endpoint: its ToR switch
	bom   BOM
}

// buildClos wires the given endpoint nodes (NIC ports) into a non-blocking
// or tapered folded-Clos (fat-tree) electrical fabric:
//
//   - 1 tier when all endpoints fit under one switch,
//   - 2 tiers (leaf-spine) when they fit in one pod,
//   - 3 tiers (leaf-agg-core, k-ary fat-tree style) otherwise.
//
// When rail is true, endpoints are interpreted server-major with
// nicsPerServer consecutive entries per server, and NIC i of each group of
// radix/2 servers shares a leaf — Nvidia's rail-optimized wiring. Only used
// switch ports are counted in the BOM (§7.2 methodology).
func buildClos(g *Graph, spec Spec, endpoints []NodeID, rail bool, nicsPerServer int, oversub float64) closResult {
	n := len(endpoints)
	res := closResult{torOf: make([]NodeID, n)}
	if n == 0 {
		return res
	}
	if oversub < 1 {
		oversub = 1
	}
	radix := spec.SwitchRadix
	down := radix / 2
	if down < 1 {
		down = 1
	}

	// Assign each endpoint to a leaf index.
	leafIdx := make([]int, n)
	nLeaves := 0
	if rail && nicsPerServer > 1 {
		// Groups of `down` servers; NIC r of the group lands on leaf
		// group*nicsPerServer + r.
		for i := 0; i < n; i++ {
			server := i / nicsPerServer
			nic := i % nicsPerServer
			group := server / down
			leafIdx[i] = group*nicsPerServer + nic
		}
	} else {
		for i := 0; i < n; i++ {
			leafIdx[i] = i / down
		}
	}
	for _, li := range leafIdx {
		if li+1 > nLeaves {
			nLeaves = li + 1
		}
	}

	// Count per-leaf endpoint attachments up front so every switch node can
	// reserve its exact final adjacency degree.
	leafDownUsed := make([]int, nLeaves)
	for _, li := range leafIdx {
		leafDownUsed[li]++
	}

	leavesPerPod := down
	nPods := (nLeaves + leavesPerPod - 1) / leavesPerPod

	// Uplinks per leaf, tapered by the over-subscription ratio.
	upPerLeaf := down
	if oversub > 1 {
		upPerLeaf = int(float64(down)/oversub + 0.5)
		if upPerLeaf < 1 {
			upPerLeaf = 1
		}
	}
	leafUp := upPerLeaf
	if nLeaves == 1 {
		leafUp = 0
	}

	// Create leaves and attach endpoints.
	leaves := make([]NodeID, nLeaves)
	for i := range leaves {
		leaves[i] = g.AddNode(KindTor, fmt.Sprintf("tor%d", i), -1, -1, -1)
		g.ReserveAdj(leaves[i], leafDownUsed[i]+leafUp, leafDownUsed[i]+leafUp)
	}
	for i, ep := range endpoints {
		tor := leaves[leafIdx[i]]
		g.AddDuplex(ep, tor, spec.NICBps, spec.LinkLatency)
		res.torOf[i] = tor
	}
	for _, used := range leafDownUsed {
		res.bom.TorPorts += used
	}
	res.bom.ServerTorLinks = n

	if nLeaves == 1 {
		return res
	}

	if nPods == 1 {
		// Two-tier leaf-spine: upPerLeaf spines, one link from each leaf.
		spines := make([]NodeID, upPerLeaf)
		for i := range spines {
			spines[i] = g.AddNode(KindAgg, fmt.Sprintf("spine%d", i), -1, -1, -1)
			g.ReserveAdj(spines[i], nLeaves, nLeaves)
		}
		for _, leaf := range leaves {
			for _, sp := range spines {
				g.AddDuplex(leaf, sp, spec.NICBps, spec.LinkLatency)
				res.bom.TorPorts++
				res.bom.AggPorts++
				res.bom.FabricLinks++
			}
		}
		return res
	}

	// Three-tier fat-tree. Aggs per pod = upPerLeaf; each leaf links once to
	// every agg in its pod. Each agg has coreUp uplinks into its core group.
	coreUp := down
	if oversub > 1 {
		coreUp = int(float64(down)/oversub + 0.5)
		if coreUp < 1 {
			coreUp = 1
		}
	}
	aggs := make([][]NodeID, nPods)
	for p := 0; p < nPods; p++ {
		aggs[p] = make([]NodeID, upPerLeaf)
		leavesInPod := leavesPerPod
		if rem := nLeaves - p*leavesPerPod; rem < leavesInPod {
			leavesInPod = rem
		}
		for a := 0; a < upPerLeaf; a++ {
			aggs[p][a] = g.AddNode(KindAgg, fmt.Sprintf("pod%d/agg%d", p, a), -1, -1, -1)
			g.ReserveAdj(aggs[p][a], leavesInPod+coreUp, leavesInPod+coreUp)
		}
	}
	for li, leaf := range leaves {
		pod := li / leavesPerPod
		for _, ag := range aggs[pod] {
			g.AddDuplex(leaf, ag, spec.NICBps, spec.LinkLatency)
			res.bom.TorPorts++
			res.bom.AggPorts++
			res.bom.FabricLinks++
		}
	}
	// Core plane: upPerLeaf groups of coreUp cores. Agg a of every pod
	// connects once to each core in group a.
	cores := make([][]NodeID, upPerLeaf)
	for a := 0; a < upPerLeaf; a++ {
		cores[a] = make([]NodeID, coreUp)
		for c := 0; c < coreUp; c++ {
			cores[a][c] = g.AddNode(KindCore, fmt.Sprintf("core%d_%d", a, c), -1, -1, -1)
			g.ReserveAdj(cores[a][c], nPods, nPods)
		}
	}
	for p := 0; p < nPods; p++ {
		for a := 0; a < upPerLeaf; a++ {
			for _, core := range cores[a] {
				g.AddDuplex(aggs[p][a], core, spec.NICBps, spec.LinkLatency)
				res.bom.AggPorts++
				res.bom.CorePorts++
				res.bom.FabricLinks++
			}
		}
	}
	return res
}

// allNICNodes returns the NIC node IDs of all servers, server-major,
// filtered to the given class (or all NICs when class is nil).
func allNICNodes(servers []Server, class *NICClass) []NodeID {
	var out []NodeID
	for i := range servers {
		for _, nic := range servers[i].NICs {
			if class == nil || nic.Class == *class {
				out = append(out, nic.Node)
			}
		}
	}
	return out
}

// BuildFatTree constructs a 1:1 non-blocking fat-tree cluster.
func BuildFatTree(spec Spec) *Cluster { return buildFatTree(spec, FabricFatTree, 1) }

// BuildOverSubFatTree constructs a fat-tree tapered by spec.Oversub
// (the paper evaluates 3:1).
func BuildOverSubFatTree(spec Spec) *Cluster {
	s := spec.withDefaults()
	if s.Oversub <= 1 {
		s.Oversub = 3
	}
	return buildFatTree(s, FabricOverSubFatTree, s.Oversub)
}

// buildFatTree folds every three-tier layout (fold.go) unless spec.Eager
// asks for the reference build. buildElectrical must not decide: the
// scale-up builders share it and wire circuits through c.Servers, which a
// folded build leaves unmaterialized.
func buildFatTree(spec Spec, kind FabricKind, oversub float64) *Cluster {
	spec = spec.withDefaults()
	if lay := closLayoutFor(spec, false, oversub); lay.tiers == 3 && !spec.Eager {
		return buildFoldedElectrical(spec, kind, lay)
	}
	return buildElectrical(spec, kind, false, oversub)
}

// BuildRailOptimized constructs Nvidia's rail-optimized wiring: NIC i of
// every server in a group shares a rail ToR.
func BuildRailOptimized(spec Spec) *Cluster {
	return buildElectrical(spec, FabricRailOptimized, true, 1)
}

func buildElectrical(spec Spec, kind FabricKind, rail bool, oversub float64) *Cluster {
	spec = spec.withDefaults()
	lay := closLayoutFor(spec, rail, oversub)
	g := NewGraph()
	g.Grow(spec.Servers*nodesPerServer(spec)+lay.switchNodes,
		spec.Servers*linksPerServer(spec)+lay.closLinks)
	classes := make([]NICClass, spec.NICsPerServer) // all EPS
	servers := buildServers(g, spec, classes)
	eps := allNICNodes(servers, nil)
	res := buildClos(g, spec, eps, rail, spec.NICsPerServer, oversub)
	// Record ToR attachment on each NIC.
	idx := 0
	for s := range servers {
		for n := range servers[s].NICs {
			servers[s].NICs[n].Tor = res.torOf[idx]
			idx++
		}
	}
	bom := res.bom
	bom.NICs = len(eps)
	return &Cluster{G: g, Spec: spec, Kind: kind, Servers: servers, BOM: bom}
}
