// Package mixnet is the public API of the MixNet reproduction: a runtime
// reconfigurable optical-electrical fabric for distributed
// Mixture-of-Experts training (SIGCOMM 2025), rebuilt as a pure-Go
// simulation stack.
//
// The package exposes three entry points:
//
//   - Simulate: run distributed MoE training iterations of a named model on
//     one of the evaluated fabrics (Fat-tree, over-subscribed Fat-tree,
//     Rail-optimized, TopoOpt, MixNet) and obtain per-iteration timing,
//     all-to-all breakdowns and reconfiguration statistics.
//   - NetworkCost: price a fabric at a given scale and link bandwidth with
//     the paper's Table 4 cost model.
//   - Experiment: regenerate any table or figure of the paper's evaluation
//     by id (see ExperimentIDs).
//
// Lower-level building blocks (topologies, the flow/packet simulators,
// Algorithm 1's controller, the Copilot predictor) live in internal/
// packages and are documented there.
package mixnet

import (
	"fmt"
	"sort"

	"mixnet/internal/cost"
	"mixnet/internal/experiments"
	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/packetsim"
	"mixnet/internal/scenario"
	"mixnet/internal/topo"
	"mixnet/internal/trainsim"
)

// Fabric names an interconnect architecture.
type Fabric = topo.FabricKind

// The evaluated fabrics.
const (
	FatTree        = topo.FabricFatTree
	OverSubFatTree = topo.FabricOverSubFatTree
	RailOptimized  = topo.FabricRailOptimized
	TopoOpt        = topo.FabricTopoOpt
	MixNet         = topo.FabricMixNet
)

// IterationStats re-exports the per-iteration statistics.
type IterationStats = trainsim.IterStats

// Exec selects the network-simulation substrate every collective runs on:
// Backend is "fluid" (default) for max-min flow-level simulation, "packet"
// for htsim-style packet-level fidelity (small configurations), or
// "analytic"/"analytic-ecmp" for the iteration-free alpha-beta bounds (huge
// sweeps; see SimBackends). CC is the packet backend's congestion
// controller — "fixed" (default), "dcqcn" or "swift"; adaptive controllers
// require the packet backend (see SimCongestionControls). Workers bounds
// the packet backend's pool of event loops, across which link-disjoint flow
// shards of every ready communication step simulate with byte-identical
// results: 0 or 1 runs one loop, < 0 selects GOMAXPROCS; the other
// backends ignore it.
type Exec = netsim.Config

// SimConfig configures one training simulation.
type SimConfig struct {
	// Model is a registry name (see ListModels), e.g. "Mixtral 8x7B".
	Model string
	// Fabric selects the interconnect (default FatTree).
	Fabric Fabric
	// Exec selects the network-simulation substrate and tunes it.
	Exec
	// LinkGbps is the NIC line rate in Gbit/s (default 400).
	LinkGbps float64
	// DP scales the cluster by replicating the model (default 1).
	DP int
	// FirstA2A is "block" (default), "reuse" or "copilot" (§5.1).
	FirstA2A string
	// ReconfigDelaySec is the OCS reconfiguration latency
	// (default 0.025, the §7.1 simulation setting).
	ReconfigDelaySec float64
	// Iterations to simulate (default 3).
	Iterations int
	// Seed drives the synthetic gate; equal seeds reproduce runs exactly.
	Seed int64
	// Overlap selects the compute/communication overlap discipline:
	// "none" (default) prices each iteration as the historical serial
	// sum, "layer" overlaps layer k's collectives with layer k+1's
	// computation via DAG critical-path accounting, and "iter" extends
	// the plan across iteration boundaries so the next iteration's gate
	// and dispatch start while the DP all-reduce drains. "none" is
	// byte-identical to prior releases. See SimOverlapModes.
	Overlap string
}

// Result summarises a simulation.
type Result struct {
	// MeanIterTime is the warm mean iteration time in seconds.
	MeanIterTime float64
	// Stats holds every simulated iteration.
	Stats []IterationStats
	// GPUs and Servers describe the simulated cluster.
	GPUs, Servers int
}

// Simulate runs the configured training simulation. Engine construction is
// shared with internal/scenario's runner, so a plain Simulate and a
// scenario run of the same configuration execute on identical clusters.
func Simulate(cfg SimConfig) (Result, error) {
	if cfg.Iterations == 0 {
		cfg.Iterations = 3 // the other defaults are scenario.Config's
	}
	// Reverse-lookup the fabric's registry name over sorted keys so the
	// choice is stable if two names ever alias one kind.
	fabrics := topo.Fabrics()
	names := make([]string, 0, len(fabrics))
	for name := range fabrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fabricName := ""
	for _, name := range names {
		if fabrics[name] == cfg.Fabric {
			fabricName = name
			break
		}
	}
	if fabricName == "" {
		return Result{}, fmt.Errorf("mixnet: fabric %v not supported by Simulate", cfg.Fabric)
	}
	engine, err := scenario.NewEngine(scenario.Config{
		Model: cfg.Model, Fabric: fabricName, Config: cfg.Exec,
		Overlap: cfg.Overlap, LinkGbps: cfg.LinkGbps, DP: cfg.DP, Seed: cfg.Seed,
		FirstA2A: cfg.FirstA2A, ReconfigDelaySec: cfg.ReconfigDelaySec,
	})
	if err != nil {
		return Result{}, fmt.Errorf("mixnet: %w", err)
	}
	stats, err := engine.Run(cfg.Iterations)
	if err != nil {
		return Result{}, err
	}
	return Result{
		MeanIterTime: trainsim.MeanIterTime(stats),
		Stats:        stats,
		GPUs:         engine.Cluster.GPUCount(),
		Servers:      len(engine.Cluster.Servers),
	}, nil
}

// CostBreakdown itemises a fabric's networking cost in USD.
type CostBreakdown = cost.Breakdown

// NetworkCost prices a fabric with servers (at least one) 8-GPU hosts at
// the given link bandwidth (100, 200, 400 or 800 Gbps) using Table 4
// component prices.
func NetworkCost(fabric Fabric, servers, gbps int) (CostBreakdown, error) {
	return cost.FabricCost(fabric, servers, gbps, cost.LinkFiber)
}

// SimBackends lists the available network-simulation backends in fidelity
// order: "fluid", "packet", "analytic", "analytic-ecmp".
func SimBackends() []string { return netsim.Names() }

// SimCongestionControls lists the packet backend's congestion controllers:
// "fixed", "dcqcn", "swift".
func SimCongestionControls() []string { return packetsim.CCNames() }

// SimOverlapModes lists the compute/communication overlap disciplines:
// "none", "layer", "iter".
func SimOverlapModes() []string { return trainsim.OverlapModes() }

// ListModels returns the model registry names in sorted order.
func ListModels() []string {
	var out []string
	for name := range moe.Models() {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// ExperimentIDs lists the reproducible tables/figures in paper order.
func ExperimentIDs() []string {
	var out []string
	for _, r := range experiments.Registry() {
		out = append(out, r.ID)
	}
	return out
}

// Experiment regenerates one paper artifact by id and returns its rendered
// table. full selects the paper-scale dimensions instead of the quick CI
// sizing.
func Experiment(id string, full bool) (string, error) {
	scale := experiments.Quick
	if full {
		scale = experiments.Full
	}
	t, err := experiments.Run(id, scale)
	if err != nil {
		return "", err
	}
	return t.String(), nil
}
