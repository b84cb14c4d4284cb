// Package netsim defines the backend-neutral flow representation shared by
// the collective compiler and the training engine, plus pluggable
// network-simulation backends at three fidelity levels:
//
//   - fluid: max-min fair flow-level simulation (internal/flowsim) — the
//     default, fast enough for 1024-GPU sweeps with zero steady-state
//     allocations.
//   - packet: event-driven packet-level simulation (internal/packetsim) —
//     htsim-style high fidelity for small configurations and
//     cross-validation.
//   - analytic: an alpha-beta/bottleneck-counting model with no fixed-point
//     iteration — a lower-bound estimate cheap enough for 32k-GPU-scale
//     parameter sweeps.
//
// Callers compile collectives into Phases once and choose fidelity at run
// time; every backend consumes the same representation through the Backend
// interface, so results are directly comparable (see the cross-validation
// tests and the abl_fluid experiment).
package netsim

import (
	"fmt"

	"mixnet/internal/packetsim"
	"mixnet/internal/topo"
)

// Flow is one byte transfer along a fixed path, independent of the
// simulation substrate that will execute it.
type Flow struct {
	ID    int
	Path  topo.Route // directed link IDs src->dst; empty = intra-node no-op
	Bytes float64    // payload size in bytes
	Start float64    // start offset in seconds (phase-relative)

	// Finish is filled by Backend.Makespan: completion time in seconds
	// (phase-relative). The analytic backend writes its per-flow estimate.
	Finish float64
}

// Phases is a sequence of concurrent flow sets: flows within a phase run
// concurrently; a phase starts when the previous one completes.
type Phases [][]*Flow

// Backend simulates phases over a topology graph. Implementations carry
// reusable per-engine state (buffers, arenas), so a Backend must not be
// used from multiple goroutines concurrently; create one per engine.
type Backend interface {
	// Name returns the registry name ("fluid", "packet", "analytic").
	Name() string
	// Makespan simulates the phases sequentially over g and returns the
	// summed per-phase completion time in seconds. Flow Finish fields are
	// written in place.
	Makespan(g *topo.Graph, phases Phases) (float64, error)
	// BatchMakespan simulates a batch of mutually independent steps — each
	// one a Phases workload that Makespan could simulate on its own — and
	// returns the per-step makespans in step order. Per-step results
	// (makespan and per-flow Finish fields) are byte-identical to calling
	// Makespan once per step; what a backend may do differently is schedule
	// the steps' internal work concurrently (the packet backend drains all
	// (step, phase, shard) jobs on one worker pool, the analytic backends
	// run a parallel step loop). Steps must not share Flow pointers.
	BatchMakespan(g *topo.Graph, steps []Phases) ([]float64, error)
}

// SerialBatch implements BatchMakespan by calling b.Makespan once per step
// in step order — the fallback adapter for backends with nothing to gain
// from cross-step scheduling. out is reused when it has capacity.
func SerialBatch(b Backend, g *topo.Graph, steps []Phases, out []float64) ([]float64, error) {
	if cap(out) < len(steps) {
		out = make([]float64, len(steps))
	}
	out = out[:len(steps)]
	for i, ph := range steps {
		ms, err := b.Makespan(g, ph)
		if err != nil {
			return nil, err
		}
		out[i] = ms
	}
	return out, nil
}

// DefaultName is the backend used when no name is given.
const DefaultName = "fluid"

// Names lists the registered backend names in fidelity order (coarsest
// last). "analytic-ecmp" is the analytic bound with fractional ECMP load
// spreading instead of sampled-path charging (see NewAnalyticECMP).
func Names() []string { return []string{"fluid", "packet", "analytic", "analytic-ecmp"} }

// FlowTimes reports whether the named backend writes each flow's completion
// time into Flow.Finish. Fluid and packet do. The analytic backends write
// only the flow's serialization bound: their phase time also takes every
// link's bandwidth bound, which no single flow's Finish carries.
func FlowTimes(name string) bool { return name == "fluid" || name == "packet" }

// Config selects and tunes a backend. It is the one execution-options value
// every layer carries — trainsim.Options, scenario.Config, tenancy.Config,
// mixnet.SimConfig and the query service's wire form embed it — and the
// JSON keys are the service's request keys.
type Config struct {
	// Backend is the registry name (see Names); "" selects DefaultName.
	Backend string `json:"backend,omitempty"`
	// CC is the packet backend's congestion controller: "fixed" (default,
	// the deterministic constant window), "dcqcn" (ECN-marking) or "swift"
	// (delay-based); see packetsim.CCNames. Only the packet backend models
	// congestion control, so an adaptive controller on any other backend is
	// a configuration error rather than a silent no-op; "" and "fixed" are
	// accepted everywhere.
	CC string `json:"cc,omitempty"`
	// Workers bounds the packet backend's pool of event loops, across which
	// the link-disjoint flow shards of every submitted step simulate: 0 or
	// 1 runs one loop, < 0 selects GOMAXPROCS. Per-flow results are
	// byte-identical at every worker count; the other backends ignore it.
	Workers int `json:"workers,omitempty"`
}

// BackendName returns the registry name c selects.
func (c Config) BackendName() string {
	if c.Backend == "" {
		return DefaultName
	}
	return c.Backend
}

// New resolves c to a fresh backend.
func New(c Config) (Backend, error) {
	if c.CC != "" {
		if err := packetsim.ValidCC(c.CC); err != nil {
			return nil, fmt.Errorf("netsim: %w", err)
		}
		if c.CC != packetsim.CCFixed && c.Backend != "packet" {
			return nil, fmt.Errorf("netsim: congestion controller %q requires the packet backend (backend is %q)", c.CC, c.BackendName())
		}
	}
	switch c.Backend {
	case "", "fluid":
		return NewFluid(), nil
	case "packet":
		return NewPacket(c), nil
	case "analytic":
		return NewAnalytic(), nil
	case "analytic-ecmp":
		return NewAnalyticECMP(), nil
	}
	return nil, fmt.Errorf("netsim: unknown backend %q (have %v)", c.Backend, Names())
}

// TotalBytes sums the payload of a flow set.
func TotalBytes(flows []*Flow) float64 {
	var s float64
	for _, f := range flows {
		s += f.Bytes
	}
	return s
}

// PhaseBytes sums the payload across all phases.
func PhaseBytes(p Phases) float64 {
	var s float64
	for _, fs := range p {
		s += TotalBytes(fs)
	}
	return s
}
