package trainsim

import (
	"errors"

	"mixnet/internal/moe"
	"mixnet/internal/predict"
)

// Engine reuse for the long-running query service (cmd/mixnet-serve): a
// warm engine skips topology construction and placement entirely, and —
// while its graph epoch has not moved since they were recorded — reuses
// cached routes and distance fields from earlier queries. The epoch only
// increases, so any mutation (a failure drill, a circuit retarget, their
// reversal) retires those caches lazily and they rebuild on demand. PrepareRun rewinds exactly the per-run state (gate
// randomness, flow/salt counters, overlap window) so a reused engine's
// results are byte-identical to a freshly built one's; the pool layer
// separately restores and verifies graph state (circuits, failure unwind)
// with topo.Cluster.ResetCircuits and topo.Graph.StateHash.

// Pristine reports whether the engine carries no failure or override state:
// no GPU/server remaps, no TP-over-EPS charges, and no servers excluded
// from circuit planning. A pooled engine must be pristine before reuse —
// leftover overrides would silently skew every later query.
func (e *Engine) Pristine() bool {
	if len(e.gpuOverride) != 0 || len(e.tpPenalty) != 0 || e.tpTracked != 0 {
		return false
	}
	if e.controller != nil && e.controller.FailedServers() != 0 {
		return false
	}
	return true
}

// PrepareRun rewinds the engine's per-run state so the next Run replays as
// if the engine had just been built with Options.GateSeed = gateSeed: the
// synthetic gate is rebuilt (same construction as New), Copilot estimators
// restart untrained, the cross-iteration overlap window is discarded, and
// the collective context's flow-ID and ECMP-salt counters rewind. Warm
// state deliberately survives: cached routes and grown scratch buffers are
// the reuse a pooled engine exists for, and neither influences results —
// only speed.
//
// It errors on engines with an external iteration source (a trace cannot
// be reseeded) or unreversed failure state; callers should evict such
// engines rather than reuse them.
func (e *Engine) PrepareRun(gateSeed int64) error {
	if e.Opts.Source != nil {
		return errors.New("trainsim: PrepareRun on an engine with an external iteration source")
	}
	if !e.Pristine() {
		return errors.New("trainsim: PrepareRun on an engine with unreversed failure state")
	}
	cfg := moe.DefaultGateConfig(gateSeed)
	if e.Opts.GateCfg != nil {
		cfg = *e.Opts.GateCfg
	}
	e.Opts.GateSeed = gateSeed
	e.Gate = moe.NewGateSim(e.Model, e.Plan, cfg)
	if e.estimators != nil {
		for i := range e.estimators {
			e.estimators[i] = predict.NewEstimator(e.Model.Experts, 16)
		}
	}
	e.iter = 0
	e.reconfigs = 0
	e.havePrev = false
	e.peeked = false
	e.nextIt = nil
	e.prefix = prefixSteps{c: -1, b: -1, a: -1}
	e.carry = prefixCarry{}
	e.pend = pendingIter{}
	e.reconfigLog = e.reconfigLog[:0]
	e.ctx.ResetRunState()
	return nil
}
