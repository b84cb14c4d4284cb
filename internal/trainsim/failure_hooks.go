package trainsim

import (
	"fmt"

	"mixnet/internal/ocs"
	"mixnet/internal/parallel"
	"mixnet/internal/topo"
)

// Failure hooks (§5.4): the engine supports remapping GPUs to backups and
// accounting the TP-over-scale-out penalty that arises when a replacement
// GPU breaks the NVSwitch locality of its TP group. Penalties charged by
// FailGPU/FailServer are tracked per overridden GPU, so restoring an
// override (OverrideGPU(orig, orig)) undoes exactly its own charge —
// composed failure scenarios unwind independently.

// OverrideGPU redirects every role of the original GPU node to a
// replacement (the designated backup GPU). Passing the original node
// restores it and releases any TP-over-EPS penalty charged against it;
// re-overriding an already-overridden GPU likewise drops the stale charge
// so the caller can re-assess it.
func (e *Engine) OverrideGPU(orig, repl topo.NodeID) {
	if e.gpuOverride == nil {
		e.gpuOverride = map[topo.NodeID]topo.NodeID{}
	}
	e.overrideGen++
	if p, ok := e.tpPenalty[orig]; ok {
		e.tpTracked -= p
		delete(e.tpPenalty, orig)
	}
	if orig == repl {
		delete(e.gpuOverride, orig)
		return
	}
	e.gpuOverride[orig] = repl
}

// chargeTPOverEPS records a TP-over-EPS penalty against an overridden GPU;
// restoring that GPU releases it.
func (e *Engine) chargeTPOverEPS(orig topo.NodeID, ranks int) {
	if e.tpPenalty == nil {
		e.tpPenalty = map[topo.NodeID]int{}
	}
	e.tpPenalty[orig] += ranks
	e.tpTracked += ranks
}

// TPOverEPS returns the count of EP ranks whose TP group spans the
// scale-out fabric because FailGPU/FailServer remapped a member GPU
// off-host. Their TP all-reduces leave NVSwitch and are charged at NIC line
// rate (§7.5).
func (e *Engine) TPOverEPS() int { return e.tpTracked }

// Controller exposes the representative region's topology controller so
// failure scenarios can exclude servers (nil for static fabrics).
func (e *Engine) Controller() *ocs.Controller { return e.controller }

func (e *Engine) mapGPU(n topo.NodeID) topo.NodeID {
	if r, ok := e.gpuOverride[n]; ok {
		return r
	}
	return n
}

// tpOverEPSPenalty returns the extra per-layer time of TP all-reduces that
// traverse the scale-out fabric instead of NVSwitch: two ring all-reduces
// of the micro-batch activation volume at NIC line rate.
func (e *Engine) tpOverEPSPenalty() float64 {
	if e.TPOverEPS() == 0 || e.Plan.TP < 2 {
		return 0
	}
	s := float64(e.Plan.TokensPerMicroBatch()) * e.Model.TokenBytes()
	per := 2 * 2 * s * float64(e.Plan.TP-1) / float64(e.Plan.TP)
	return per * 8 / e.Cluster.Spec.NICBps
}

// FailGPU remaps one GPU of the representative EP group to a backup GPU
// node, applying the TP-over-EPS penalty when the rank's TP group no longer
// shares a server. Returns the original node so callers can restore it via
// OverrideGPU(orig, orig), which also lifts the penalty.
func (e *Engine) FailGPU(ep, tp int, backup topo.NodeID) (topo.NodeID, error) {
	p := e.Plan
	if ep < 0 || ep >= p.EP || tp < 0 || tp >= p.TP {
		return topo.NoNode, fmt.Errorf("trainsim: rank (ep=%d,tp=%d) out of range", ep, tp)
	}
	orig := e.Place.GPUNode(parallel.Rank{DP: 0, PP: 0, EP: ep, TP: tp})
	e.OverrideGPU(orig, backup)
	if p.TP > 1 && e.Cluster.G.Node(backup).Server != e.Cluster.G.Node(orig).Server {
		e.chargeTPOverEPS(orig, 1)
	}
	return orig, nil
}

// FailServer remaps every GPU of a representative-group server to the
// backup server's GPUs (connected via EPS only, §5.4), excludes the failed
// server from circuit planning, and returns the original GPU nodes. The
// backup must have at least as many GPUs as the failed server; doubling
// ranks up on a smaller backup would silently misrepresent the remap.
func (e *Engine) FailServer(server int, backup int) ([]topo.NodeID, error) {
	if server < 0 || server >= len(e.Cluster.Servers) || backup < 0 || backup >= len(e.Cluster.Servers) {
		return nil, fmt.Errorf("trainsim: server index out of range")
	}
	if server == backup {
		return nil, fmt.Errorf("trainsim: backup equals failed server")
	}
	src := *e.Cluster.Server(server)
	dst := *e.Cluster.Server(backup)
	if len(dst.GPUs) < len(src.GPUs) {
		return nil, fmt.Errorf("trainsim: backup server %d has %d GPUs, failed server %d has %d",
			backup, len(dst.GPUs), server, len(src.GPUs))
	}
	var origs []topo.NodeID
	for i, g := range src.GPUs {
		e.OverrideGPU(g, dst.GPUs[i])
		origs = append(origs, g)
	}
	if e.Plan.TP > 1 {
		// Every EP rank with TP members on the dead server now spans hosts;
		// charge one penalty per full TP group, keyed to its first GPU so
		// restoring the server releases them all.
		for k := 0; k < len(src.GPUs)/e.Plan.TP; k++ {
			e.chargeTPOverEPS(src.GPUs[k*e.Plan.TP], 1)
		}
	}
	if e.controller != nil {
		e.controller.SetServerFailed(server, true)
	}
	return origs, nil
}
