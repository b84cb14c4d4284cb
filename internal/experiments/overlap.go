package experiments

import (
	"fmt"

	"mixnet/internal/commplan"
	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/packetsim"
	"mixnet/internal/topo"
	"mixnet/internal/trainsim"
)

// AblationOverlap quantifies the compute/communication overlap disciplines
// (trainsim.Options.Overlap): iteration time under serial accounting, with
// layer-level overlap, and with the cross-iteration rolling window, plus
// the plan-level observables — frontier widths, step composition and the
// pooled packet-event concurrency bound the batched window exposes.
func AblationOverlap(scale Scale) (Table, error) {
	t := Table{
		ID: "abl_overlap", Title: "Ablation: compute/communication overlap (Mixtral 8x7B, 100G MixNet)",
		Header: []string{"Overlap", "Iter time (s)", "Speedup", "Frontier max", "Frontier mean", "Comm steps", "Compute steps", "Pooled event bound"},
		Notes:  "slot composition (A2A/compute/blocked) is identical across disciplines; only the accounting overlaps it",
	}
	m := moe.Mixtral8x7B
	plan := planFor(m, Quick, 0)
	servers := plan.GPUs() / 8
	iters := itersFor(scale) + 1 // warm the cross-iteration carry
	var base float64
	for _, ov := range trainsim.OverlapModes() {
		c := buildCluster(topo.FabricMixNet, servers, 100*topo.Gbps, plan)
		opts := mixnetOpts(9)
		opts.Overlap = ov
		e, err := newEngine(m, plan, c, opts)
		if err != nil {
			return t, err
		}
		stats, err := e.Run(iters)
		if err != nil {
			return t, err
		}
		mean := trainsim.MeanIterTime(stats)
		if ov == "none" {
			base = mean
		}
		s := e.CommPlan().Stats()
		comm := s.ByKind[commplan.KindA2A1] + s.ByKind[commplan.KindA2A2] + s.ByKind[commplan.KindDP]
		// The bound depends on the comm steps, not the overlap edges, so
		// replaying it per discipline would triple the runtime for the same
		// number: measure the "none" baseline and the rolling window.
		bound := "-"
		if ov != "layer" {
			total, maxShard, err := planEvents(e)
			if err != nil {
				return t, err
			}
			bound = f2(float64(total) / float64(maxShard))
		}
		t.Rows = append(t.Rows, []string{
			ov, f3(mean), f2(base / mean),
			fmt.Sprint(s.FrontierMax), f2(s.FrontierMean),
			fmt.Sprint(comm), fmt.Sprint(s.ByKind[commplan.KindCompute]),
			bound,
		})
	}
	return t, nil
}

// shardEvents replays workloads through the packet simulator shard by shard
// — the link-disjoint shards the packet backend simulates one after
// another — and returns the total packet event count and the largest
// single shard's count: their ratio is the pooled event-concurrency bound,
// the most that draining every shard at once on parallel event loops could
// gain. Nil workloads (zero-flow plan steps, priced as delays) count
// nothing.
func shardEvents(g *topo.Graph, work []netsim.Phases) (total, maxShard uint64, err error) {
	part := netsim.NewPartitioner()
	sim := packetsim.NewSim()
	cfg := packetsim.Config{MTU: netsim.PacketMTU}
	for _, ph := range work {
		for _, fs := range ph {
			if len(fs) == 0 {
				continue
			}
			for _, shard := range part.Partition(len(g.Links), fs) {
				buf := make([]packetsim.Flow, len(shard))
				pf := make([]*packetsim.Flow, len(shard))
				for i, f := range shard {
					buf[i] = netsim.PacketFlow(f)
					pf[i] = &buf[i]
				}
				res, err := sim.Simulate(g, pf, cfg)
				if err != nil {
					return 0, 0, err
				}
				total += res.Events
				maxShard = max(maxShard, res.Events)
			}
		}
	}
	return total, maxShard, nil
}

// planEvents is shardEvents over the engine's last communication plan; a
// plan that produces no packet events is an error.
func planEvents(e *trainsim.Engine) (total, maxShard uint64, err error) {
	steps := e.CommPlan().Steps()
	work := make([]netsim.Phases, len(steps))
	for i := range steps {
		work[i] = steps[i].Phases
	}
	total, maxShard, err = shardEvents(e.Cluster.G, work)
	if err == nil && total == 0 {
		err = fmt.Errorf("experiments: communication plan produced no packet events")
	}
	return total, maxShard, err
}
