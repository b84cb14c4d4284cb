package experiments

import (
	"fmt"

	"mixnet/internal/commplan"
	"mixnet/internal/moe"
	"mixnet/internal/topo"
	"mixnet/internal/trainsim"
)

// AblationOverlap quantifies the compute/communication overlap disciplines
// (trainsim.Options.Overlap): iteration time under serial accounting, with
// layer-level overlap, and with the cross-iteration rolling window, plus
// the plan-level observables — frontier widths and step composition.
func AblationOverlap(scale Scale) (Table, error) {
	t := Table{
		ID: "abl_overlap", Title: "Ablation: compute/communication overlap (Mixtral 8x7B, 100G MixNet)",
		Header: []string{"Overlap", "Iter time (s)", "Speedup", "Frontier max", "Frontier mean", "Comm steps", "Compute steps"},
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
		t.Rows = append(t.Rows, []string{
			ov, f3(mean), f2(base / mean),
			fmt.Sprint(s.FrontierMax), f2(s.FrontierMean),
			fmt.Sprint(comm), fmt.Sprint(s.ByKind[commplan.KindCompute]),
		})
	}
	return t, nil
}
