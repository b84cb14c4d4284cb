// Package experiments regenerates every table and figure of the paper's
// evaluation: each Fig*/Tab* function runs the corresponding workload on
// the simulated substrate and returns a printable Table whose rows mirror
// what the paper reports. cmd/mixnet-bench prints them all;
// bench_test.go wraps each in a testing.B target; EXPERIMENTS.md records
// paper-vs-measured values.
package experiments

import (
	"fmt"
	"strings"

	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/parallel"
	"mixnet/internal/topo"
	"mixnet/internal/trainsim"
)

// Defaults is the execution configuration every experiment engine runs
// with unless its options say otherwise.
type Defaults struct {
	// Exec selects the netsim backend and the packet backend's congestion
	// controller.
	Exec netsim.Config
	// Overlap is the compute/communication overlap discipline
	// (trainsim.Options.Overlap); "" and "none" keep the historical serial
	// accounting.
	Overlap string
}

// defaults is installed once by SetDefaults before a run — not per
// experiment — so parallel-runner determinism is unaffected.
var defaults Defaults

// SetDefaults validates d as a whole and installs it for every later
// Run/RunIDs. Call it before them, not concurrently with them.
func SetDefaults(d Defaults) error {
	if _, err := netsim.New(d.Exec); err != nil {
		return err
	}
	if err := trainsim.ValidOverlap(d.Overlap); err != nil {
		return err
	}
	defaults = d
	return nil
}

// newEngine builds a training engine, applying the package defaults where
// opts leaves the execution options or the overlap discipline unset.
func newEngine(m moe.Model, plan moe.TrainPlan, c *topo.Cluster, opts trainsim.Options) (*trainsim.Engine, error) {
	if opts.Config == (netsim.Config{}) {
		opts.Config = defaults.Exec
	}
	if opts.Overlap == "" {
		opts.Overlap = defaults.Overlap
	}
	return trainsim.New(m, plan, c, opts)
}

// Scale selects experiment sizing: Quick shrinks cluster sizes and
// iteration counts for CI; Full reproduces the paper's dimensions.
type Scale int

// Experiment scales.
const (
	Quick Scale = iota
	Full
)

// Table is one regenerated artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// String renders the table as aligned text.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			w := 8
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func ms(v float64) string  { return fmt.Sprintf("%.1fms", v*1e3) }
func dol(v float64) string { return fmt.Sprintf("$%.2fM", v/1e6) }

// evalFabrics are the five §7 interconnects in presentation order.
var evalFabrics = []topo.FabricKind{
	topo.FabricFatTree,
	topo.FabricRailOptimized,
	topo.FabricOverSubFatTree,
	topo.FabricTopoOpt,
	topo.FabricMixNet,
}

// buildCluster wires the requested fabric sized for the plan.
//
// Simulated fabrics use radix-16 leaves (one 8-NIC server per leaf) so that
// inter-server traffic actually traverses the switching tiers — with the
// cost model's radix-64 switches an entire EP group sits under a single
// leaf and the over-subscription taper would never carry traffic. The cost
// analysis (internal/cost) keeps the paper's radix-64 accounting.
func buildCluster(kind topo.FabricKind, servers int, gbps float64, plan moe.TrainPlan) *topo.Cluster {
	spec := topo.DefaultSpec(servers, gbps)
	spec.SwitchRadix = 16
	spec.RegionServers = parallel.RegionServersPerEPGroup(plan, spec.GPUsPerServer)
	c, err := topo.Build(kind, spec)
	if err != nil {
		panic(err) // every sweep names one of the five simulated fabrics
	}
	return c
}

// planFor sizes a model's simulation plan (§D.1) for a target GPU count by
// scaling DP. scale==Quick keeps DP=1 (one replica).
func planFor(m moe.Model, scale Scale, targetGPUs int) moe.TrainPlan {
	p := moe.SimPlans()[m.Name]
	if p.EP == 0 {
		p = moe.Table1Plans()[m.Name]
	}
	p.DP = 1
	if scale == Full && targetGPUs > 0 {
		if per := p.EP * p.TP * p.PP; targetGPUs > per {
			p.DP = targetGPUs / per
		}
	}
	return p
}

// meanIterTime builds an engine and returns the mean iteration time.
func meanIterTime(m moe.Model, plan moe.TrainPlan, c *topo.Cluster, opts trainsim.Options, iters int) (float64, error) {
	e, err := newEngine(m, plan, c, opts)
	if err != nil {
		return 0, err
	}
	stats, err := e.Run(iters)
	if err != nil {
		return 0, err
	}
	return trainsim.MeanIterTime(stats), nil
}

func itersFor(scale Scale) int {
	if scale == Full {
		return 4
	}
	return 2
}
