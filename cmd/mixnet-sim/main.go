// mixnet-sim runs one distributed MoE training simulation on a chosen
// fabric and prints per-iteration timing, or drives a named scenario
// (synthetic gate, trace replay, failure drill) through any backend.
//
// Usage:
//
//	mixnet-sim -model "Mixtral 8x7B" -fabric mixnet -gbps 100 -iters 3 -mode copilot
//	mixnet-sim -backend packet                       # packet fidelity, link-disjoint shards
//	mixnet-sim -overlap iter                         # overlap compute/comm, pipeline across iterations
//	mixnet-sim -scenario trace -backend packet       # trace replay at packet fidelity
//	mixnet-sim -fabric fat-tree -dp 9                # three tiers: always built symmetry-folded
//	mixnet-sim -scenario fail-nic+fail-gpu           # composed multi-failure drill
//	mixnet-sim -scenario matrix -backends fluid,packet,analytic
//	mixnet-sim -tenants 2 -contend -fabric topoopt -dp 2   # co-scheduled jobs, shared-link contention priced
//	mixnet-sim -tenants 2 -arbiter-slots 1 -arbiter priority   # shared reconfiguration control plane
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mixnet"
	"mixnet/internal/netsim"
	"mixnet/internal/scenario"
	"mixnet/internal/tenancy"
	"mixnet/internal/topo"
	"mixnet/internal/trainsim"
)

func main() {
	var (
		model    = flag.String("model", "Mixtral 8x7B", "model name (see -list)")
		fabric   = flag.String("fabric", "mixnet", "fat-tree | oversub | rail | topoopt | mixnet")
		backend  = flag.String("backend", "fluid", "network simulation backend: fluid | packet | analytic | analytic-ecmp")
		cc       = flag.String("cc", "", "packet-backend congestion control: fixed | dcqcn | swift")
		overlap  = flag.String("overlap", "", "compute/communication overlap discipline: none (default, serial accounting) | layer (hide collectives under the next layer's compute) | iter (also pipeline across iteration boundaries)")
		gbps     = flag.Float64("gbps", 400, "NIC line rate in Gbit/s")
		dp       = flag.Int("dp", 1, "data-parallel replicas")
		iters    = flag.Int("iters", 3, "iterations to simulate")
		mode     = flag.String("mode", "block", "first-A2A handling: block | reuse | copilot")
		delay    = flag.Float64("reconfig-ms", 25, "OCS reconfiguration delay in ms")
		seed     = flag.Int64("seed", 1, "gate random seed")
		scen     = flag.String("scenario", "", "run a named scenario instead: synthetic | trace | fail-nic | fail-gpu | fail-server | fail-nic+fail-gpu | fail-server+fail-nic | copilot-drill | co-tenant | co-tenant-steal | matrix")
		backends = flag.String("backends", "", "comma-separated backend list for -scenario matrix (default: -backend)")
		tenants  = flag.Int("tenants", 0, "co-schedule N jobs (-model at -dp plus N-1 DP-doubled neighbours) on one shared fabric")
		contend  = flag.Bool("contend", false, "price cross-tenant shared-link contention by co-simulating concurrent flows; fluid or packet backend (default: isolated slices, bitwise solo-identical)")
		arbSlots = flag.Int("arbiter-slots", 0, "shared OCS reconfiguration slots across tenants (0 = unarbitrated)")
		arbiter  = flag.String("arbiter", "fair", "reconfiguration-grant policy with -arbiter-slots: fair | priority")
		list     = flag.Bool("list", false, "list models and scenarios, then exit")
	)
	flag.Parse()
	if *iters < 1 {
		fmt.Fprintf(os.Stderr, "-iters must be >= 1, got %d\n", *iters)
		os.Exit(2)
	}
	exec := netsim.Config{Backend: *backend, CC: *cc}

	if *list {
		for _, m := range mixnet.ListModels() {
			fmt.Println(m)
		}
		fmt.Println("scenarios:", strings.Join(scenario.Names(), " "))
		return
	}
	if *tenants != 0 {
		runTenants(*tenants, tenancy.Config{
			Fabric: strings.ToLower(*fabric), Config: exec, LinkGbps: *gbps,
			ReconfigDelaySec: *delay / 1e3, Contend: *contend,
			ArbiterSlots: *arbSlots, ArbiterPolicy: *arbiter,
		}, *model, *dp, *iters, *seed, *mode, *overlap)
		return
	}
	if *scen != "" {
		runScenario(*scen, *backends, scenario.Config{
			Model: *model, Fabric: strings.ToLower(*fabric), Config: exec,
			Overlap: *overlap, LinkGbps: *gbps, DP: *dp,
			Iterations: *iters, Seed: *seed, FirstA2A: *mode,
			ReconfigDelaySec: *delay / 1e3,
		})
		return
	}
	kind, ok := topo.Fabrics()[strings.ToLower(*fabric)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown fabric %q\n", *fabric)
		os.Exit(2)
	}
	res, err := mixnet.Simulate(mixnet.SimConfig{
		Model: *model, Fabric: kind, Exec: exec,
		Overlap: *overlap, LinkGbps: *gbps, DP: *dp,
		FirstA2A: *mode, ReconfigDelaySec: *delay / 1e3,
		Iterations: *iters, Seed: *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	backendDesc := *backend
	if *cc != "" {
		backendDesc += " backend, " + *cc + " cc"
	} else {
		backendDesc += " backend"
	}
	if *overlap != "" && *overlap != "none" {
		backendDesc += ", overlap " + *overlap
	}
	fmt.Printf("%s on %v: %d GPUs across %d servers @%g Gbps (%s)\n",
		*model, kind, res.GPUs, res.Servers, *gbps, backendDesc)
	fmt.Printf("%-5s %-10s %-10s %-10s %-10s %-10s %s\n",
		"iter", "time(s)", "a2a(s)", "comp(s)", "blocked(s)", "dp(s)", "reconfigs")
	for _, s := range res.Stats {
		fmt.Printf("%-5d %-10.3f %-10.3f %-10.3f %-10.3f %-10.3f %d\n",
			s.Iter, s.Time, s.A2A, s.Compute, s.Blocked, s.DPTime, s.Reconfigs)
	}
	fmt.Printf("mean iteration time: %.3fs (A2A fraction %.0f%%)\n",
		res.MeanIterTime, res.Stats[len(res.Stats)-1].A2AFraction()*100)
}

// runTenants co-schedules n jobs on one shared fabric: the named model at
// the requested data parallelism plus n-1 DP-doubled neighbours, drained in
// merged frontiers on one shared backend. With -contend the per-tenant means
// are also priced against a solo serial-sum baseline.
func runTenants(n int, cfg tenancy.Config, model string, dp, iters int, seed int64, mode, overlap string) {
	if n < 2 {
		fmt.Fprintf(os.Stderr, "-tenants needs >= 2 jobs, got %d\n", n)
		os.Exit(2)
	}
	jobs := make([]tenancy.Job, n)
	for i := range jobs {
		d := dp
		if i > 0 {
			d = 2 * dp
		}
		jobs[i] = tenancy.Job{
			Name: fmt.Sprintf("t%d", i), Model: model, DP: d, Seed: seed + int64(i),
			FirstA2A: mode, Overlap: overlap, Base: tenancy.AutoBase,
		}
	}
	cs, err := tenancy.New(cfg, jobs)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := cs.Run(iters); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var solo *tenancy.CoSim
	if cfg.Contend || cfg.ArbiterSlots > 0 {
		solo, err = tenancy.RunSerial(cfg, jobs, iters)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	fmt.Printf("%d tenants on shared %s (%d servers, %s backend)\n",
		n, cfg.Fabric, len(cs.Cluster.Servers), cfg.BackendName())
	fmt.Printf("%-6s %-10s %-8s %-10s %-12s %-12s %s\n",
		"tenant", "model", "servers", "mean(s)", "blocked(s)", "reconfigs", "interference")
	for i, tr := range cs.Tenants {
		last := tr.Stats[len(tr.Stats)-1]
		inter := "-"
		if solo != nil {
			s := trainsim.MeanIterTime(solo.Tenants[i].Stats)
			if s > 0 {
				inter = fmt.Sprintf("%+.1f%%", (trainsim.MeanIterTime(tr.Stats)/s-1)*100)
			}
		}
		fmt.Printf("%-6s %-10s %-8d %-10.3f %-12.3f %-12d %s\n",
			tr.Job.Name, tr.Job.Model, tr.Servers,
			trainsim.MeanIterTime(tr.Stats), last.Blocked, last.Reconfigs, inter)
	}
	ms := cs.MergedStats()
	fmt.Printf("merged drain: %d frontiers, width max %d mean %.1f, fused steps %d\n",
		ms.Batches, ms.WidthMax, ms.WidthMean, ms.FusedSteps)
}

// runScenario drives the unified scenario runner: one named scenario on one
// backend, or the full scenario × backend matrix.
func runScenario(name, backendList string, cfg scenario.Config) {
	var results []scenario.Result
	var err error
	if name == "matrix" {
		var bs []string
		if backendList != "" {
			for _, b := range strings.Split(backendList, ",") {
				bs = append(bs, strings.TrimSpace(b))
			}
		}
		results, err = scenario.RunMatrix(nil, bs, cfg)
	} else {
		var r scenario.Result
		r, err = scenario.Run(name, cfg)
		results = append(results, r)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("%-12s %-14s %-8s %-12s %-12s %s\n",
		"scenario", "backend", "gpus", "iter(s)", "baseline(s)", "overhead")
	for _, r := range results {
		over := "-"
		base := "-"
		if r.IsDrill() {
			over = fmt.Sprintf("%+.1f%%", r.Overhead*100)
			base = fmt.Sprintf("%.3f", r.BaselineIterTime)
		}
		fmt.Printf("%-12s %-14s %-8d %-12.3f %-12s %s\n",
			r.Scenario, r.Backend, r.GPUs, r.MeanIterTime, base, over)
	}
}
