package experiments

import (
	"fmt"
	"math"
	"math/rand"

	"mixnet/internal/flowsim"
	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/ocs"
	"mixnet/internal/packetsim"
	"mixnet/internal/topo"
	"mixnet/internal/trainsim"
)

// Ablations measure the design decisions called out in DESIGN.md §5.

// AblationGreedyVsUniform compares Algorithm 1's bottleneck-driven circuit
// allocation against demand-oblivious round-robin circuits, and the strict
// versus relaxed break semantics.
func AblationGreedyVsUniform(scale Scale) (Table, error) {
	t := Table{
		ID: "abl_greedy", Title: "Ablation: circuit allocation policy (Mixtral 8x7B, 100G)",
		Header: []string{"Policy", "Iter time (s)", "Normalised"},
	}
	m := moe.Mixtral8x7B
	plan := planFor(m, Quick, 0)
	servers := plan.GPUs() / 8
	iters := itersFor(scale)

	// Greedy (relaxed break — the default).
	c := buildCluster(topo.FabricMixNet, servers, 100*topo.Gbps, plan)
	greedy, err := meanIterTime(m, plan, c, mixnetOpts(61), iters)
	if err != nil {
		return t, err
	}
	// Greedy with the literal Algorithm 1 break.
	c = buildCluster(topo.FabricMixNet, servers, 100*topo.Gbps, plan)
	strictOpts := mixnetOpts(61)
	strictOpts.StrictBreak = true
	strict, err := meanIterTime(m, plan, c, strictOpts, iters)
	if err != nil {
		return t, err
	}
	// Uniform: never reconfigure away from the round-robin topology.
	c = buildCluster(topo.FabricMixNet, servers, 100*topo.Gbps, plan)
	uniformOpts := trainsim.Options{GateSeed: 61, FirstA2A: trainsim.FirstA2AReuse}
	uniform, err := meanIterTime(m, plan, c, uniformOpts, iters)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		[]string{"greedy (relaxed break)", f3(greedy), f2(greedy / greedy)},
		[]string{"greedy (strict break)", f3(strict), f2(strict / greedy)},
		[]string{"uniform round-robin", f3(uniform), f2(uniform / greedy)},
	)
	return t, nil
}

// AblationFirstA2A compares the three §5.1 strategies for the forward
// pass's first all-to-all: block, reuse and Copilot.
func AblationFirstA2A(scale Scale) (Table, error) {
	t := Table{
		ID: "abl_firsta2a", Title: "Ablation: first-A2A handling (Mixtral 8x7B, 100G)",
		Header: []string{"Mode", "Iter time (s)", "Blocked/iter (ms)"},
	}
	m := moe.Mixtral8x7B
	plan := planFor(m, Quick, 0)
	servers := plan.GPUs() / 8
	iters := itersFor(scale) + 1
	for _, mode := range []trainsim.FirstA2AMode{trainsim.FirstA2ABlock, trainsim.FirstA2AReuse, trainsim.FirstA2ACopilot} {
		c := buildCluster(topo.FabricMixNet, servers, 100*topo.Gbps, plan)
		opts := mixnetOpts(67)
		opts.FirstA2A = mode
		e, err := newEngine(m, plan, c, opts)
		if err != nil {
			return t, err
		}
		stats, err := e.Run(iters)
		if err != nil {
			return t, err
		}
		var blocked float64
		for _, s := range stats[1:] {
			blocked += s.Blocked
		}
		blocked /= float64(len(stats) - 1)
		t.Rows = append(t.Rows, []string{
			mode.String(), f3(trainsim.MeanIterTime(stats)), fmt.Sprintf("%.1f", blocked*1e3),
		})
	}
	return t, nil
}

// AblationRegionalVsGlobal contrasts MixNet's regional OCS domains with a
// hypothetical single global OCS: the global switch needs enough ports for
// every server (breaking the Table 2 port/agility trade-off) and serialises
// control across EP groups, scaling its effective reconfiguration delay
// with the number of regions it absorbs.
func AblationRegionalVsGlobal(scale Scale) (Table, error) {
	t := Table{
		ID: "abl_regional", Title: "Ablation: regional vs global reconfiguration (Mixtral 8x7B, 100G)",
		Header: []string{"Design", "OCS ports needed", "Iter time (s)"},
		Notes:  "global control serialises region reconfigurations (§4.2)",
	}
	m := moe.Mixtral8x7B
	plan := planFor(m, Full, 1024) // several regions
	servers := plan.GPUs() / 8
	regions := servers / 4 // EP span of Mixtral 8x7B = 4 servers
	iters := itersFor(scale)

	c := buildCluster(topo.FabricMixNet, servers, 100*topo.Gbps, plan)
	regional, err := meanIterTime(m, plan, c, mixnetOpts(71), iters)
	if err != nil {
		return t, err
	}
	// Global: one controller sequences all regions — model as the regional
	// engine with the block delay scaled by the region count.
	cg := buildCluster(topo.FabricMixNet, servers, 100*topo.Gbps, plan)
	gopts := mixnetOpts(71)
	gopts.Device = ocs.NewFixedDevice(25e-3 * float64(regions))
	global, err := meanIterTime(m, plan, cg, gopts, iters)
	if err != nil {
		return t, err
	}
	perRegionPorts := 4 * 6 // 4 servers x 6 OCS NICs
	t.Rows = append(t.Rows,
		[]string{"regional (MixNet)", fmt.Sprintf("%d x %d", regions, perRegionPorts), f3(regional)},
		[]string{"single global OCS", fmt.Sprint(regions * perRegionPorts), f3(global)},
	)
	return t, nil
}

// AblationNUMAPermute measures Algorithm 1 step 4: NUMA-balanced NIC
// permutation versus packing parallel circuits onto one NUMA hub.
func AblationNUMAPermute() (Table, error) {
	t := Table{
		ID: "abl_numa", Title: "Ablation: NUMA-balanced NIC mapping (hot pair, 3 circuits)",
		Header: []string{"Mapping", "A2A makespan (ms)"},
		Notes:  "unbalanced mapping congests one PCIe/NUMA hub (§5.2 step 4)",
	}
	spec := topo.DefaultSpec(8, 100*topo.Gbps)
	run := func(balanced bool) (float64, error) {
		c := topo.BuildMixNet(spec)
		s0 := c.Server(0).OCSNICs()
		s1 := c.Server(1).OCSNICs()
		pick := func(nics []topo.NIC) []topo.NIC {
			if balanced {
				return nics // builder alternates NUMA by index
			}
			// Pack onto one hub.
			var same []topo.NIC
			for _, n := range nics {
				if n.NUMA == nics[0].NUMA {
					same = append(same, n)
				}
			}
			return same
		}
		a, b := pick(s0), pick(s1)
		n := 3
		if len(a) < n || len(b) < n {
			n = int(math.Min(float64(len(a)), float64(len(b))))
		}
		var pairs []topo.CircuitPair
		for i := 0; i < n; i++ {
			pairs = append(pairs, topo.CircuitPair{A: a[i].Node, B: b[i].Node})
		}
		if err := c.SetRegionCircuits(0, pairs); err != nil {
			return 0, err
		}
		// Drive the circuits at full tilt from one delegate per circuit.
		r := topo.NewBFSRouter(c.G)
		var flows []*flowsim.Flow
		for i, p := range pairs {
			srcGPU := c.Server(0).GPUs[i]
			dstGPU := c.Server(1).GPUs[i]
			head, err := r.Route(srcGPU, p.A, uint64(i))
			if err != nil {
				return 0, err
			}
			mid, err := r.Route(p.A, p.B, uint64(i))
			if err != nil {
				return 0, err
			}
			tail, err := r.Route(p.B, dstGPU, uint64(i))
			if err != nil {
				return 0, err
			}
			path := append(append(append(topo.Route{}, head...), mid...), tail...)
			flows = append(flows, &flowsim.Flow{ID: i, Path: path, Bytes: 1e9})
		}
		return flowsim.Makespan(c.G, flows), nil
	}
	bal, err := run(true)
	if err != nil {
		return t, err
	}
	unbal, err := run(false)
	if err != nil {
		return t, err
	}
	t.Rows = append(t.Rows,
		[]string{"NUMA-balanced", fmt.Sprintf("%.1f", bal*1e3)},
		[]string{"single-hub packed", fmt.Sprintf("%.1f", unbal*1e3)},
	)
	return t, nil
}

// ccScenario is one abl_cc traffic pattern compiled to neutral phases over
// its own cluster graph.
type ccScenario struct {
	name   string
	g      *topo.Graph
	phases netsim.Phases
}

// ccIncastScenarios builds the incast patterns where packet and fluid
// diverge most (the paper's all-to-all dispatch skew): elephants pour into
// a hot destination while short residual transfers arrive mid-incast and
// must cross the hot port's standing queue. Under the fixed window every
// elephant parks Window packets in that queue, so a late short waits
// behind megabytes it would never see at its fluid max-min share —
// exactly the head-of-line divergence an ECN/delay controller removes by
// keeping the queue near its marking threshold.
func ccIncastScenarios() ([]ccScenario, error) {
	var out []ccScenario

	// Fabric incast: servers 1..7 pour 32 MB each into server 0 over the
	// fat-tree (ECMP spreads the elephants over server 0's NICs); 64 KB
	// shorts from a second GPU per server join 2 ms in.
	c := topo.BuildFatTree(topo.DefaultSpec(8, 100*topo.Gbps))
	r := topo.NewBFSRouter(c.G)
	var fs []*netsim.Flow
	id := 0
	for s := 1; s < 8; s++ {
		rt, err := r.Route(c.GPU(s, 0), c.GPU(0, 0), uint64(id))
		if err != nil {
			return nil, err
		}
		fs = append(fs, &netsim.Flow{ID: id, Path: rt, Bytes: 32 << 20})
		id++
	}
	for s := 1; s < 7; s++ {
		rt, err := r.Route(c.GPU(s, 1), c.GPU(0, 0), uint64(id))
		if err != nil {
			return nil, err
		}
		fs = append(fs, &netsim.Flow{ID: id, Path: rt, Bytes: 64 << 10, Start: 2e-3})
		id++
	}
	out = append(out, ccScenario{name: "fat-tree-incast+late-shorts", g: c.G, phases: netsim.Phases{fs}})

	// Hot-port incast: a star forces every flow through one output queue —
	// the worst case, with no ECMP relief valve.
	g := topo.NewGraph()
	dst := g.AddNode(topo.KindNIC, "", -1, -1, -1)
	sw := g.AddNode(topo.KindTor, "", -1, -1, -1)
	g.AddDuplex(sw, dst, 100*topo.Gbps, 1e-6)
	var fs2 []*netsim.Flow
	id2 := 0
	addStar := func(bytes float64, start float64) error {
		src := g.AddNode(topo.KindNIC, "", -1, -1, -1)
		g.AddDuplex(src, sw, 100*topo.Gbps, 1e-6)
		rt, err := topo.NewBFSRouter(g).Route(src, dst, uint64(id2))
		if err != nil {
			return err
		}
		fs2 = append(fs2, &netsim.Flow{ID: id2, Path: rt, Bytes: bytes, Start: start})
		id2++
		return nil
	}
	for i := 0; i < 7; i++ {
		if err := addStar(32<<20, 0); err != nil {
			return nil, err
		}
	}
	for i := 0; i < 6; i++ {
		if err := addStar(64<<10, 2e-3); err != nil {
			return nil, err
		}
	}
	out = append(out, ccScenario{name: "hot-port-incast+late-shorts", g: g, phases: netsim.Phases{fs2}})
	return out, nil
}

// AblationCongestionControl quantifies the incast-phase divergence between
// the fluid and packet backends under each congestion controller: the
// fixed window (historical baseline), DCQCN-style ECN marking, and
// Swift-style delay targeting. Divergence is reported both as the phase
// makespan gap and as the mean per-flow completion-time (Finish - Start)
// gap — the latter is where fixed-window standing queues hurt most.
func AblationCongestionControl() (Table, error) {
	t := Table{
		ID: "abl_cc", Title: "Ablation: packet-backend congestion control on incast phases",
		Header: []string{"Scenario", "CC", "Fluid (ms)", "Packet (ms)", "Makespan gap", "Mean FCT gap"},
		Notes:  "gaps relative to fluid; fixed is the historical constant-window pacing",
	}
	scenarios, err := ccIncastScenarios()
	if err != nil {
		return t, err
	}
	for _, sc := range scenarios {
		fluidMs, err := netsim.NewFluid().Makespan(sc.g, sc.phases)
		if err != nil {
			return t, err
		}
		fluidFCT := make([]float64, 0, len(sc.phases[0]))
		for _, f := range sc.phases[0] {
			fluidFCT = append(fluidFCT, f.Finish-f.Start)
		}
		for _, cc := range packetsim.CCNames() {
			b, err := netsim.New(netsim.Config{Backend: "packet", CC: cc, Workers: defaults.Exec.Workers})
			if err != nil {
				return t, err
			}
			pktMs, err := b.Makespan(sc.g, sc.phases)
			if err != nil {
				return t, err
			}
			var fctGap float64
			for i, f := range sc.phases[0] {
				fctGap += math.Abs((f.Finish-f.Start)-fluidFCT[i]) / fluidFCT[i]
			}
			fctGap /= float64(len(fluidFCT))
			t.Rows = append(t.Rows, []string{
				sc.name, cc,
				fmt.Sprintf("%.2f", fluidMs*1e3),
				fmt.Sprintf("%.2f", pktMs*1e3),
				fmt.Sprintf("%.1f%%", math.Abs(pktMs-fluidMs)/fluidMs*100),
				fmt.Sprintf("%.1f%%", fctGap*100),
			})
		}
	}
	return t, nil
}

// AblationFluidVsPacket cross-validates every netsim backend on randomised
// single-region all-to-alls: identical netsim.Phases are fed through the
// shared Backend interface instead of constructing per-substrate flow sets,
// so any divergence is attributable to the models, not the input.
func AblationFluidVsPacket() (Table, error) {
	t := Table{
		ID: "abl_fluid", Title: "Ablation: simulation backend fidelity (fluid vs packet vs analytic vs analytic-ecmp)",
		Header: []string{"Scenario", "Fluid (ms)", "Packet (ms)", "Analytic (ms)", "Ecmp (ms)", "Pkt gap", "Ana gap", "Ecmp gap"},
		Notes:  "gaps relative to fluid; analytic is a lower bound (no max-min iteration), analytic-ecmp additionally spreads bytes over equal-cost paths",
	}
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 3; trial++ {
		c := topo.BuildMixNet(topo.DefaultSpec(4, 100*topo.Gbps))
		r := topo.NewBFSRouter(c.G)
		var fs []*netsim.Flow
		id := 0
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if i == j || rng.Float64() < 0.3 {
					continue
				}
				src, dst := c.GPU(i, 0), c.GPU(j, 0)
				rt, err := r.Route(src, dst, uint64(id))
				if err != nil {
					return t, err
				}
				bytes := (1 + rng.Int63n(32)) << 20
				fs = append(fs, &netsim.Flow{ID: id, Path: rt, Bytes: float64(bytes)})
				id++
			}
		}
		phases := netsim.Phases{fs}
		times := make(map[string]float64, 3)
		for _, name := range netsim.Names() {
			b, err := netsim.New(netsim.Config{Backend: name, Workers: defaults.Exec.Workers})
			if err != nil {
				return t, err
			}
			times[name], err = b.Makespan(c.G, phases)
			if err != nil {
				return t, err
			}
		}
		fm := times["fluid"]
		gap := func(v float64) string {
			return fmt.Sprintf("%.1f%%", math.Abs(v-fm)/math.Max(fm, 1e-12)*100)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("random-a2a-%d (%d flows)", trial, len(fs)),
			fmt.Sprintf("%.2f", fm*1e3),
			fmt.Sprintf("%.2f", times["packet"]*1e3),
			fmt.Sprintf("%.2f", times["analytic"]*1e3),
			fmt.Sprintf("%.2f", times["analytic-ecmp"]*1e3),
			gap(times["packet"]), gap(times["analytic"]), gap(times["analytic-ecmp"]),
		})
	}
	return t, nil
}
