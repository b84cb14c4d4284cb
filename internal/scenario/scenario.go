// Package scenario unifies workload execution across the simulation
// backends: the same named scenarios — the synthetic gate, recorded-trace
// replay (internal/trace) and the §5.4 failure drills (internal/failure) —
// run unchanged on the fluid, packet or analytic substrate. Before this
// runner existed only the synthetic gate had been exercised at packet
// fidelity; now every scenario in the matrix is a one-call packet-level
// run, and cross-backend fidelity comparisons feed off identical workloads.
package scenario

import (
	"bytes"
	"fmt"
	"io"
	"math"

	"mixnet/internal/failure"
	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/ocs"
	"mixnet/internal/parallel"
	"mixnet/internal/tenancy"
	"mixnet/internal/topo"
	"mixnet/internal/trace"
	"mixnet/internal/trainsim"
)

// Config describes one scenario run. The zero value simulates "Mixtral
// 8x7B" on a MixNet fabric at 400 Gbps over the fluid backend.
type Config struct {
	// Model is a moe registry name (default "Mixtral 8x7B").
	Model string
	// Fabric selects the interconnect by CLI name: "fat-tree", "oversub",
	// "rail", "topoopt" or "mixnet" (the default — the only fabric with
	// runtime reconfiguration, so every drill in the matrix is meaningful).
	Fabric string
	// Config selects the netsim substrate ("fluid" by default, "packet",
	// "analytic" or "analytic-ecmp") and the packet backend's congestion
	// controller.
	netsim.Config
	// LinkGbps is the NIC line rate in Gbit/s (default 400).
	LinkGbps float64
	// DP replicates the model (default 1).
	DP int
	// Iterations per engine run (default 2).
	Iterations int
	// Seed drives the synthetic gate (and the recorded trace for replay).
	Seed int64
	// FirstA2A is "block" (default), "reuse" or "copilot".
	FirstA2A string
	// ReconfigDelaySec is the OCS reconfiguration latency (default 25 ms).
	ReconfigDelaySec float64
	// Trace optionally replaces the self-recorded trace in the "trace"
	// scenario with an external JSON-Lines recording.
	Trace io.Reader
	// Overlap is the compute/communication overlap discipline: "none"
	// (default, serial accounting), "layer" (computation joins the plan DAG
	// and each pipeline slot is priced by its critical path) or "iter"
	// ("layer" plus the rolling cross-iteration window that hides the DP
	// all-reduce behind the next iteration's prefetched dispatch). See
	// trainsim.Options.Overlap.
	Overlap string
}

// Result summarises one scenario run on one backend.
type Result struct {
	Scenario, Backend string
	GPUs, Servers     int
	Iterations        int
	// MeanIterTime is the warm mean iteration time of the (faulty, for
	// drills) engine in seconds.
	MeanIterTime float64
	// BaselineIterTime is the clean engine's mean for failure drills
	// (0 for non-drill scenarios).
	BaselineIterTime float64
	// Overhead is MeanIterTime/BaselineIterTime - 1 for failure drills.
	Overhead float64
}

// IsDrill reports whether the result came from a failure-injection scenario.
func (r Result) IsDrill() bool { return r.BaselineIterTime > 0 }

// Scenario names, in matrix order.
const (
	Synthetic  = "synthetic"   // gate-simulator-driven training iterations
	TraceName  = "trace"       // recorded-trace replay through internal/trace
	FailNIC    = "fail-nic"    // one EPS NIC down on a group server
	FailGPU    = "fail-gpu"    // one GPU remapped to a backup server
	FailServer = "fail-server" // whole server replaced from the backup pool
	// Multi-failure compositions: injectors stack and unwind in reverse,
	// so the drill measures the combined overhead.
	FailNICGPU    = "fail-nic+fail-gpu"    // EPS NIC down on server 0 + GPU remapped off-host
	FailServerNIC = "fail-server+fail-nic" // server 0 replaced + EPS NIC down on server 1
	// CopilotDrill replays the fail-gpu drill with proactive Copilot
	// reconfiguration (§B.1): both the clean baseline and the faulty run
	// use predicted circuits, so the overhead isolates the failure, not the
	// first-A2A policy.
	CopilotDrill = "copilot-drill"
	// CoTenant co-schedules cfg.Model beside a DP-heavy neighbour (the same
	// model at twice the data parallelism, different seed) on one shared
	// fabric with contention pricing: the result's MeanIterTime is the
	// primary tenant's contended mean, the baseline its solo serial-sum
	// mean, and Overhead the cross-tenant interference inflation. Both
	// co-tenant entries need the fluid or packet backend.
	CoTenant = "co-tenant"
	// CoTenantSteal is the cross-tenant failure drill: in the contended
	// co-simulation the primary tenant loses its first server and its
	// replacement is stolen from inside the neighbour's slice. The result
	// measures the NEIGHBOUR's inflation against the clean contended co-sim
	// — the collateral cost of someone else's repair.
	CoTenantSteal = "co-tenant-steal"
)

// Names lists the runnable scenarios in matrix order.
func Names() []string {
	return []string{Synthetic, TraceName, FailNIC, FailGPU, FailServer, FailNICGPU, FailServerNIC, CopilotDrill, CoTenant, CoTenantSteal}
}

// WithDefaults returns the configuration with the package defaults filled
// in — the canonical form. Exported for callers that key caches on a
// configuration (the query service's engine pool): two configs describing
// the same run canonicalize to the same value. Only MixNet reconfigures,
// so on every other fabric a valid FirstA2A and ReconfigDelaySec, which
// change nothing there, canonicalize to their defaults; invalid ones are
// kept for validation to reject.
func (c Config) WithDefaults() Config { return c.withDefaults() }

func (c Config) withDefaults() Config {
	if c.Model == "" {
		c.Model = moe.Mixtral8x7B.Name
	}
	if c.Fabric == "" {
		c.Fabric = "mixnet"
	}
	if c.Backend == "" {
		c.Backend = netsim.DefaultName
	}
	if c.CC == "" {
		c.CC = "fixed"
	}
	if c.LinkGbps == 0 {
		c.LinkGbps = 400
	}
	if c.DP == 0 {
		c.DP = 1
	}
	if c.Iterations == 0 {
		c.Iterations = 2
	}
	if c.FirstA2A == "" {
		c.FirstA2A = "block"
	}
	if c.ReconfigDelaySec == 0 {
		c.ReconfigDelaySec = 25e-3
	}
	if c.Overlap == "" {
		c.Overlap = "none"
	}
	if c.Fabric != "mixnet" {
		if _, err := trainsim.ParseFirstA2A(c.FirstA2A); err == nil {
			c.FirstA2A = "block"
		}
		if c.ReconfigDelaySec >= 0 && !math.IsInf(c.ReconfigDelaySec, 1) {
			c.ReconfigDelaySec = 25e-3
		}
	}
	return c
}

// Validate rejects numeric settings no run can mean: a negative iteration
// count, a link rate that is not a positive finite number, or a negative or
// infinite reconfiguration delay (zero values take the defaults). Negative
// data parallelism fails model resolution (moe.PlanFor).
func (c Config) Validate() error {
	switch {
	case c.Iterations < 0:
		return fmt.Errorf("scenario: %d iterations", c.Iterations)
	case !(c.LinkGbps >= 0) || math.IsInf(c.LinkGbps, 1):
		return fmt.Errorf("scenario: link rate %g Gbps, want a finite rate > 0", c.LinkGbps)
	case !(c.ReconfigDelaySec >= 0) || math.IsInf(c.ReconfigDelaySec, 1):
		return fmt.Errorf("scenario: reconfiguration delay %gs, want a finite delay >= 0", c.ReconfigDelaySec)
	}
	return nil
}

// modelPlan resolves the model and its training plan with DP applied
// (moe.PlanFor — the resolution every entry point shares).
func modelPlan(cfg Config) (moe.Model, moe.TrainPlan, error) {
	return moe.PlanFor(cfg.Model, cfg.DP)
}

// buildCluster constructs the configured fabric sized for plan.
func buildCluster(cfg Config, plan moe.TrainPlan) (*topo.Cluster, error) {
	kind, ok := topo.Fabrics()[cfg.Fabric]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown fabric %q", cfg.Fabric)
	}
	spec := topo.DefaultSpec(plan.GPUs()/8, cfg.LinkGbps*topo.Gbps)
	spec.RegionServers = parallel.RegionServersPerEPGroup(plan, spec.GPUsPerServer)
	return topo.Build(kind, spec)
}

// NewEngine builds the training engine a Config describes, defaults
// applied — the single construction path shared by mixnet.Simulate and the
// scenario runner, so the two entry points cannot drift apart on cluster
// sizing, region spans, or OCS wiring.
func NewEngine(cfg Config) (*trainsim.Engine, error) {
	return newEngine(cfg.withDefaults(), nil)
}

// newEngine builds one training engine for cfg, optionally replacing the
// synthetic gate with another iteration source.
func newEngine(cfg Config, src trainsim.IterationSource) (*trainsim.Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mode, err := trainsim.ParseFirstA2A(cfg.FirstA2A)
	if err != nil {
		return nil, err
	}
	m, plan, err := modelPlan(cfg)
	if err != nil {
		return nil, err
	}
	c, err := buildCluster(cfg, plan)
	if err != nil {
		return nil, err
	}
	opts := trainsim.Options{
		GateSeed: cfg.Seed, Config: cfg.Config, Overlap: cfg.Overlap, Source: src,
	}
	if cfg.Fabric == "mixnet" {
		opts.Device = ocs.NewFixedDevice(cfg.ReconfigDelaySec)
		opts.FirstA2A = mode
	}
	return trainsim.New(m, plan, c, opts)
}

// recordTrace runs the synthetic gate alone and serialises cfg.Iterations
// iterations through internal/trace, returning a replayable source — the
// full capture → JSON Lines → replay round trip, not a shortcut through the
// in-memory structures.
func recordTrace(cfg Config) (*trace.ReplaySource, error) {
	m, plan, err := modelPlan(cfg)
	if err != nil {
		return nil, err
	}
	gate := moe.NewGateSim(m, plan, moe.DefaultGateConfig(cfg.Seed))
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for i := 0; i < cfg.Iterations; i++ {
		if err := w.WriteIteration(gate.Next()); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return trace.Load(&buf)
}

// runEngine builds and runs one engine, returning its stats-derived result.
func runEngine(cfg Config, name string, src trainsim.IterationSource) (Result, error) {
	e, err := newEngine(cfg, src)
	if err != nil {
		return Result{}, err
	}
	stats, err := e.Run(cfg.Iterations)
	if err != nil {
		return Result{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	return Result{
		Scenario: name, Backend: cfg.BackendName(),
		GPUs: e.Cluster.GPUCount(), Servers: len(e.Cluster.Servers),
		Iterations:   cfg.Iterations,
		MeanIterTime: trainsim.MeanIterTime(stats),
	}, nil
}

// drill measures a failure scenario: a clean engine and a faulty engine are
// built from identical configuration (same seed, so identical gate
// dynamics), the injector faults the second before running, and the result
// carries both means plus the §5.4 overhead metric. base, when non-nil,
// supplies a previously measured clean run of the same configuration (e.g.
// the matrix's synthetic result) so batched drills skip re-simulating it.
func drill(cfg Config, name string, base *Result, inject func(e *trainsim.Engine) (failure.Restore, error)) (Result, error) {
	var clean Result
	if base != nil {
		clean = *base
		clean.Scenario = name
	} else {
		var err error
		clean, err = runEngine(cfg, name, nil)
		if err != nil {
			return Result{}, err
		}
	}
	faulty, err := newEngine(cfg, nil)
	if err != nil {
		return Result{}, err
	}
	restore, err := inject(faulty)
	if err != nil {
		return Result{}, fmt.Errorf("scenario %s: inject: %w", name, err)
	}
	defer restore()
	stats, err := faulty.Run(cfg.Iterations)
	if err != nil {
		return Result{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	res := clean
	res.BaselineIterTime = clean.MeanIterTime
	res.MeanIterTime = trainsim.MeanIterTime(stats)
	if res.BaselineIterTime > 0 {
		res.Overhead = res.MeanIterTime/res.BaselineIterTime - 1
	}
	return res, nil
}

// Run executes one named scenario under cfg.
func Run(name string, cfg Config) (Result, error) {
	return run(name, cfg.withDefaults(), nil)
}

// Injector faults an engine before a drill run.
type Injector func(e *trainsim.Engine) (failure.Restore, error)

// injectNIC downs one EPS NIC on the given group server.
func injectNIC(server int) Injector {
	return func(e *trainsim.Engine) (failure.Restore, error) {
		return failure.FailEPSNICs(e.Cluster, server, 1)
	}
}

// injectGPU remaps the last TP rank of EP rank 0 to the backup-pool server.
func injectGPU(e *trainsim.Engine) (failure.Restore, error) {
	return failure.FailGPU(e, 0, e.Plan.TP-1, len(e.Cluster.Servers)-1)
}

// injectServer replaces group server 0 with the last server of the pool.
func injectServer(e *trainsim.Engine) (failure.Restore, error) {
	return failure.FailServer(e, 0, len(e.Cluster.Servers)-1)
}

// compose stacks injectors left to right; the combined restore unwinds in
// reverse order, and a failed injection unwinds whatever already applied.
func compose(injs ...Injector) Injector {
	return func(e *trainsim.Engine) (failure.Restore, error) {
		restores := make([]failure.Restore, 0, len(injs))
		unwind := func() {
			for i := len(restores) - 1; i >= 0; i-- {
				restores[i]()
			}
		}
		for _, inj := range injs {
			r, err := inj(e)
			if err != nil {
				unwind()
				return nil, err
			}
			restores = append(restores, r)
		}
		return unwind, nil
	}
}

// DrillInjector returns the injector the named failure drill applies to
// its faulty engine, or ok == false when name is not a drill. Callers that
// drill reused engines (the query service) apply it to a prepared engine
// and invoke the returned Restore afterwards; the semantics — which
// NIC/GPU/server fails, composition order, reverse-order unwind — are
// exactly the ones Run uses, so results are comparable byte for byte.
// CopilotDrill uses the same GPU fault as FailGPU; its distinguishing
// first-A2A policy is configuration, not injection (set FirstA2A to
// "copilot" as run does).
func DrillInjector(name string) (Injector, bool) {
	switch name {
	case FailNIC:
		return injectNIC(0), true
	case FailGPU:
		return injectGPU, true
	case FailServer:
		return injectServer, true
	case FailNICGPU:
		return compose(injectNIC(0), injectGPU), true
	case FailServerNIC:
		// The NIC fault lands on server 1: server 0 just left the group, so
		// the composition stresses EPS redundancy on a surviving server
		// while the replacement server is reachable over EPS only.
		return compose(injectServer, injectNIC(1)), true
	case CopilotDrill:
		return injectGPU, true
	}
	return nil, false
}

// tenancyConfig maps a scenario configuration onto the multi-tenant
// runner's, with contention pricing on: the co-tenant entries exist to put
// numbers on shared-link interference, not to showcase the identity mode.
func tenancyConfig(cfg Config) tenancy.Config {
	return tenancy.Config{
		Fabric: cfg.Fabric, Config: cfg.Config, LinkGbps: cfg.LinkGbps,
		ReconfigDelaySec: cfg.ReconfigDelaySec, Contend: true,
	}
}

// coTenantJobs pairs cfg.Model with a DP-heavy neighbour: the same model
// at twice the data parallelism under a different gate seed, auto-packed
// onto the next region slice. Same model ⇒ same EP-group span, so the pair
// co-locates on reconfigurable fabrics.
func coTenantJobs(cfg Config) []tenancy.Job {
	return []tenancy.Job{
		{Name: "primary", Model: cfg.Model, DP: cfg.DP, Seed: cfg.Seed,
			FirstA2A: cfg.FirstA2A, Overlap: cfg.Overlap, Base: tenancy.AutoBase},
		{Name: "secondary", Model: cfg.Model, DP: 2 * cfg.DP, Seed: cfg.Seed + 1,
			FirstA2A: cfg.FirstA2A, Overlap: cfg.Overlap, Base: tenancy.AutoBase},
	}
}

// runCoTenant measures cross-tenant interference: the primary tenant's
// contended co-sim mean against its solo serial-sum mean.
func runCoTenant(cfg Config, name string) (Result, error) {
	jobs := coTenantJobs(cfg)
	cs, err := tenancy.New(tenancyConfig(cfg), jobs)
	if err != nil {
		return Result{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	if err := cs.Run(cfg.Iterations); err != nil {
		return Result{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	solo, err := tenancy.RunSerial(tenancyConfig(cfg), jobs, cfg.Iterations)
	if err != nil {
		return Result{}, fmt.Errorf("scenario %s: solo baseline: %w", name, err)
	}
	res := Result{
		Scenario: name, Backend: cfg.BackendName(),
		GPUs: cs.Cluster.GPUCount(), Servers: len(cs.Cluster.Servers),
		Iterations:       cfg.Iterations,
		MeanIterTime:     trainsim.MeanIterTime(cs.Tenant("primary").Stats),
		BaselineIterTime: trainsim.MeanIterTime(solo.Tenant("primary").Stats),
	}
	if res.BaselineIterTime > 0 {
		res.Overhead = res.MeanIterTime/res.BaselineIterTime - 1
	}
	return res, nil
}

// runCoTenantSteal prices the collateral damage of a cross-tenant repair:
// the primary tenant's first server fails and its backup is the last
// server of the NEIGHBOUR's slice, so the neighbour's links now also carry
// the primary's detoured traffic. Reported is the neighbour's inflation
// over the clean contended co-sim.
func runCoTenantSteal(cfg Config, name string) (Result, error) {
	jobs := coTenantJobs(cfg)
	clean, err := tenancy.New(tenancyConfig(cfg), jobs)
	if err != nil {
		return Result{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	if err := clean.Run(cfg.Iterations); err != nil {
		return Result{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	faulty, err := tenancy.New(tenancyConfig(cfg), jobs)
	if err != nil {
		return Result{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	p, s := faulty.Tenant("primary"), faulty.Tenant("secondary")
	stolen := s.BaseServer + s.Servers - 1
	restore, err := failure.FailServer(p.Engine, p.BaseServer, stolen)
	if err != nil {
		return Result{}, fmt.Errorf("scenario %s: inject: %w", name, err)
	}
	defer restore()
	if err := faulty.Run(cfg.Iterations); err != nil {
		return Result{}, fmt.Errorf("scenario %s: %w", name, err)
	}
	res := Result{
		Scenario: name, Backend: cfg.BackendName(),
		GPUs: faulty.Cluster.GPUCount(), Servers: len(faulty.Cluster.Servers),
		Iterations:       cfg.Iterations,
		MeanIterTime:     trainsim.MeanIterTime(s.Stats),
		BaselineIterTime: trainsim.MeanIterTime(clean.Tenant("secondary").Stats),
	}
	if res.BaselineIterTime > 0 {
		res.Overhead = res.MeanIterTime/res.BaselineIterTime - 1
	}
	return res, nil
}

// run executes one scenario; base optionally supplies a memoized clean run
// of the same configuration for the failure drills.
func run(name string, cfg Config, base *Result) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	switch name {
	case Synthetic:
		return runEngine(cfg, name, nil)
	case TraceName:
		var src *trace.ReplaySource
		var err error
		if cfg.Trace != nil {
			src, err = trace.Load(cfg.Trace)
		} else {
			src, err = recordTrace(cfg)
		}
		if err != nil {
			return Result{}, err
		}
		return runEngine(cfg, name, src)
	case CoTenant:
		return runCoTenant(cfg, name)
	case CoTenantSteal:
		return runCoTenantSteal(cfg, name)
	}
	inj, ok := DrillInjector(name)
	if !ok {
		return Result{}, fmt.Errorf("scenario: unknown scenario %q (have %v)", name, Names())
	}
	if name == CopilotDrill {
		// Both the baseline and the faulty engine run under Copilot
		// first-A2A handling; the memoized block-mode baseline does not
		// apply, so the drill measures its own clean run.
		cfg.FirstA2A = "copilot"
		base = nil
	}
	return drill(cfg, name, base, inj)
}

// RunMatrix runs every (scenario, backend) combination and returns results
// in scenario-major order. Empty slices default to the full scenario set
// and the configured backend. The default set leaves out the co-tenant
// pair on backends that cannot price contention (no per-flow completion
// times, netsim.FlowTimes); naming them there is an error. The clean engine
// run is measured once per backend and shared: the synthetic scenario's
// result (or an on-demand equivalent) is the failure drills' baseline, so
// N drills cost N faulty runs plus one clean run instead of N+1 clean runs.
func RunMatrix(scenarios, backends []string, cfg Config) ([]Result, error) {
	defaulted := len(scenarios) == 0
	if defaulted {
		scenarios = Names()
	}
	if len(backends) == 0 {
		backends = []string{cfg.Backend}
	}
	// Drills sharing the block-mode clean baseline; copilot-drill measures
	// its own baseline (different first-A2A policy), so it is excluded.
	isDrill := func(name string) bool {
		_, ok := DrillInjector(name)
		return ok && name != CopilotDrill
	}
	clean := map[string]*Result{} // backend -> memoized clean run
	out := make([]Result, 0, len(scenarios)*len(backends))
	for _, sc := range scenarios {
		for _, b := range backends {
			c := cfg
			c.Backend = b
			c = c.withDefaults()
			if defaulted && (sc == CoTenant || sc == CoTenantSteal) && !netsim.FlowTimes(c.BackendName()) {
				continue
			}
			base := clean[b]
			if isDrill(sc) && base == nil {
				r, err := runEngine(c, Synthetic, nil)
				if err != nil {
					return out, fmt.Errorf("%s/%s: baseline: %w", sc, c.BackendName(), err)
				}
				base = &r
				clean[b] = base
			}
			r, err := run(sc, c, base)
			if err != nil {
				return out, fmt.Errorf("%s/%s: %w", sc, c.BackendName(), err)
			}
			if sc == Synthetic && clean[b] == nil {
				memo := r
				clean[b] = &memo
			}
			out = append(out, r)
		}
	}
	return out, nil
}
