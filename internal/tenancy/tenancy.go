// Package tenancy co-schedules N independent training jobs on one shared
// fabric (§9's multi-tenant story): each job is a full trainsim engine —
// its own model, parallelisation, gate seed and first-A2A policy — placed
// on a server slice of one cluster, with regional OCS domains isolated per
// tenant (topo.Cluster.IsolateTenants) and every iteration's communication
// plans drained together in merged cross-job frontiers on ONE shared netsim
// backend (commplan.MergedExec), one Makespan call per simulated step.
//
// Determinism: tenants are ordered canonically (by name) regardless of
// submission order, every engine builds its plan before any plan executes,
// and the merged drain visits (tenant, step) pairs in a fixed order —
// co-sim results are byte-identical run over run and across job submission
// orders. With contention pricing off, they are also bitwise identical to
// running each tenant alone on its slice (steps of different jobs never
// influence each other's simulations); Contend trades that identity for
// fidelity, co-simulating concurrent cross-tenant steps so shared-link
// interference is priced by the flows themselves.
//
// Disjoint slices do not imply disjoint links. On TopoOpt a tenant's
// traffic is forwarded through its neighbour's hosts, and on three-tier
// fat-trees (slices are not pod-aligned) tenants in one pod can share its
// core uplinks. Only Contend prices that.
package tenancy

import (
	"fmt"
	"math"
	"sort"

	"mixnet/internal/commplan"
	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/ocs"
	"mixnet/internal/parallel"
	"mixnet/internal/topo"
	"mixnet/internal/trainsim"
)

// Job describes one tenant's training job.
type Job struct {
	// Name identifies the tenant; names must be unique and non-empty and
	// define the canonical tenant order (sorted ascending), so co-sim
	// results are independent of the order jobs were submitted in.
	Name string
	// Model is a moe registry name (resolved via moe.PlanFor) unless
	// ModelSpec/PlanSpec override it with an explicit pairing.
	Model string
	// DP replicates the job's plan (0 keeps the registry plan's DP).
	DP int
	// Seed drives the job's synthetic gate.
	Seed int64
	// FirstA2A is "block" (default), "reuse" or "copilot"; checked on every
	// fabric, applied on mixnet only.
	FirstA2A string
	// Overlap is the job's compute/communication overlap discipline
	// (trainsim.Options.Overlap).
	Overlap string
	// Base pins the job's first server; negative (the default zero value is
	// taken as auto when < 0 — use AutoBase) packs jobs contiguously in
	// canonical order. Explicit bases may overlap on static fabrics
	// (time-shared gang scheduling); reconfigurable fabrics require
	// disjoint, region-aligned slices.
	Base int
	// ModelSpec/PlanSpec bypass the registry lookup — tests and custom
	// workloads supply an explicit model/plan pairing.
	ModelSpec *moe.Model
	PlanSpec  *moe.TrainPlan
}

// AutoBase packs the job after the previous tenant's slice.
const AutoBase = -1

// Config is the shared-fabric side of a co-simulation: everything the
// tenants have in common.
type Config struct {
	// Fabric selects the interconnect: "fat-tree", "oversub", "rail",
	// "topoopt" or "mixnet" (default).
	Fabric string
	// Config selects the shared netsim substrate every tenant's plan drains
	// on ("fluid" by default) and its congestion controller.
	netsim.Config
	// LinkGbps is the NIC line rate in Gbit/s (default 400).
	LinkGbps float64
	// ReconfigDelaySec is the OCS reconfiguration latency (default 25 ms).
	ReconfigDelaySec float64
	// Contend prices cross-tenant shared-link contention by co-simulating
	// concurrent steps of different tenants as one fused workload (see
	// commplan.MergedExec). Off, tenants reproduce their solo runs bitwise.
	// It needs the fluid or packet backend (netsim.FlowTimes); Run fails on
	// the analytic ones.
	Contend bool
	// ArbiterSlots bounds how many tenants' OCS reconfigurations the shared
	// control plane executes concurrently; 0 (default) is unlimited — no
	// arbitration, no cross-tenant reconfiguration waits. Negative is an
	// error.
	ArbiterSlots int
	// ArbiterPolicy grants reconfiguration windows "fair" (rotating
	// first-grant, the default) or by "priority" (canonical tenant order).
	ArbiterPolicy string
}

func (c Config) withDefaults() Config {
	if c.Fabric == "" {
		c.Fabric = "mixnet"
	}
	if c.Backend == "" {
		c.Backend = netsim.DefaultName
	}
	if c.LinkGbps == 0 {
		c.LinkGbps = 400
	}
	if c.ReconfigDelaySec == 0 {
		c.ReconfigDelaySec = 25e-3
	}
	if c.ArbiterPolicy == "" {
		c.ArbiterPolicy = PolicyFair
	}
	return c
}

// TenantRun is one tenant's engine, placement and accumulated results.
type TenantRun struct {
	Job        Job
	BaseServer int
	Servers    int
	// Regions lists the tenant's isolated OCS regions (nil on static
	// fabrics or overlapping placements).
	Regions []int
	Engine  *trainsim.Engine
	Stats   []trainsim.IterStats
}

// CoSim drives N tenants' engines through merged-frontier iterations on
// one shared fabric and backend.
type CoSim struct {
	Cluster *topo.Cluster
	// Tenants in canonical (name-sorted) order.
	Tenants []*TenantRun

	cfg     Config
	backend netsim.Backend
	merged  *commplan.MergedExec
	arb     *Arbiter
	plans   []*commplan.Plan
	logs    [][]float64
}

// resolved is one job's sized workload before engine construction.
type resolved struct {
	job     Job
	model   moe.Model
	plan    moe.TrainPlan
	span    int // EP-group server span (region size candidate)
	base    int
	servers int
}

// New builds a co-simulation: jobs are canonically ordered, sized and
// placed on one fabric large enough for all of them, tenant regions are
// isolated on reconfigurable fabrics, and one shared backend is created
// for the merged drain. The engines are untouched until Run/RunRound.
func New(cfg Config, jobs []Job) (*CoSim, error) {
	cfg = cfg.withDefaults()
	if len(jobs) == 0 {
		return nil, fmt.Errorf("tenancy: no jobs")
	}
	// The scenario runner's checks (scenario.Config.Validate; zero values
	// already took the defaults), plus the arbiter's slot count.
	switch {
	case !(cfg.LinkGbps > 0) || math.IsInf(cfg.LinkGbps, 1):
		return nil, fmt.Errorf("tenancy: link rate %g Gbps, want a finite rate > 0", cfg.LinkGbps)
	case !(cfg.ReconfigDelaySec >= 0) || math.IsInf(cfg.ReconfigDelaySec, 1):
		return nil, fmt.Errorf("tenancy: reconfiguration delay %gs, want a finite delay >= 0", cfg.ReconfigDelaySec)
	case cfg.ArbiterSlots < 0:
		return nil, fmt.Errorf("tenancy: %d arbiter slots, want >= 0", cfg.ArbiterSlots)
	}
	ordered := append([]Job(nil), jobs...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Name < ordered[j].Name })
	seen := map[string]bool{}
	for _, j := range ordered {
		if j.Name == "" {
			return nil, fmt.Errorf("tenancy: job with empty name")
		}
		if seen[j.Name] {
			return nil, fmt.Errorf("tenancy: duplicate job name %q", j.Name)
		}
		seen[j.Name] = true
	}
	kind, ok := topo.Fabrics()[cfg.Fabric]
	if !ok {
		return nil, fmt.Errorf("tenancy: unknown fabric %q", cfg.Fabric)
	}
	reconf := kind == topo.FabricMixNet
	gpusPerServer := topo.DefaultSpec(1, 1).GPUsPerServer

	rs := make([]resolved, len(ordered))
	next, total, span := 0, 0, 0
	for i, j := range ordered {
		r := resolved{job: j}
		if j.ModelSpec != nil && j.PlanSpec != nil {
			r.model, r.plan = *j.ModelSpec, *j.PlanSpec
			if j.DP > 0 {
				r.plan.DP = j.DP
			}
		} else {
			var err error
			r.model, r.plan, err = moe.PlanFor(j.Model, j.DP)
			if err != nil {
				return nil, fmt.Errorf("tenancy: job %q: %w", j.Name, err)
			}
		}
		if r.plan.GPUs()%gpusPerServer != 0 {
			return nil, fmt.Errorf("tenancy: job %q needs %d GPUs, not server-divisible by %d",
				j.Name, r.plan.GPUs(), gpusPerServer)
		}
		r.servers = r.plan.GPUs() / gpusPerServer
		r.span = parallel.RegionServersPerEPGroup(r.plan, gpusPerServer)
		if reconf {
			if span == 0 {
				span = r.span
			} else if r.span != span {
				return nil, fmt.Errorf("tenancy: job %q EP-group span %d servers, co-tenants use %d — "+
					"reconfigurable fabrics share one region size across tenants", j.Name, r.span, span)
			}
		}
		r.base = j.Base
		if r.base < 0 {
			r.base = next
		}
		if end := r.base + r.servers; end > total {
			total = end
		}
		if n := r.base + r.servers; n > next {
			next = n
		}
		rs[i] = r
	}
	if span == 0 {
		span = rs[0].span
	}
	for i, r := range rs {
		if reconf {
			if r.base%span != 0 {
				return nil, fmt.Errorf("tenancy: job %q base %d not aligned to %d-server regions",
					r.job.Name, r.base, span)
			}
			for k := 0; k < i; k++ {
				if r.base < rs[k].base+rs[k].servers && rs[k].base < r.base+r.servers {
					return nil, fmt.Errorf("tenancy: jobs %q and %q overlap on a reconfigurable fabric — "+
						"tenant isolation needs disjoint region slices", rs[k].job.Name, r.job.Name)
				}
			}
		}
	}

	spec := topo.DefaultSpec(total, cfg.LinkGbps*topo.Gbps)
	spec.RegionServers = span
	cluster, err := topo.Build(kind, spec)
	if err != nil {
		return nil, fmt.Errorf("tenancy: %w", err)
	}

	cs := &CoSim{Cluster: cluster, cfg: cfg, merged: commplan.NewMergedExec()}
	cs.merged.Contend = cfg.Contend
	cs.backend, err = netsim.New(cfg.Config)
	if err != nil {
		return nil, fmt.Errorf("tenancy: %w", err)
	}
	if cfg.ArbiterSlots > 0 {
		cs.arb, err = NewArbiter(cfg.ArbiterSlots, cfg.ArbiterPolicy)
		if err != nil {
			return nil, err
		}
	}

	var tenants []topo.Tenant
	for _, r := range rs {
		t := &TenantRun{Job: r.job, BaseServer: r.base, Servers: r.servers}
		if reconf {
			for reg := r.base / span; reg < (r.base+r.servers)/span; reg++ {
				t.Regions = append(t.Regions, reg)
			}
			tenants = append(tenants, topo.Tenant{Name: r.job.Name, Regions: t.Regions})
		}
		cs.Tenants = append(cs.Tenants, t)
	}
	if reconf {
		if _, err := cluster.IsolateTenants(tenants); err != nil {
			return nil, fmt.Errorf("tenancy: %w", err)
		}
	}
	for i, r := range rs {
		opts := trainsim.Options{
			GateSeed: r.job.Seed, Config: cfg.Config, Overlap: r.job.Overlap,
			BaseServer: r.base, Servers: r.servers,
		}
		mode, err := trainsim.ParseFirstA2A(r.job.FirstA2A)
		if err != nil {
			return nil, fmt.Errorf("tenancy: job %q: %w", r.job.Name, err)
		}
		if reconf {
			opts.Device = ocs.NewFixedDevice(cfg.ReconfigDelaySec)
			opts.FirstA2A = mode
		}
		e, err := trainsim.New(r.model, r.plan, cluster, opts)
		if err != nil {
			return nil, fmt.Errorf("tenancy: job %q: %w", r.job.Name, err)
		}
		cs.Tenants[i].Engine = e
	}
	cs.plans = make([]*commplan.Plan, len(cs.Tenants))
	cs.logs = make([][]float64, len(cs.Tenants))
	return cs, nil
}

// RunRound advances every tenant by one iteration: all engines build their
// plans (pass 1, serial in canonical order — Algorithm 1 mutates only the
// owning tenant's regions), the arbiter (if bounded) prices each tenant's
// wait for a shared reconfiguration window, the merged executor drains all
// plans on the shared backend, and every engine's accounting pass runs.
// Per-tenant stats append to TenantRun.Stats.
func (cs *CoSim) RunRound() error {
	for _, t := range cs.Tenants {
		if err := t.Engine.BeginIteration(); err != nil {
			return fmt.Errorf("tenancy: job %q: %w", t.Job.Name, err)
		}
	}
	if cs.arb != nil {
		for i, t := range cs.Tenants {
			cs.logs[i] = t.Engine.ReconfigDelays()
		}
		waits := cs.arb.Round(cs.logs)
		for i, t := range cs.Tenants {
			if err := t.Engine.ChargeExtraBlocked(waits[i]); err != nil {
				return err
			}
		}
	}
	for i, t := range cs.Tenants {
		cs.plans[i] = t.Engine.CommPlan()
	}
	if err := cs.merged.Execute(cs.Cluster.G, cs.backend, cs.plans); err != nil {
		return fmt.Errorf("tenancy: merged drain: %w", err)
	}
	for _, t := range cs.Tenants {
		st, err := t.Engine.FinishIteration()
		if err != nil {
			return fmt.Errorf("tenancy: job %q: %w", t.Job.Name, err)
		}
		t.Stats = append(t.Stats, st)
	}
	return nil
}

// Run advances every tenant by iters iterations; a negative count is an
// error, as in trainsim.Engine.Run.
func (cs *CoSim) Run(iters int) error {
	if iters < 0 {
		return fmt.Errorf("tenancy: %d iterations", iters)
	}
	for i := 0; i < iters; i++ {
		if err := cs.RunRound(); err != nil {
			return err
		}
	}
	return nil
}

// MergedStats returns the merged executor's cumulative frontier counters —
// the widths of the merged cross-job rounds the shared backend priced.
func (cs *CoSim) MergedStats() commplan.MergedStats { return cs.merged.Stats() }

// Tenant returns the named tenant's run, or nil.
func (cs *CoSim) Tenant(name string) *TenantRun {
	for _, t := range cs.Tenants {
		if t.Job.Name == name {
			return t
		}
	}
	return nil
}

// RunSerial is the serial-sum reference: an identically constructed
// co-simulation whose tenants run one after another, each engine draining
// its own plans on its own backend (trainsim.Engine.RunIteration) with the
// fabric to itself — no merged frontiers, no arbitration, no contention.
// With Contend off, CoSim.Run reproduces these results bitwise.
func RunSerial(cfg Config, jobs []Job, iters int) (*CoSim, error) {
	solo := cfg
	solo.Contend = false
	solo.ArbiterSlots = 0
	cs, err := New(solo, jobs)
	if err != nil {
		return nil, err
	}
	for _, t := range cs.Tenants {
		stats, err := t.Engine.Run(iters)
		if err != nil {
			return nil, fmt.Errorf("tenancy: job %q: %w", t.Job.Name, err)
		}
		t.Stats = stats
	}
	return cs, nil
}
