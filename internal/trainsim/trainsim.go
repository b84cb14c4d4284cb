// Package trainsim is the end-to-end training-iteration engine: it executes
// the MoE task model (internal/dag) over a simulated fabric, running
// MixNet's monitor -> controller -> collective-manager loop each layer
// (Figure 7), with the reconfiguration blocking/hiding semantics of §5.1
// and §B.2, Copilot-driven proactive reconfiguration (§B.1), and failure
// hooks (§5.4).
//
// Fidelity/scale trade-off: the engine simulates one representative EP
// group (pipeline stage 0 of replica 0) at flow level and applies the 1F1B
// pipeline bound across stages. EP groups occupy disjoint regions/servers,
// so inter-group contention is second-order on every evaluated fabric; the
// shared-fabric DP all-reduce is simulated across all servers.
package trainsim

import (
	"fmt"
	"math"

	"mixnet/internal/collective"
	"mixnet/internal/commplan"
	"mixnet/internal/dag"
	"mixnet/internal/metrics"
	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/ocs"
	"mixnet/internal/parallel"
	"mixnet/internal/predict"
	"mixnet/internal/topo"
)

// FirstA2AMode selects how the forward pass's first all-to-all topology is
// obtained (§5.1).
type FirstA2AMode int

// First-A2A handling strategies.
const (
	// FirstA2ABlock reconfigures on exact demand, blocking the network for
	// the reconfiguration delay (the §7.1 simulation default, 25 ms).
	FirstA2ABlock FirstA2AMode = iota
	// FirstA2AReuse keeps the previous layer's topology (no block, stale
	// circuits).
	FirstA2AReuse
	// FirstA2ACopilot reconfigures proactively from the traffic-demand
	// prediction of §B.1 (no block, predicted circuits).
	FirstA2ACopilot
)

func (m FirstA2AMode) String() string {
	switch m {
	case FirstA2AReuse:
		return "reuse"
	case FirstA2ACopilot:
		return "copilot"
	default:
		return "block"
	}
}

// Options configures an Engine.
type Options struct {
	FirstA2A FirstA2AMode
	// Config selects the netsim substrate every collective is simulated on
	// ("fluid" by default; packet fidelity suits small configurations,
	// analytic suits huge sweeps) and the packet backend's congestion
	// controller.
	netsim.Config
	// Device models OCS reconfiguration latency; nil means no runtime
	// reconfiguration: the engine builds no OCS controller, so a MixNet
	// cluster keeps the circuits it was built with (electrical fabrics and
	// TopoOpt never reconfigure).
	Device *ocs.Device
	// Alpha caps the per-server optical degree (Figure 27); 0 = all NICs.
	Alpha int
	// StrictBreak selects Algorithm 1's literal break semantics.
	StrictBreak bool
	// Calib is the compute model; zero value means dag.A100().
	Calib dag.Calibration
	// GateSeed seeds the synthetic gate (moe.DefaultGateConfig).
	GateSeed int64
	// Source replaces the synthetic gate with another iteration source
	// (e.g. a recorded production trace via internal/trace).
	Source IterationSource
	// Overlap selects the compute/communication overlap discipline:
	//
	//   "none" (default) — serial accounting: every phase of a slot is
	//     summed, byte-identical to the historical tables;
	//   "layer" — computation joins the communication plan as zero-flow
	//     KindCompute steps with real dependency edges, and each pipeline
	//     slot is priced by the DAG's critical path, so layer k's combine
	//     all-to-all drains while layer k+1's attention computes and
	//     reconfiguration residuals hide under attention;
	//   "iter" — "layer" plus a rolling cross-iteration window: the next
	//     iteration's gate outcome is peeked, its layer-0 reconfiguration
	//     and dispatch all-to-all are appended to the current plan (fusing
	//     with the DP all-reduce in one backend drain), and only the DP
	//     residual that the prefetched window cannot hide is charged.
	Overlap string
	// BaseServer and Servers place the job on the server slice
	// [BaseServer, BaseServer+Servers) instead of the whole cluster, so
	// several engines can share one fabric (internal/tenancy). Servers == 0
	// keeps the historical whole-cluster placement (BaseServer must then be
	// 0). On reconfigurable fabrics the slice must be region-aligned:
	// BaseServer a multiple of Spec.RegionServers.
	BaseServer int
	Servers    int
}

// overlapMode is Options.Overlap parsed.
type overlapMode uint8

const (
	overlapNone overlapMode = iota
	overlapLayer
	overlapIter
)

// OverlapModes lists the recognised overlap disciplines.
func OverlapModes() []string { return []string{"none", "layer", "iter"} }

func parseOverlap(name string) (overlapMode, error) {
	switch name {
	case "", "none":
		return overlapNone, nil
	case "layer":
		return overlapLayer, nil
	case "iter":
		return overlapIter, nil
	}
	return overlapNone, fmt.Errorf("trainsim: unknown overlap discipline %q (have none, layer, iter)", name)
}

// ValidOverlap reports whether name is a recognised overlap discipline
// ("" selects none).
func ValidOverlap(name string) error {
	_, err := parseOverlap(name)
	return err
}

// ParseFirstA2A resolves a first-A2A mode by name: "block" (or ""),
// "reuse" or "copilot".
func ParseFirstA2A(name string) (FirstA2AMode, error) {
	switch name {
	case "", "block":
		return FirstA2ABlock, nil
	case "reuse":
		return FirstA2AReuse, nil
	case "copilot":
		return FirstA2ACopilot, nil
	}
	return FirstA2ABlock, fmt.Errorf("trainsim: unknown first-A2A mode %q (have block, reuse, copilot)", name)
}

// IterationSource supplies gate outcomes; the default is the synthetic
// gate simulator, and trace.ReplaySource substitutes recorded production
// traffic.
type IterationSource interface {
	Next() *moe.Iteration
}

// Engine simulates training iterations of one (model, plan) on one cluster.
type Engine struct {
	Model   moe.Model
	Plan    moe.TrainPlan
	Cluster *topo.Cluster
	Place   *parallel.Placement
	Gate    IterationSource
	Opts    Options

	ctx        *collective.Ctx
	backend    netsim.Backend  // the plan drain's simulator, owned by the engine
	controller *ocs.Controller // region of the representative group; nil if static fabric
	region     int
	estimators []*predict.Estimator // per layer boundary, Copilot mode
	prevLayer0 *metrics.Matrix      // previous iteration's layer-0 demand (persistent buffer)
	havePrev   bool                 // prevLayer0 holds a real observation
	iter       int
	reconfigs  int

	// reusable per-layer scratch: the backward all-to-all's transposed
	// demand and the Copilot-predicted demand matrix plus its load vector.
	transposeBuf *metrics.Matrix
	predictBuf   *metrics.Matrix
	predictLoads []float64

	// failure state (§5.4)
	gpuOverride map[topo.NodeID]topo.NodeID
	overrideGen int                 // bumped on OverrideGPU; invalidates leader caches
	tpPenalty   map[topo.NodeID]int // per-override TP-over-EPS charges, keyed by original GPU
	tpTracked   int                 // sum of tpPenalty charges (kept in step with the map)

	// reusable per-iteration scratch: leader GPU set and the expanded
	// all-to-all node/demand buffers, recomputed only when a GPU override
	// changes the placement.
	leaderGen int // overrideGen+1 when leaderBuf/leaderSrv are valid
	leaderBuf []topo.NodeID
	leaderSrv []int
	a2aGen    int
	a2aGPUs   []topo.NodeID
	a2aDemand *metrics.Matrix

	// communication plan of the current iteration plus per-layer accounting
	// records, both reused across iterations (commplan.Plan keeps its
	// arenas across Reset).
	cplan *commplan.Plan
	recs  []layerRec

	// overlap state. Under Overlap "iter" the engine keeps a rolling plan
	// window: nextIt buffers the peeked gate outcome whose layer-0 work was
	// prefetched into the current plan, prefix indexes those steps, and
	// carry replays their measured results in the next iteration.
	overlap overlapMode
	peeked  bool
	nextIt  *moe.Iteration
	prefix  prefixSteps
	carry   prefixCarry

	// pend carries pass-1 state from BeginIteration to FinishIteration so a
	// multi-job scheduler (internal/tenancy) can execute several engines'
	// plans in one merged drain between the two calls.
	pend pendingIter

	// reconfigLog records the raw sampled delay of every OCS reconfiguration
	// the current iteration's build pass performed, in apply order — the
	// occupancy trace a cross-tenant circuit arbiter prices contention from.
	// Reset by BeginIteration; see ReconfigDelays.
	reconfigLog []float64
}

// pendingIter is the build-pass state FinishIteration's accounting needs.
type pendingIter struct {
	valid        bool
	stats        IterStats
	bwdLo, bwdHi int
	dpStep       int
	// extraBlocked is externally imposed blocking (a tenancy arbiter's
	// reconfiguration-window wait) added to the iteration's Blocked and Time.
	extraBlocked float64
}

// prefixSteps indexes the rolling window's next-iteration steps inside the
// current plan: the layer-0 attention+gate compute, the reconfiguration
// barrier (-1 when absent) and the dispatch all-to-all (-1 when no prefix
// was appended).
type prefixSteps struct {
	c, b, a int
	block1  float64
}

// prefixCarry replays the prefetched layer-0 work in the next iteration:
// its dispatch A2A was compiled and simulated as part of the previous
// window (while its circuits were installed), so the next iteration
// substitutes zero-flow echo steps carrying the measured values instead of
// recompiling it; the window keeps the same step and dependency shape.
type prefixCarry struct {
	valid  bool
	block1 float64 // residual blocking cost of the prefetched reconfiguration
	a2a1   float64 // measured makespan of the prefetched dispatch A2A
}

// layerRec carries one layer's compute model and reconfiguration penalties
// from the plan-building pass to the accounting pass, plus the plan step
// IDs of its two all-to-alls and (overlap disciplines only) of its backward
// gradient-A2A echo steps.
type layerRec struct {
	pt                           dag.PhaseTimes
	comp                         float64
	block1, penalty2, bwdPenalty float64
	a2a1, a2a2                   int
	bEcho1, bEcho2               int
}

// PhaseBreakdown is Figure 3's per-layer forward timeline.
type PhaseBreakdown struct {
	Attention, Gate, A2A1, Expert, A2A2, AddNorm float64
}

// Total sums the phases.
func (p PhaseBreakdown) Total() float64 {
	return p.Attention + p.Gate + p.A2A1 + p.Expert + p.A2A2 + p.AddNorm
}

// IterStats summarises one simulated iteration.
type IterStats struct {
	Iter      int
	Time      float64 // end-to-end iteration seconds
	FwdStage  float64 // slowest stage forward time per micro-batch slot
	BwdStage  float64
	A2A       float64 // all-to-all seconds inside one fwd+bwd slot
	Compute   float64 // computation seconds inside one fwd+bwd slot
	Blocked   float64 // reconfiguration time that blocked training
	DPTime    float64
	Layer0    PhaseBreakdown
	Reconfigs int // OCS reconfigurations performed this iteration
}

// A2AFraction is the share of slot time spent in all-to-all (Figure 3's
// 33–55% observation).
func (s IterStats) A2AFraction() float64 {
	if s.FwdStage+s.BwdStage == 0 {
		return 0
	}
	return s.A2A / (s.FwdStage + s.BwdStage)
}

// New builds an engine. The cluster must have exactly plan.GPUs() GPUs. A
// symmetry-folded cluster (every three-tier fat-tree unless built with
// topo.Spec.Eager) stays lazy: servers, switches and links materialize only
// when a collective routes through them, with results byte-identical to the
// eager build.
func New(m moe.Model, plan moe.TrainPlan, cluster *topo.Cluster, opts Options) (*Engine, error) {
	if err := moe.Validate(m, plan); err != nil {
		return nil, err
	}
	if opts.Servers == 0 && opts.BaseServer != 0 {
		return nil, fmt.Errorf("trainsim: BaseServer=%d without Servers (whole-cluster placements start at 0)",
			opts.BaseServer)
	}
	servers := opts.Servers
	if servers == 0 {
		servers = len(cluster.Servers)
	}
	place, err := parallel.NewPlacementAt(cluster, plan, opts.BaseServer, servers)
	if err != nil {
		return nil, err
	}
	if opts.Calib.PeakFLOPS == 0 {
		opts.Calib = dag.A100()
	}
	if err := opts.Calib.Validate(); err != nil {
		return nil, err
	}
	var source IterationSource = moe.NewGateSim(m, plan, moe.DefaultGateConfig(opts.GateSeed))
	if opts.Source != nil {
		source = opts.Source
	}
	backend, err := netsim.New(opts.Config)
	if err != nil {
		return nil, fmt.Errorf("trainsim: %w", err)
	}
	overlap, err := parseOverlap(opts.Overlap)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		Model: m, Plan: plan, Cluster: cluster, Place: place,
		Gate: source, Opts: opts,
		ctx:     collective.NewCtx(cluster),
		backend: backend,
		cplan:   commplan.New(),
		overlap: overlap,
	}
	e.region = -1
	if len(cluster.Regions) > 0 {
		e.region = cluster.RegionOf(place.ServerOfEPRank(0, 0, 0))
	}
	reconfigurable := cluster.Kind == topo.FabricMixNet || cluster.Kind == topo.FabricMixNetCPO
	if reconfigurable {
		if e.region < 0 {
			return nil, fmt.Errorf("trainsim: MixNet cluster without regions")
		}
		span := parallel.RegionServersPerEPGroup(plan, cluster.Spec.GPUsPerServer)
		if cluster.Spec.RegionServers != span {
			return nil, fmt.Errorf("trainsim: region size %d does not match EP-group span %d servers",
				cluster.Spec.RegionServers, span)
		}
		if opts.BaseServer%cluster.Spec.RegionServers != 0 {
			return nil, fmt.Errorf("trainsim: server slice base %d not aligned to %d-server regions",
				opts.BaseServer, cluster.Spec.RegionServers)
		}
		if opts.Device != nil {
			e.controller = ocs.NewController(cluster, e.region, opts.Device)
			e.controller.Alpha = opts.Alpha
			e.controller.StrictBreak = opts.StrictBreak
		}
	}
	if opts.FirstA2A == FirstA2ACopilot {
		bounds := dag.LayersPerStageMax(m.Blocks, plan.PP)
		e.estimators = make([]*predict.Estimator, bounds)
		for i := range e.estimators {
			e.estimators[i] = predict.NewEstimator(m.Experts, 16)
		}
	}
	return e, nil
}

// leaderGPUs returns the EP rank leader GPU nodes for the representative
// group, and each rank's global server index. The returned slices are
// cached on the engine and only rebuilt after a GPU override; callers must
// not modify them.
func (e *Engine) leaderGPUs() ([]topo.NodeID, []int) {
	if e.leaderGen == e.overrideGen+1 {
		return e.leaderBuf, e.leaderSrv
	}
	p := e.Plan
	if cap(e.leaderBuf) < p.EP {
		e.leaderBuf = make([]topo.NodeID, p.EP)
		e.leaderSrv = make([]int, p.EP)
	}
	gpus, servers := e.leaderBuf[:p.EP], e.leaderSrv[:p.EP]
	for ep := 0; ep < p.EP; ep++ {
		gpus[ep] = e.mapGPU(e.Place.GPUNode(parallel.Rank{DP: 0, PP: 0, EP: ep, TP: 0}))
		servers[ep] = e.Cluster.G.Node(gpus[ep]).Server
	}
	e.leaderBuf, e.leaderSrv = gpus, servers
	e.leaderGen = e.overrideGen + 1
	return gpus, servers
}

// expandedA2A spreads the rank demand across all EP*TP GPUs so the direct
// all-to-all exercises every NIC on electrical fabrics. The node list and
// demand matrix are engine-owned scratch reused across layers/iterations:
// the same off-diagonal cells are overwritten on every call.
func (e *Engine) expandedA2A(demand *metrics.Matrix) ([]topo.NodeID, *metrics.Matrix) {
	p := e.Plan
	n := p.EP * p.TP
	if e.a2aDemand == nil || e.a2aDemand.Rows != n {
		e.a2aGPUs = make([]topo.NodeID, n)
		e.a2aDemand = metrics.NewMatrix(n, n)
		e.a2aGen = 0
	}
	gpus, d := e.a2aGPUs, e.a2aDemand
	if e.a2aGen != e.overrideGen+1 {
		for ep := 0; ep < p.EP; ep++ {
			for tp := 0; tp < p.TP; tp++ {
				gpus[ep*p.TP+tp] = e.mapGPU(e.Place.GPUNode(parallel.Rank{DP: 0, PP: 0, EP: ep, TP: tp}))
			}
		}
		e.a2aGen = e.overrideGen + 1
	}
	inv := 1 / float64(p.TP)
	for i := 0; i < p.EP; i++ {
		for j := 0; j < p.EP; j++ {
			if i == j {
				continue
			}
			v := demand.At(i, j) * inv
			for tp := 0; tp < p.TP; tp++ {
				d.Set(i*p.TP+tp, j*p.TP+tp, v)
			}
		}
	}
	return gpus, d
}

// compileA2A compiles one all-to-all with the given demand into
// backend-neutral phases routed over the fabric's current circuits. The
// simulation itself is deferred: the phases become a step of the
// iteration's communication plan, so routes must be resolved here, while
// the circuits the demand was planned for are still installed.
func (e *Engine) compileA2A(demand *metrics.Matrix) (netsim.Phases, error) {
	useTopoAware := e.Cluster.Kind == topo.FabricMixNet || e.Cluster.Kind == topo.FabricMixNetCPO ||
		e.Cluster.Kind == topo.FabricTopoOpt
	if useTopoAware && e.region >= 0 {
		gpus, _ := e.leaderGPUs()
		return collective.TopologyAwareAllToAll(e.ctx, e.region, gpus, demand)
	}
	gpus, d := e.expandedA2A(demand)
	return collective.DirectAllToAll(e.ctx, gpus, d)
}

// planAndApply runs Algorithm 1 for the representative region on a demand
// matrix and returns the sampled reconfiguration delay.
func (e *Engine) planAndApply(demand *metrics.Matrix, servers []int) (float64, error) {
	pairs, err := e.controller.PlanFromRankDemand(demand, servers)
	if err != nil {
		return 0, err
	}
	delay, err := e.controller.Apply(pairs)
	if err != nil {
		return 0, err
	}
	e.reconfigs++
	e.reconfigLog = append(e.reconfigLog, delay)
	return delay, nil
}

// ReconfigDelays returns the raw sampled delay of every reconfiguration the
// current iteration's build pass applied, in apply order (empty on static
// fabrics). The slice is engine-owned scratch, valid until the next
// BeginIteration; internal/tenancy's circuit arbiter reads it between
// BeginIteration and FinishIteration to price cross-tenant contention for
// the shared OCS control plane.
func (e *Engine) ReconfigDelays() []float64 { return e.reconfigLog }

// ChargeExtraBlocked adds externally imposed blocking time — a tenancy
// arbiter's grant-queue wait for a shared reconfiguration window — to the
// pending iteration's accounting: FinishIteration folds it into both
// Blocked and Time. Must be called between BeginIteration and
// FinishIteration; a zero charge leaves results bit-identical to never
// calling it.
func (e *Engine) ChargeExtraBlocked(sec float64) error {
	if !e.pend.valid {
		return fmt.Errorf("trainsim: ChargeExtraBlocked without BeginIteration")
	}
	if sec < 0 {
		return fmt.Errorf("trainsim: negative blocked charge %g", sec)
	}
	e.pend.extraBlocked += sec
	return nil
}

// predictedDemand builds the Copilot demand matrix for layer l from the
// previous layer's loads. The returned matrix is engine-owned scratch,
// overwritten on every call; callers must not retain it across layers.
func (e *Engine) predictedDemand(l int, prevLoads []float64) *metrics.Matrix {
	est := e.estimators[l]
	if len(e.predictLoads) != est.N {
		e.predictLoads = make([]float64, est.N)
	}
	loads := est.PredictInto(prevLoads, e.predictLoads)
	p := e.Plan
	per := e.Model.ExpertsPerRank(p)
	if e.predictBuf == nil {
		e.predictBuf = metrics.NewMatrix(p.EP, p.EP)
	}
	d := e.predictBuf
	// Uniform sources, predicted destination shares (relative values are
	// all Algorithm 1 needs).
	for j := 0; j < p.EP; j++ {
		var share float64
		for le := j * per; le < (j+1)*per && le < len(loads); le++ {
			share += loads[le]
		}
		for i := 0; i < p.EP; i++ {
			if i != j {
				d.Set(i, j, share)
			} else {
				d.Set(i, j, 0)
			}
		}
	}
	return d
}

// RunIteration simulates one training iteration. It proceeds in three
// passes sharing one code path for every backend and entry point:
//
//  1. build — the controller loop runs serially (Algorithm 1 mutates the
//     region's circuits layer by layer) and compiles each all-to-all into a
//     communication-plan step while its circuits are installed, recording
//     reconfiguration barriers and penalties;
//  2. execute — the plan simulates on the netsim backend round by round,
//     each simulated step priced by one Backend.Makespan call, so
//     independent layers' A2As and the DP all-reduce share a round;
//  3. account — per-layer stage times combine the simulated makespans with
//     the compute model exactly as the historical inline loop did; under an
//     overlap discipline (Options.Overlap) each pipeline slot is instead
//     priced by the plan's critical path over compute and comm steps, and
//     "iter" additionally charges only the DP residual the next iteration's
//     prefetched layer-0 window cannot hide.
//
// Deferring simulation is sound because compiled phases freeze their
// routes: later reconfigurations detach superseded circuit links from the
// adjacency but leave their simulation fields intact (see topo.Link).
// Under Overlap "iter" the engine keeps a rolling window: the next gate
// outcome is peeked here and its layer-0 prefix joins this plan, so
// Reconfigs counts the prefetched reconfiguration in the window that
// performed it.
func (e *Engine) RunIteration() (IterStats, error) {
	if err := e.BeginIteration(); err != nil {
		return e.pend.stats, err
	}
	if err := e.cplan.Execute(e.Cluster.G, e.backend); err != nil {
		e.pend.valid = false
		return e.pend.stats, err
	}
	return e.FinishIteration()
}

// BeginIteration runs pass 1 alone: it consumes the next gate outcome and
// builds the iteration's communication plan without simulating it. The
// caller must then execute CommPlan() on a backend — RunIteration does so
// directly; internal/tenancy merges several engines' plans into one fused
// drain — and call FinishIteration for the accounting. Per-iteration
// results are byte-identical to RunIteration regardless of how the plan
// was drained (step results never depend on what shared their batch).
func (e *Engine) BeginIteration() error {
	e.pend = pendingIter{bwdLo: -1, bwdHi: -1, dpStep: -1}
	m, p := e.Model, e.Plan
	var it *moe.Iteration
	if e.peeked {
		// Overlap "iter": the previous window already consumed this gate
		// outcome to prefetch layer 0.
		it, e.nextIt, e.peeked = e.nextIt, nil, false
	} else {
		it = e.Gate.Next()
	}
	if it == nil || len(it.Layers) < m.Blocks {
		return fmt.Errorf("trainsim: iteration source yielded %d layers, need %d",
			lenLayers(it), m.Blocks)
	}
	stats := &e.pend.stats
	stats.Iter = e.iter
	e.iter++
	e.reconfigs = 0
	e.reconfigLog = e.reconfigLog[:0]

	_, servers := e.leaderGPUs()
	liMax := dag.LayersPerStageMax(m.Blocks, p.PP)
	stageLayers := dag.StageLayers(m.Blocks, p.PP, 0)

	// Pass 1: build the communication plan. ov adds zero-flow KindCompute
	// steps and the dependency edges that let communication overlap them;
	// with ov false the plan is byte-identical to the historical serial
	// build (no compute steps, no extra edges).
	ov := e.overlap != overlapNone
	e.cplan.Reset()
	recs := e.recs[:0]
	prevEF := -1 // previous layer's expert-FFN compute step (overlap only)
	for li := 0; li < liMax && li < len(stageLayers); li++ {
		l := stageLayers[li]
		d := it.Layers[l].RankMatrix
		// Overlap "iter": layer 0 was prefetched into the previous window —
		// replay the measured reconfiguration and dispatch A2A as zero-flow
		// echoes instead of reapplying/recompiling.
		carried := li == 0 && e.overlap == overlapIter && e.carry.valid
		pt, block1, barrier, err := e.firstA2A(it, li, l, servers, carried)
		if err != nil {
			return err
		}
		rec := layerRec{pt: pt, block1: block1}

		barrier1, barrier2 := -1, -1
		if barrier {
			barrier1 = e.cplan.Add(commplan.KindBarrier, li, nil, rec.block1)
			if ov && prevEF >= 0 {
				e.cplan.AddDep(barrier1, prevEF)
			}
		}
		cf := -1
		if ov {
			// Attention + gate of this layer; the dispatch A2A needs its
			// routed tokens, but the layer's reconfiguration hides under it.
			cf = e.cplan.Add(commplan.KindCompute, li, nil, rec.pt.Attention+rec.pt.Gate)
			if prevEF >= 0 {
				e.cplan.AddDep(cf, prevEF)
			}
		}
		if carried {
			rec.a2a1 = e.cplan.Add(commplan.KindA2A1, li, nil, e.carry.a2a1)
		} else {
			phases1, err := e.compileA2A(d)
			if err != nil {
				return err
			}
			rec.a2a1 = e.cplan.Add(commplan.KindA2A1, li, phases1, 0)
		}
		if barrier1 >= 0 {
			e.cplan.AddDep(rec.a2a1, barrier1)
		}
		if cf >= 0 {
			e.cplan.AddDep(rec.a2a1, cf)
		}

		if e.controller != nil {
			// Exact reconfiguration for the second A2A, hidden under
			// expert computation (§5.1).
			delay, err := e.planAndApply(d, servers)
			if err != nil {
				return err
			}
			if delay > rec.pt.Expert {
				rec.penalty2 = delay - rec.pt.Expert
			}
			// Backward-pass reconfigurations hide under backward compute.
			bwdWin := e.Opts.Calib.BackwardFactor * (rec.pt.Attention + rec.pt.Expert) / 2
			if delay > bwdWin {
				rec.bwdPenalty = 2 * (delay - bwdWin)
			}
		}
		ef := -1
		if ov {
			// Expert FFN: gated by the dispatch A2A, gates the combine A2A
			// and the next layer's work.
			ef = e.cplan.Add(commplan.KindCompute, li, nil, rec.pt.Expert)
			e.cplan.AddDep(ef, rec.a2a1)
		}
		if e.controller != nil {
			barrier2 = e.cplan.Add(commplan.KindBarrier, li, nil, rec.penalty2)
			if ef >= 0 {
				e.cplan.AddDep(barrier2, ef)
			}
		}
		if e.transposeBuf == nil || e.transposeBuf.Rows != d.Cols || e.transposeBuf.Cols != d.Rows {
			e.transposeBuf = metrics.NewMatrix(d.Cols, d.Rows)
		}
		d.TransposeInto(e.transposeBuf)
		phases2, err := e.compileA2A(e.transposeBuf)
		if err != nil {
			return err
		}
		rec.a2a2 = e.cplan.Add(commplan.KindA2A2, li, phases2, 0)
		if barrier2 >= 0 {
			e.cplan.AddDep(rec.a2a2, barrier2)
		} else if ef >= 0 {
			e.cplan.AddDep(rec.a2a2, ef)
		}
		if ov {
			// Add&norm is a hidden side branch: the next layer waits on the
			// expert FFN, not on the combine A2A's tail.
			nf := e.cplan.Add(commplan.KindCompute, li, nil, rec.pt.AddNorm)
			e.cplan.AddDep(nf, rec.a2a2)
			prevEF = ef
		}

		rec.comp = rec.pt.Forward() + e.tpOverEPSPenalty()
		recs = append(recs, rec)

		// Copilot online learning.
		if e.estimators != nil {
			if l > 0 {
				e.estimators[li].Observe(it.Layers[l-1].Loads, it.Layers[l].Loads)
				e.estimators[li].Fit()
			}
		}
	}

	// Backward slot subgraph (overlap only): reverse-order zero-flow chain
	// barrier(bwdPenalty) -> combine-A2A gradient echo -> expert backward ->
	// non-expert backward, with the dispatch-A2A gradient echo as a hidden
	// side branch. The echo steps' makespans are patched from the measured
	// forward A2As after Execute (the backward pass moves the same bytes
	// over the same circuits).
	bwdLo, bwdHi := -1, -1
	if ov {
		bwdLo = e.cplan.Len()
		bf := e.Opts.Calib.BackwardFactor
		prev := -1
		for li := len(recs) - 1; li >= 0; li-- {
			rec := &recs[li]
			if e.controller != nil {
				bp := e.cplan.Add(commplan.KindBarrier, li, nil, rec.bwdPenalty)
				if prev >= 0 {
					e.cplan.AddDep(bp, prev)
				}
				prev = bp
			}
			e2 := e.cplan.Add(commplan.KindA2A2, li, nil, 0)
			if prev >= 0 {
				e.cplan.AddDep(e2, prev)
			}
			be := e.cplan.Add(commplan.KindCompute, li, nil, rec.pt.BackwardExpert(bf))
			e.cplan.AddDep(be, e2)
			e1 := e.cplan.Add(commplan.KindA2A1, li, nil, 0)
			e.cplan.AddDep(e1, be)
			bc := e.cplan.Add(commplan.KindCompute, li, nil, rec.pt.Backward(bf))
			e.cplan.AddDep(bc, be)
			rec.bEcho1, rec.bEcho2 = e1, e2
			prev = bc
		}
		bwdHi = e.cplan.Len()
	}
	e.recs = recs
	if e.controller != nil {
		d0 := it.Layers[0].RankMatrix
		if e.prevLayer0 == nil || e.prevLayer0.Rows != d0.Rows || e.prevLayer0.Cols != d0.Cols {
			e.prevLayer0 = metrics.NewMatrix(d0.Rows, d0.Cols)
		}
		e.prevLayer0.CopyFrom(d0)
		e.havePrev = true
	}
	if p.DP > 1 {
		dpStep, err := e.compileDPAllReduce()
		if err != nil {
			return err
		}
		e.pend.dpStep = dpStep
	}

	// Overlap "iter": peek the next gate outcome and append its layer-0
	// prefix (compute, reconfiguration, dispatch A2A) to this window. The
	// prefix has no dependencies on this iteration's steps, so it shares
	// the first round with the DP all-reduce — one backend drain spans two
	// adjacent iterations.
	e.prefix = prefixSteps{c: -1, b: -1, a: -1}
	if e.overlap == overlapIter {
		if err := e.buildPrefix(servers, stageLayers); err != nil {
			return err
		}
	}
	e.pend.bwdLo, e.pend.bwdHi = bwdLo, bwdHi
	e.pend.valid = true
	return nil
}

// FinishIteration runs pass 3 after the plan built by BeginIteration was
// executed on a backend: it patches the overlap echoes from the measured
// makespans, captures the rolling-window carry, and folds the per-step
// makespans into the iteration's accounting. Exactly one FinishIteration
// must follow each BeginIteration.
func (e *Engine) FinishIteration() (IterStats, error) {
	if !e.pend.valid {
		return IterStats{}, fmt.Errorf("trainsim: FinishIteration without BeginIteration")
	}
	e.pend.valid = false
	m, p := e.Model, e.Plan
	stats := &e.pend.stats
	bwdLo, bwdHi, dpStep := e.pend.bwdLo, e.pend.bwdHi, e.pend.dpStep
	ov := e.overlap != overlapNone
	if ov {
		// Patch the backward gradient-A2A echoes from the measured forward
		// makespans (safe after Execute: zero-flow steps never influence
		// simulated results, only the critical path read below).
		for li := range e.recs {
			rec := &e.recs[li]
			e.cplan.Step(rec.bEcho1).Makespan = e.cplan.Step(rec.a2a1).Makespan
			e.cplan.Step(rec.bEcho2).Makespan = e.cplan.Step(rec.a2a2).Makespan
		}
	}
	if e.prefix.a >= 0 {
		e.carry = prefixCarry{valid: true, block1: e.prefix.block1,
			a2a1: e.cplan.Step(e.prefix.a).Makespan}
	} else {
		e.carry = prefixCarry{}
	}

	// Pass 3: accounting — the historical inline float sequence, fed by the
	// plan's per-step makespans.
	var fwd, bwd, a2aTot, compTot, blocked float64
	for li := range e.recs {
		rec := &e.recs[li]
		a2a1 := e.cplan.Step(rec.a2a1).Makespan
		a2a2 := e.cplan.Step(rec.a2a2).Makespan
		fwd += rec.comp + a2a1 + a2a2 + rec.block1 + rec.penalty2
		bwd += e.Opts.Calib.BackwardFactor*rec.comp + a2a1 + a2a2 + rec.bwdPenalty
		a2aTot += 2 * (a2a1 + a2a2)
		compTot += rec.comp * (1 + e.Opts.Calib.BackwardFactor)
		blocked += rec.block1 + rec.penalty2 + rec.bwdPenalty
		if li == 0 {
			stats.Layer0 = PhaseBreakdown{
				Attention: rec.pt.Attention, Gate: rec.pt.Gate, A2A1: a2a1,
				Expert: rec.pt.Expert, A2A2: a2a2, AddNorm: rec.pt.AddNorm,
			}
		}
	}

	// Pipeline activation transfer per slot (analytic, EPS path).
	ppSend := 0.0
	if p.PP > 1 {
		actBytes := float64(p.TokensPerMicroBatch()) * m.TokenBytes()
		ppSend = actBytes * 8 / e.Cluster.Spec.NICBps
	}
	stats.FwdStage = fwd + ppSend
	stats.BwdStage = bwd + ppSend
	if ov {
		// Overlap disciplines price each pipeline slot by the plan's
		// critical path instead of the serial sum: communication gated only
		// by dependency edges hides under concurrent computation. The A2A /
		// Compute / Blocked stats stay serial sums so the composition of a
		// slot remains comparable across disciplines.
		stats.FwdStage = e.cplan.MakespanWindow(0, bwdLo) + ppSend
		stats.BwdStage = e.cplan.MakespanWindow(bwdLo, bwdHi) + ppSend
	}
	stats.A2A = a2aTot
	stats.Compute = compTot
	stats.Blocked = blocked
	stats.Reconfigs = e.reconfigs
	stats.Time = dag.PipelineIterationTime(stats.FwdStage, stats.BwdStage, p.NumMicroBatch, p.PP)

	// DP gradient all-reduce across replicas (§5.3 hierarchical scheme).
	if dpStep >= 0 {
		stats.DPTime = e.cplan.Step(dpStep).Makespan
		dpCharge := stats.DPTime
		if e.overlap == overlapIter && e.prefix.a >= 0 {
			// The next iteration's prefetched layer-0 window drains while
			// the all-reduce is still in flight; only the residual the
			// window cannot hide is charged to this iteration.
			hide := e.cplan.MakespanWindow(e.prefix.c, e.cplan.Len())
			if dpCharge > hide {
				dpCharge -= hide
			} else {
				dpCharge = 0
			}
		}
		stats.Time += dpCharge
	}
	if e.pend.extraBlocked > 0 {
		stats.Blocked += e.pend.extraBlocked
		stats.Time += e.pend.extraBlocked
	}
	return e.pend.stats, nil
}

// firstA2A prices layer l (slot li of pipeline stage 0) of iteration it up
// to its dispatch all-to-all, for both the in-iteration path and the
// rolling window's prefix: the layer's compute times, paced by the hottest
// rank's share of its demand, and the first-A2A reconfiguration of §5.1.
// Block applies Algorithm 1 to the layer's own demand and blocks for the
// full delay; reuse keeps whatever circuits are installed; copilot plans
// layer 0 from the previous iteration's layer-0 demand and later layers
// from the predicted demand, hiding the delay under the previous layer's
// backward expert window. A carried layer replays the block the window
// measured instead of reapplying. barrier reports whether the plan charges
// the block as a barrier step (reconfiguring fabrics, except under reuse).
func (e *Engine) firstA2A(it *moe.Iteration, li, l int, servers []int, carried bool) (pt dag.PhaseTimes, block1 float64, barrier bool, err error) {
	d := it.Layers[l].RankMatrix
	cols := d.ColSums()
	share := metrics.Max(cols) / math.Max(d.Total(), 1)
	pt = dag.ComputeTimes(e.Model, e.Plan, e.Opts.Calib, share)
	if e.controller == nil {
		return pt, 0, false, nil
	}
	barrier = e.Opts.FirstA2A != FirstA2AReuse
	if carried {
		return pt, e.carry.block1, barrier, nil
	}
	switch e.Opts.FirstA2A {
	case FirstA2ABlock:
		block1, err = e.planAndApply(d, servers)
	case FirstA2ACopilot:
		planD := d // first-ever iteration: oracle warm start
		if l > 0 {
			planD = e.predictedDemand(li, it.Layers[l-1].Loads)
		} else if e.havePrev {
			planD = e.prevLayer0
		}
		var delay float64
		delay, err = e.planAndApply(planD, servers)
		// Proactive: reconfiguration hides under the previous layer's
		// computation unless it exceeds that window.
		if hideWin := e.Opts.Calib.BackwardFactor * pt.Expert; delay > hideWin {
			block1 = delay - hideWin
		}
	}
	return pt, block1, barrier, err
}

// buildPrefix peeks the next gate outcome and appends its layer-0 prefix —
// attention+gate compute, the first-A2A reconfiguration (firstA2A, as in
// the iteration itself), and the compiled dispatch all-to-all — to the
// current plan. Compiling here is sound for the same reason the
// in-iteration deferral is: the apply sequence is identical to what the
// serial engine would run at the top of the next iteration (nothing touches
// the region's circuits in between), and compiled phases freeze their
// routes.
func (e *Engine) buildPrefix(servers []int, stageLayers []int) error {
	e.peeked = true
	e.nextIt = e.Gate.Next()
	next := e.nextIt
	if next == nil || len(next.Layers) < e.Model.Blocks || len(stageLayers) == 0 {
		return nil // exhausted source: the next RunIteration reports it
	}
	l := stageLayers[0]
	pt, block1, barrier, err := e.firstA2A(next, 0, l, servers, false)
	if err != nil {
		return err
	}
	pC := e.cplan.Add(commplan.KindCompute, 0, nil, pt.Attention+pt.Gate)
	pB := -1
	if barrier {
		pB = e.cplan.Add(commplan.KindBarrier, 0, nil, block1)
	}
	phases, err := e.compileA2A(next.Layers[l].RankMatrix)
	if err != nil {
		return err
	}
	pA := e.cplan.Add(commplan.KindA2A1, 0, phases, 0)
	e.cplan.AddDep(pA, pC)
	if pB >= 0 {
		e.cplan.AddDep(pA, pB)
	}
	e.prefix = prefixSteps{c: pC, b: pB, a: pA, block1: block1}
	return nil
}

// compileDPAllReduce compiles the hierarchical gradient all-reduce into one
// plan step: corresponding servers of each replica form rings; phases are
// merged across groups so the shared EPS fabric sees the full load. Returns
// the step ID, or -1 when the configuration has nothing to reduce.
func (e *Engine) compileDPAllReduce() (int, error) {
	p := e.Plan
	serversPerReplica := e.Place.NumServers() / p.DP
	if serversPerReplica == 0 {
		return -1, nil
	}
	perServer := e.Model.GradBytes() / float64(serversPerReplica)
	merged := make(collective.Phases, 3)
	for k := 0; k < serversPerReplica; k++ {
		group := make([]int, p.DP)
		for d := 0; d < p.DP; d++ {
			group[d] = e.Place.Base() + d*serversPerReplica + k
		}
		phases, err := collective.HierarchicalAllReduce(e.ctx, group, 0, perServer)
		if err != nil {
			return -1, err
		}
		for i, fs := range phases {
			if i < len(merged) {
				merged[i] = append(merged[i], fs...)
			}
		}
	}
	return e.cplan.Add(commplan.KindDP, -1, merged, 0), nil
}

// CommPlan exposes the communication plan of the most recently simulated
// iteration: step kinds, dependencies, per-step makespans and the batch
// widths Execute submitted. Valid until the next RunIteration; callers must
// not mutate it.
func (e *Engine) CommPlan() *commplan.Plan { return e.cplan }

// Run simulates n iterations and returns their stats.
func (e *Engine) Run(n int) ([]IterStats, error) {
	if n < 0 {
		return nil, fmt.Errorf("trainsim: %d iterations", n)
	}
	out := make([]IterStats, 0, n)
	for i := 0; i < n; i++ {
		s, err := e.RunIteration()
		if err != nil {
			return out, err
		}
		out = append(out, s)
	}
	return out, nil
}

// MeanIterTime averages iteration times, skipping the first warm-up
// iteration when more than one is available.
func MeanIterTime(stats []IterStats) float64 {
	if len(stats) == 0 {
		return 0
	}
	start := 0
	if len(stats) > 1 {
		start = 1
	}
	var s float64
	for _, st := range stats[start:] {
		s += st.Time
	}
	return s / float64(len(stats)-start)
}

func lenLayers(it *moe.Iteration) int {
	if it == nil {
		return 0
	}
	return len(it.Layers)
}
