package experiments

import (
	"fmt"
	"runtime"
	"time"

	"mixnet/internal/collective"
	"mixnet/internal/metrics"
	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// maxEagerGPUs is the largest scale the bench still builds eagerly (and
// runs the fluid reference on). Above it, only the symmetry-folded build is
// practical: 100k-256k GPU fabrics are priced by the analytic backends on
// the lazily materialized quotient graph.
const maxEagerGPUs = 32768

// LargeEcmpRow is one machine-readable row of the large-scale analytic-ecmp
// quantification (BENCH_large_ecmp.json). Each scale produces an eager and
// a folded row up to maxEagerGPUs (their makespans must match bitwise) and
// a folded-only row beyond it.
type LargeEcmpRow struct {
	GPUs    int `json:"gpus"`
	Servers int `json:"servers"`
	Flows   int `json:"flows"`
	// Folded records the build mode: the default symmetry-folded build, or
	// false for the topo.Spec.Eager reference; FoldFactor is total servers /
	// materialized servers after the compile touched its participants (1
	// for eager builds).
	Folded     bool    `json:"folded"`
	FoldFactor float64 `json:"fold_factor"`
	// BuildSec is the topology construction time; CompileSec the cold
	// collective compile (routing included); MemoReplaySec the first
	// memoized replay of the same collective once the salt ring wrapped.
	BuildSec      float64 `json:"build_sec"`
	CompileSec    float64 `json:"compile_sec"`
	MemoReplaySec float64 `json:"memo_replay_sec"`
	// PeakHeapBytes is the live heap attributable to the point (topology,
	// route caches, compiled flows), measured after a GC relative to the
	// pre-build baseline — the larger of the post-build and post-cold-compile
	// readings. The memo ring's replay variants are excluded: they are a
	// deliberate fixed-size cache, identical in both build modes.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// WallSec is the end-to-end wall clock of the point, simulations
	// included.
	WallSec float64 `json:"wall_sec"`
	// Makespans of the uniform all-to-all among the sampled leaders, in
	// seconds, per backend. Fluid is the max-min reference (omitted above
	// maxEagerGPUs); Analytic is the sampled-path bound (ECMP hash
	// collisions charge a flow's full bytes to every sampled link); Ecmp
	// spreads bytes fractionally over the shortest-path DAG, pricing the
	// fabric free of collision artifacts.
	FluidSec    float64 `json:"fluid_sec,omitempty"`
	AnalyticSec float64 `json:"analytic_sec"`
	EcmpSec     float64 `json:"ecmp_sec"`
	// Runtimes of the simulations in seconds of wall clock.
	FluidRunSec    float64 `json:"fluid_run_sec,omitempty"`
	AnalyticRunSec float64 `json:"analytic_run_sec"`
	EcmpRunSec     float64 `json:"ecmp_run_sec"`
}

// LargeScaleEcmp quantifies the analytic backends at cluster scales the
// fluid backend is too slow (or the eager builder too hungry) to sweep: for
// each target GPU count it builds a full fat-tree, compiles a uniform
// all-to-all among (up to) participants leader GPUs spread evenly across
// the servers via the collective compiler, and measures build time, compile
// time, memoized-recompile time, peak live heap and the per-backend
// makespans. Scales up to maxEagerGPUs run both eagerly and symmetry-folded
// and the two modes' makespans are verified bitwise identical; larger
// scales (100k-256k GPUs) run folded only. The returned rows feed
// BENCH_large_ecmp.json; the Table renders them.
//
// Participants are capped so the BFS router's per-destination distance
// fields stay bounded while flows still cross every switching tier; the
// clusters themselves are built at full scale, so the routed paths and the
// per-link loads are the real fabric's.
func LargeScaleEcmp(gpuScales []int, participants int, bytesPerFlow float64) (Table, []LargeEcmpRow, error) {
	t := Table{
		ID:    "large_ecmp",
		Title: "analytic backends at scale: folded vs eager build/compile + collision bound (uniform leader all-to-all, 400G fat-tree)",
		Header: []string{"GPUs", "Servers", "Fold", "FoldFac", "Build (s)", "Compile (s)", "Memo (ms)",
			"Heap (MB)", "Fluid (ms)", "Ana (ms)", "Ecmp (ms)", "Slack", "Wall (s)"},
		Notes: "slack = analytic/ecmp - 1 (load the sampled-path bound attributes to ECMP collisions); " +
			"fluid and the eager build stop at 32768 GPUs; folded and eager makespans are verified bitwise identical",
	}
	if participants <= 1 {
		participants = 64
	}
	if bytesPerFlow <= 0 {
		bytesPerFlow = 64 << 20
	}
	var rows []LargeEcmpRow
	for _, gpus := range gpuScales {
		if gpus/8 < 2 {
			return t, rows, fmt.Errorf("experiments: large-ecmp scale %d too small", gpus)
		}
		var eager *LargeEcmpRow
		if gpus <= maxEagerGPUs {
			r, err := largePoint(gpus, participants, bytesPerFlow, true)
			if err != nil {
				return t, rows, err
			}
			rows = append(rows, r)
			t.Rows = append(t.Rows, r.tableRow())
			eager = &r
		}
		r, err := largePoint(gpus, participants, bytesPerFlow, false)
		if err != nil {
			return t, rows, err
		}
		if eager != nil {
			if r.FluidSec != eager.FluidSec || r.AnalyticSec != eager.AnalyticSec || r.EcmpSec != eager.EcmpSec {
				return t, rows, fmt.Errorf("experiments: folded/eager makespan mismatch at %d GPUs: fluid %v/%v analytic %v/%v ecmp %v/%v",
					gpus, r.FluidSec, eager.FluidSec, r.AnalyticSec, eager.AnalyticSec, r.EcmpSec, eager.EcmpSec)
			}
		}
		rows = append(rows, r)
		t.Rows = append(t.Rows, r.tableRow())
	}
	return t, rows, nil
}

func (r LargeEcmpRow) tableRow() []string {
	fold := "no"
	if r.Folded {
		fold = "yes"
	}
	fluid := "-"
	if r.FluidSec > 0 {
		fluid = fmt.Sprintf("%.2f", r.FluidSec*1e3)
	}
	slack := 0.0
	if r.EcmpSec > 0 {
		slack = r.AnalyticSec/r.EcmpSec - 1
	}
	return []string{
		fmt.Sprint(r.GPUs), fmt.Sprint(r.Servers), fold,
		fmt.Sprintf("%.1f", r.FoldFactor),
		fmt.Sprintf("%.3f", r.BuildSec),
		fmt.Sprintf("%.3f", r.CompileSec),
		fmt.Sprintf("%.2f", r.MemoReplaySec*1e3),
		fmt.Sprintf("%.1f", float64(r.PeakHeapBytes)/(1<<20)),
		fluid,
		fmt.Sprintf("%.2f", r.AnalyticSec*1e3),
		fmt.Sprintf("%.2f", r.EcmpSec*1e3),
		fmt.Sprintf("%.1f%%", slack*100),
		fmt.Sprintf("%.2f", r.WallSec),
	}
}

// liveHeap returns the GC-settled live heap above base.
func liveHeap(base uint64) uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc <= base {
		return 0
	}
	return m.HeapAlloc - base
}

// largePoint measures one (scale, build mode) bench point; eager selects
// the reference build over the default symmetry-folded one.
func largePoint(gpus, participants int, bytesPerFlow float64, eager bool) (LargeEcmpRow, error) {
	servers := gpus / 8
	wall := time.Now()
	runtime.GC()
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	base := m0.HeapAlloc

	spec := topo.DefaultSpec(servers, 400*topo.Gbps)
	spec.Eager = eager
	t0 := time.Now()
	c := topo.BuildFatTree(spec)
	buildSec := time.Since(t0).Seconds()
	peakHeap := liveHeap(base)

	n := participants
	if n > servers {
		n = servers
	}
	stride := servers / n
	leaders := make([]topo.NodeID, n)
	for i := range leaders {
		leaders[i] = c.GPU(i*stride, 0)
	}
	demand := metrics.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				demand.Set(i, j, bytesPerFlow)
			}
		}
	}
	ctx := collective.NewCtx(c)
	t0 = time.Now()
	phases, err := collective.DirectAllToAll(ctx, leaders, demand)
	if err != nil {
		return LargeEcmpRow{}, err
	}
	compileSec := time.Since(t0).Seconds()
	flows := 0
	for _, fs := range phases {
		flows += len(fs)
	}
	// Heap reading before the memo ring fills: the ring's replay variants
	// are a deliberate, scale-independent cache (ecmpSpread copies of the
	// compiled plan, identical in both build modes), not topology state.
	if h := liveHeap(base); h > peakHeap {
		peakHeap = h
	}
	// Drive the memo ring through one full salt rotation to its first
	// replay; the hitting compile's duration is the steady-state recompile
	// cost a training loop pays.
	var memoSec float64
	for k := 0; k < 64 && ctx.MemoStats().Hits == 0; k++ {
		t0 = time.Now()
		if _, err := collective.DirectAllToAll(ctx, leaders, demand); err != nil {
			return LargeEcmpRow{}, err
		}
		memoSec = time.Since(t0).Seconds()
	}

	row := LargeEcmpRow{
		GPUs: gpus, Servers: servers, Flows: flows,
		Folded: !eager, FoldFactor: c.FoldFactor(),
		BuildSec: buildSec, CompileSec: compileSec, MemoReplaySec: memoSec,
		PeakHeapBytes: peakHeap,
	}
	run := func(name string) (float64, float64, error) {
		b, err := netsim.New(netsim.Config{Backend: name})
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		ms, err := b.Makespan(c.G, phases)
		return ms, time.Since(start).Seconds(), err
	}
	if gpus <= maxEagerGPUs {
		if row.FluidSec, row.FluidRunSec, err = run("fluid"); err != nil {
			return row, err
		}
	}
	if row.AnalyticSec, row.AnalyticRunSec, err = run("analytic"); err != nil {
		return row, err
	}
	if row.EcmpSec, row.EcmpRunSec, err = run("analytic-ecmp"); err != nil {
		return row, err
	}
	row.WallSec = time.Since(wall).Seconds()
	return row, nil
}
