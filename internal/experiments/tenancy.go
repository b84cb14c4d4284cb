package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"mixnet/internal/moe"
	"mixnet/internal/netsim"
	"mixnet/internal/tenancy"
	"mixnet/internal/trainsim"
)

// TenancyTenant describes one co-scheduled job in the BENCH_tenancy.json
// report.
type TenancyTenant struct {
	Name       string `json:"name"`
	Model      string `json:"model"`
	DP         int    `json:"dp"`
	Servers    int    `json:"servers"`
	BaseServer int    `json:"base_server"`
}

// TenancyInterference is one tenant's iteration-time inflation under
// shared-link contention pricing, solo-normalised.
type TenancyInterference struct {
	Name    string  `json:"name"`
	SoloSec float64 `json:"solo_iter_sec"`
	CoSec   float64 `json:"contended_iter_sec"`
	// OverheadPct is the % iteration-time inflation of the contended co-sim
	// over the tenant's solo run (no arbitration).
	OverheadPct float64 `json:"interference_pct"`
	// FairPct and PriorityPct add a single shared reconfiguration slot
	// under the respective arbitration policy.
	FairPct     float64 `json:"arbiter_fair_pct"`
	PriorityPct float64 `json:"arbiter_priority_pct"`
}

// TenancyReport is the BENCH_tenancy.json schema: the merged co-sim drain
// against the serial-sum baseline, plus per-tenant interference pricing.
type TenancyReport struct {
	Scale      string `json:"scale"`
	Fabric     string `json:"fabric"`
	Backend    string `json:"backend"`
	Iterations int    `json:"iterations"`
	GoMaxProcs int    `json:"gomaxprocs"`
	HostCores  int    `json:"host_cores"`
	// SingleCore marks hosts where GOMAXPROCS == 1.
	SingleCore bool            `json:"single_core,omitempty"`
	Tenants    []TenancyTenant `json:"tenants"`
	// CoSimSec is the wall clock of the merged-frontier co-simulation of
	// all tenants together; SerialSec the wall clock of the serial-sum
	// baseline (each tenant run alone on its own backend, in sequence).
	// Both drains make the same Makespan calls on one goroutine, so the
	// two differ by run-to-run noise only.
	CoSimSec  float64 `json:"cosim_seconds"`
	SerialSec float64 `json:"serial_sum_seconds"`
	// Identical records the determinism contract: per-tenant per-iteration
	// stats of the co-sim are bitwise equal to the serial-sum runs.
	Identical bool `json:"cosim_identical_to_serial"`
	// Merged frontier statistics of the co-sim drain.
	MergedBatches    uint64  `json:"merged_batches"`
	MergedWidthMax   int     `json:"merged_width_max"`
	MergedWidthMean  float64 `json:"merged_width_mean"`
	MergedFusedSteps uint64  `json:"merged_fused_steps"`
	// Interference tables: contended co-sim and arbitrated variants.
	Interference []TenancyInterference `json:"interference"`
}

// tenancyJobs builds the co-scheduled job mix. With dpHeavy, tenant 0 is
// quick-Mixtral (one replica) and every further tenant the DP-heavy
// neighbour (the same model at DP=2) — the interference cohort. Without,
// all tenants are identical quick-Mixtral replicas under different seeds —
// the pooling cohort, where no single tenant's shard dominates and the
// serial-sum comparison is apples to apples.
func tenancyJobs(tenants int, seed int64, dpHeavy bool) []tenancy.Job {
	m := moe.Mixtral8x7B
	base := planFor(m, Quick, 0)
	jobs := make([]tenancy.Job, tenants)
	for i := range jobs {
		p := base
		name := fmt.Sprintf("t%d-mixtral", i)
		if dpHeavy && i > 0 {
			p.DP = 2
			name = fmt.Sprintf("t%d-dpheavy", i)
		}
		plan := p
		jobs[i] = tenancy.Job{
			Name: name, Seed: seed + int64(i), Base: tenancy.AutoBase,
			ModelSpec: &m, PlanSpec: &plan,
		}
	}
	return jobs
}

// tenancyCfg is the bench fabric: MixNet at 100G on the fluid substrate,
// mirroring the overlap ablation's sizing.
func tenancyCfg() tenancy.Config {
	return tenancy.Config{Fabric: "mixnet", Config: netsim.Config{Backend: "fluid"}, LinkGbps: 100}
}

// tenantDigest fingerprints one tenant's stats for the bitwise
// co-sim-vs-serial identity check.
func tenantDigest(stats []trainsim.IterStats) string {
	b, err := json.Marshal(stats)
	if err != nil {
		return err.Error()
	}
	return string(b)
}

// contendedMeans runs one contended co-simulation (optionally arbitrated)
// and returns each tenant's mean iteration time keyed by job name.
func contendedMeans(jobs []tenancy.Job, iters, slots int, policy string) (map[string]float64, error) {
	cfg := tenancyCfg()
	cfg.Contend = true
	cfg.ArbiterSlots = slots
	cfg.ArbiterPolicy = policy
	cs, err := tenancy.New(cfg, jobs)
	if err != nil {
		return nil, err
	}
	if err := cs.Run(iters); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(cs.Tenants))
	for _, t := range cs.Tenants {
		out[t.Job.Name] = trainsim.MeanIterTime(t.Stats)
	}
	return out, nil
}

// TenancyBench measures multi-tenant co-scheduling: the pooling cohort (N
// identical quick-Mixtral jobs) compares the merged co-sim drain against
// the serial-sum baseline — wall clock and bitwise identity — and the
// interference cohort (quick-Mixtral beside DP-heavy neighbours) prices
// cross-tenant contention and single-slot reconfiguration arbitration.
func TenancyBench(scale Scale, tenants int) (Table, *TenancyReport, error) {
	t := Table{
		ID:    "tenancy",
		Title: fmt.Sprintf("Multi-tenant co-scheduling (%d jobs, quick-Mixtral + DP-heavy, 100G MixNet)", tenants),
		Header: []string{"Tenant", "DP", "Servers", "Solo (s)", "Contended (s)",
			"Interference", "+arbiter fair", "+arbiter priority"},
	}
	if tenants < 2 {
		return t, nil, fmt.Errorf("experiments: tenancy bench needs >= 2 tenants, got %d", tenants)
	}
	iters := itersFor(scale)
	jobs := tenancyJobs(tenants, 9, false)
	rep := &TenancyReport{
		Scale: scaleName(scale), Fabric: "mixnet", Backend: "fluid", Iterations: iters,
		GoMaxProcs: runtime.GOMAXPROCS(0), HostCores: runtime.NumCPU(),
		SingleCore: runtime.GOMAXPROCS(0) <= 1,
	}

	// Merged co-sim drain: all tenants' plans on one shared backend.
	cs, err := tenancy.New(tenancyCfg(), jobs)
	if err != nil {
		return t, nil, err
	}
	start := time.Now()
	if err := cs.Run(iters); err != nil {
		return t, nil, err
	}
	rep.CoSimSec = time.Since(start).Seconds()

	// Serial-sum baseline: each tenant alone on its own backend, in sequence.
	start = time.Now()
	solo, err := tenancy.RunSerial(tenancyCfg(), jobs, iters)
	if err != nil {
		return t, nil, err
	}
	rep.SerialSec = time.Since(start).Seconds()
	rep.Identical = true
	for i, tr := range cs.Tenants {
		if tenantDigest(tr.Stats) != tenantDigest(solo.Tenants[i].Stats) {
			rep.Identical = false
		}
	}
	ms := cs.MergedStats()
	rep.MergedBatches, rep.MergedWidthMax = ms.Batches, ms.WidthMax
	rep.MergedWidthMean, rep.MergedFusedSteps = ms.WidthMean, ms.FusedSteps

	for _, tr := range cs.Tenants {
		rep.Tenants = append(rep.Tenants, TenancyTenant{
			Name: tr.Job.Name, Model: moe.Mixtral8x7B.Name, DP: tr.Engine.Plan.DP,
			Servers: tr.Servers, BaseServer: tr.BaseServer,
		})
	}

	// Interference tables on the mixed cohort — quick-Mixtral beside
	// DP-heavy neighbours: contention pricing alone, then with one shared
	// reconfiguration slot under each arbitration policy.
	mixed := tenancyJobs(tenants, 9, true)
	mixedSolo, err := tenancy.RunSerial(tenancyCfg(), mixed, iters)
	if err != nil {
		return t, nil, err
	}
	contended, err := contendedMeans(mixed, iters, 0, "")
	if err != nil {
		return t, nil, err
	}
	fair, err := contendedMeans(mixed, iters, 1, tenancy.PolicyFair)
	if err != nil {
		return t, nil, err
	}
	prio, err := contendedMeans(mixed, iters, 1, tenancy.PolicyPriority)
	if err != nil {
		return t, nil, err
	}
	for _, tr := range mixedSolo.Tenants {
		name := tr.Job.Name
		soloMean := trainsim.MeanIterTime(tr.Stats)
		row := TenancyInterference{Name: name, SoloSec: soloMean, CoSec: contended[name]}
		if soloMean > 0 {
			row.OverheadPct = (contended[name]/soloMean - 1) * 100
			row.FairPct = (fair[name]/soloMean - 1) * 100
			row.PriorityPct = (prio[name]/soloMean - 1) * 100
		}
		rep.Interference = append(rep.Interference, row)
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(tr.Engine.Plan.DP), fmt.Sprint(tr.Servers),
			f3(soloMean), f3(contended[name]),
			fmt.Sprintf("%+.1f%%", row.OverheadPct),
			fmt.Sprintf("%+.1f%%", row.FairPct),
			fmt.Sprintf("%+.1f%%", row.PriorityPct),
		})
	}
	t.Notes = fmt.Sprintf("wall clock: co-sim %.2fs, serial-sum %.2fs (identical=%v)",
		rep.CoSimSec, rep.SerialSec, rep.Identical)
	return t, rep, nil
}

// scaleName renders a Scale for report labels.
func scaleName(s Scale) string {
	if s == Full {
		return "full"
	}
	return "quick"
}
