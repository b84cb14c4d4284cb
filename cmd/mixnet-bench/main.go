// mixnet-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	mixnet-bench                 # all experiments, quick sizing
//	mixnet-bench -full           # paper-scale dimensions (slow)
//	mixnet-bench -only fig12     # a single experiment
//	mixnet-bench -list           # available experiment ids
//	mixnet-bench -par 8          # worker-pool width (default GOMAXPROCS)
//	mixnet-bench -workers 8      # packet-backend shard parallelism
//	mixnet-bench -overlap iter   # compute/comm overlap + cross-iteration pipelining
//	mixnet-bench -json           # also write BENCH_<scale>.json
//	mixnet-bench -sweep          # every backend, one combined fidelity report
//	mixnet-bench -scale large    # folded (and ≤32k eager reference) builds at 8k-256k GPUs -> BENCH_large_ecmp.json
//	mixnet-bench -tenants 2      # co-scheduled jobs on one shared fabric -> BENCH_tenancy.json
//
// Experiments run concurrently on a worker pool; output order and table
// contents are identical to a sequential run regardless of -par.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"time"

	"mixnet"
	"mixnet/internal/experiments"
	"mixnet/internal/netsim"
	"mixnet/internal/packetsim"
)

// benchReport is the machine-readable BENCH_*.json schema.
type benchReport struct {
	Scale        string            `json:"scale"`
	Backend      string            `json:"backend"`
	CC           string            `json:"cc,omitempty"`
	Workers      int               `json:"workers"`
	SimWorkers   int               `json:"sim_workers,omitempty"`
	Overlap      string            `json:"overlap,omitempty"`
	TotalSeconds float64           `json:"total_seconds"`
	Experiments  []benchExperiment `json:"experiments"`
	// MultiCore records the packet backend's wall-clock sharding speedup
	// (or a single_core marker when only one core is available); present
	// on packet-backend runs only.
	MultiCore *experiments.MultiCoreReport `json:"multi_core,omitempty"`
}

type benchExperiment struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Seconds float64    `json:"seconds"`
	Header  []string   `json:"header"`
	Rows    [][]string `json:"rows"`
	Notes   string     `json:"notes,omitempty"`
}

// sweepReport is the combined fidelity report of -sweep: the same
// experiments on every backend, with per-backend runtimes and numeric-cell
// deviations relative to fluid.
type sweepReport struct {
	Scale    string                       `json:"scale"`
	Backends []string                     `json:"backends"`
	Rows     []sweepRow                   `json:"rows"`
	Tables   map[string][]benchExperiment `json:"tables"`
}

type sweepRow struct {
	ID      string             `json:"id"`
	Seconds map[string]float64 `json:"seconds"`
	// Deviation is the mean absolute relative deviation of an experiment's
	// numeric table cells from the fluid backend's cells, and Cells the
	// count of cells that comparison averaged over (both keyed by backend).
	Deviation map[string]float64 `json:"deviation"`
	Cells     map[string]int     `json:"numeric_cells"`
}

func main() {
	var (
		full       = flag.Bool("full", false, "paper-scale dimensions (slow)")
		backend    = flag.String("backend", "", "network simulation backend: fluid (default) | packet | analytic | analytic-ecmp")
		cc         = flag.String("cc", "", "packet-backend congestion control: fixed (default) | dcqcn | swift")
		only       = flag.String("only", "", "run a single experiment id")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		par        = flag.Int("par", 0, "worker-pool width across experiments (0 = GOMAXPROCS)")
		simWorkers = flag.Int("workers", 0, "packet-backend event loops per engine (0/1 = one loop, -1 = GOMAXPROCS; byte-identical results)")
		overlap    = flag.String("overlap", "", "compute/communication overlap discipline: none (default) | layer | iter")
		scaleFlag  = flag.String("scale", "", "large: quantify the analytic backends at 8k-256k GPU scale and write BENCH_large_ecmp.json")
		tenants    = flag.Int("tenants", 0, "co-schedule N training jobs on one shared fabric and write BENCH_tenancy.json (>= 2)")
		sweep      = flag.Bool("sweep", false, "run the selected experiments on every backend and emit one combined fidelity report")
		jsonOut    = flag.Bool("json", false, "write machine-readable BENCH_<scale>.json")
		jsonPath   = flag.String("json-path", "", "override the BENCH_*.json output path")
	)
	flag.Parse()

	if *list {
		for _, id := range mixnet.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	scale, scaleName := experiments.Quick, "quick"
	if *full {
		scale, scaleName = experiments.Full, "full"
	}
	defaults := experiments.Defaults{
		Exec:    netsim.Config{Backend: *backend, CC: *cc, Workers: *simWorkers},
		Overlap: *overlap,
	}
	if err := experiments.SetDefaults(defaults); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	if *tenants != 0 {
		if err := runTenancy(*tenants, scale, *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *scaleFlag != "" {
		if *scaleFlag != "large" {
			fmt.Fprintf(os.Stderr, "unknown -scale %q (only \"large\" is defined; use -full for paper-scale experiment dimensions)\n", *scaleFlag)
			os.Exit(2)
		}
		if err := runLargeEcmp(*jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	ids := mixnet.ExperimentIDs()
	if *only != "" {
		ids = []string{*only}
	}
	workers := experiments.Workers(*par, len(ids))

	if *sweep {
		if *cc != "" {
			fmt.Fprintln(os.Stderr, "-sweep compares all backends and only supports the fixed controller; drop -cc")
			os.Exit(2)
		}
		if *backend != "" {
			fmt.Fprintln(os.Stderr, "-sweep runs every backend; drop -backend")
			os.Exit(2)
		}
		if err := runSweep(ids, defaults, scale, scaleName, workers, *jsonOut || *jsonPath != "", *jsonPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	report := benchReport{
		Scale: scaleName, Backend: defaults.Exec.BackendName(), CC: *cc,
		Workers: workers, SimWorkers: *simWorkers,
	}
	if *overlap != "none" {
		report.Overlap = *overlap
	}
	if report.Backend == "packet" {
		report.MultiCore = experiments.MultiCoreWallClock()
	}
	failed := false
	start := time.Now()
	// Stream finished tables in input order as the pool completes them.
	results := experiments.RunIDsStream(ids, scale, workers, func(r experiments.RunResult) {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", r.ID, r.Err)
			failed = true
			return
		}
		fmt.Print(r.Table.String())
		fmt.Printf("(%s in %.1fs)\n\n", r.ID, r.Elapsed.Seconds())
		report.Experiments = append(report.Experiments, benchExperiment{
			ID: r.ID, Title: r.Table.Title, Seconds: r.Elapsed.Seconds(),
			Header: r.Table.Header, Rows: r.Table.Rows, Notes: r.Table.Notes,
		})
	})
	total := time.Since(start)
	report.TotalSeconds = total.Seconds()
	fmt.Printf("total: %d experiments in %.1fs\n", len(results), total.Seconds())

	if *jsonOut || *jsonPath != "" {
		path := *jsonPath
		if path == "" {
			suffix := ""
			if b := report.Backend; b != netsim.DefaultName {
				suffix = "_" + b
			}
			if c := *cc; c != "" && c != packetsim.CCFixed {
				suffix += "_" + c
			}
			path = fmt.Sprintf("BENCH_%s%s.json", scaleName, suffix)
		}
		if err := writeJSON(path, report); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			failed = true
		} else {
			fmt.Printf("wrote %s\n", path)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// runTenancy co-schedules n jobs on one shared fabric, prints the
// interference table and writes the co-sim-vs-serial-sum report.
func runTenancy(n int, scale experiments.Scale, path string) error {
	t, rep, err := experiments.TenancyBench(scale, n)
	if err != nil {
		return err
	}
	fmt.Print(t.String())
	if path == "" {
		path = "BENCH_tenancy.json"
	}
	if err := writeJSON(path, rep); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// largeEcmpReport is the BENCH_large_ecmp.json schema.
type largeEcmpReport struct {
	Scale string                     `json:"scale"`
	Rows  []experiments.LargeEcmpRow `json:"rows"`
}

// runLargeEcmp quantifies the analytic backends at 8k-256k GPU scale —
// eager and symmetry-folded builds up to 32k (makespans verified bitwise
// identical), folded-only beyond — printing the build/compile/heap and
// collision-bound table and writing BENCH_large_ecmp.json.
func runLargeEcmp(path string) error {
	t, rows, err := experiments.LargeScaleEcmp([]int{8192, 16384, 32768, 102400, 163840, 262144}, 64, 64<<20)
	if err != nil {
		return err
	}
	fmt.Print(t.String())
	if path == "" {
		path = "BENCH_large_ecmp.json"
	}
	if err := writeJSON(path, largeEcmpReport{Scale: "large", Rows: rows}); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// runSweep executes the same experiment set once per backend and emits one
// combined fidelity report: per-backend runtime plus the mean absolute
// relative deviation of every numeric table cell from the fluid run. It
// replaces hand-diffing separate BENCH_*.json files per backend.
func runSweep(ids []string, defaults experiments.Defaults, scale experiments.Scale, scaleName string, workers int, writeFile bool, path string) error {
	backends := mixnet.SimBackends()
	tables := map[string]map[string]experiments.RunResult{} // backend -> id -> result
	for _, b := range backends {
		defaults.Exec.Backend = b
		if err := experiments.SetDefaults(defaults); err != nil {
			return err
		}
		fmt.Printf("sweep: running %d experiments on %s...\n", len(ids), b)
		byID := map[string]experiments.RunResult{}
		for _, r := range experiments.RunIDs(ids, scale, workers) {
			if r.Err != nil {
				return fmt.Errorf("%s/%s: %w", b, r.ID, r.Err)
			}
			byID[r.ID] = r
		}
		tables[b] = byID
	}
	rep := sweepReport{Scale: scaleName, Backends: backends, Tables: map[string][]benchExperiment{}}
	fmt.Printf("\n== sweep: backend fidelity report (%s scale) ==\n", scaleName)
	header := []string{"experiment"}
	for _, b := range backends {
		header = append(header, b+" (s)")
	}
	for _, b := range backends[1:] {
		header = append(header, b+" dev")
	}
	fmt.Println(strings.Join(header, "  "))
	for _, id := range ids {
		row := sweepRow{ID: id, Seconds: map[string]float64{}, Deviation: map[string]float64{}, Cells: map[string]int{}}
		cols := []string{id}
		ref := tables[backends[0]][id].Table
		for _, b := range backends {
			r := tables[b][id]
			row.Seconds[b] = r.Elapsed.Seconds()
			cols = append(cols, fmt.Sprintf("%.1f", r.Elapsed.Seconds()))
			rep.Tables[b] = append(rep.Tables[b], benchExperiment{
				ID: r.ID, Title: r.Table.Title, Seconds: r.Elapsed.Seconds(),
				Header: r.Table.Header, Rows: r.Table.Rows, Notes: r.Table.Notes,
			})
		}
		for _, b := range backends[1:] {
			dev, n := tableDeviation(ref, tables[b][id].Table)
			row.Deviation[b] = dev
			row.Cells[b] = n
			cols = append(cols, fmt.Sprintf("%.1f%%", dev*100))
		}
		rep.Rows = append(rep.Rows, row)
		fmt.Println(strings.Join(cols, "  "))
	}
	fmt.Println("dev = mean |cell - fluid cell| / max(|cell|, |fluid cell|) over numeric table cells")
	if writeFile {
		if path == "" {
			path = fmt.Sprintf("BENCH_sweep_%s.json", scaleName)
		}
		if err := writeJSON(path, rep); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	return nil
}

// tableDeviation computes the mean absolute relative deviation of other's
// numeric cells from ref's, cell by cell. Non-numeric cells (labels,
// units), the leading column (scenario names and workload parameters,
// identical across backends by construction — counting them would dilute
// the mean), and shape mismatches are skipped; the count of compared cells
// is returned.
func tableDeviation(ref, other experiments.Table) (float64, int) {
	var sum float64
	n := 0
	for i, row := range ref.Rows {
		if i >= len(other.Rows) {
			break
		}
		for j, cell := range row {
			if j == 0 {
				continue
			}
			if j >= len(other.Rows[i]) {
				break
			}
			a, okA := parseCell(cell)
			b, okB := parseCell(other.Rows[i][j])
			if !okA || !okB {
				continue
			}
			// Normalise by the larger magnitude so a zero reference cell
			// contributes at most 100% instead of swamping the mean.
			den := math.Max(math.Abs(a), math.Abs(b))
			if den < 1e-12 {
				continue // both ~0: exact agreement
			}
			sum += math.Abs(b-a) / den
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

// parseCell extracts a float from a table cell, tolerating unit suffixes
// ("12.3%", "1.7x", "0.42s", "8.1ms", "950us"). Longer suffixes are
// stripped first so "ms"/"us" aren't left as a trailing "m"/"u" by the
// bare-"s" rule.
func parseCell(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	for _, suf := range []string{"%", "ms", "us", "s", "x"} {
		if strings.HasSuffix(s, suf) {
			s = strings.TrimSuffix(s, suf)
			break
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(buf, '\n'), 0o644)
	}
	if err != nil {
		return fmt.Errorf("write %s: %v", path, err)
	}
	return nil
}
