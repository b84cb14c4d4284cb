// Command perfbench times the MixNet simulator library and the what-if
// service on the same stream of what-if questions ("what is the iteration
// time of this training job on this fabric?"), end to end and per layer,
// from outside the program.
//
// Run it from the repository root; run.sh builds it first:
//
//	bash perfbench/run.sh --workload iter-mixnet --seed 1 --seconds 35 --trace 0
//
// Each round asks one question twice, in alternating order: once through the
// simulator library (mixnet.Simulate, or scenario.Run for a failure drill: a
// fresh engine per call, as the batch CLIs run) and once through the what-if
// service (the serve package's HTTP handler on a loopback listener, queried
// by one closed-loop client). The two answers must be byte-identical and
// physically plausible; every mismatch or error counts as a failed query.
// At even intervals through the run a fresh service is set up (started and
// warmed with the workload's first questions, each answer checked) and shut
// down again, so set-up is measured under the same conditions as the rounds.
//
// Every figure is CPU time of the process, over all its threads (see
// cputime.go), not wall-clock latency: on a shared host a wall-clock reading
// also counts the time a neighbour holds the CPU. Neighbours still slow the
// CPU itself, so every cost is scaled to a reference machine's speed by a
// calibration computed between the rounds (see calib.go). Within a run such
// a slowdown only ever adds to an answer's cost, so the answer figures are
// the 10th percentile of the cost per answer, which follows the program's
// own cost and leaves out most of the answers a burst of load hit.
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics: that percentile for each front end and the median cost of one
// set-up. With --trace 1 the same loop runs under a CPU profile, and the line
// carries per-layer metrics, unscaled: CPU time per round attributed to the
// program's layers by stack frame (see profile.go), the service's own
// execution time and overhead, its cache hit ratios, and the calibration's
// own CPU time, which shows how fast the host ran.
//
// The process runs on one Go processor (GOMAXPROCS=1), with the garbage
// collector at GOGC=400. On one processor an answer's CPU time is the work it
// does: no threads spin waiting for work, and no parallel step loop hands
// steps between threads, whose cost depends on what else the host runs. At
// the default GOGC of 100 the live heap here is so small that the collector
// runs dozens of times per answer, and its per-cycle overhead, not the
// simulator, sets the cost.
//
// The workloads share one question shape (Mixtral 8x7B on 32 GPUs of a
// MixNet fabric, two iterations) and vary what the layers see:
//
//   - iter-mixnet: every question a new gate seed. The OCS controller and
//     topology-aware all-to-all compilation dominate; the service's result
//     cache never hits, its engine pool does.
//   - drill: failure drills (NIC, GPU, server, and two compositions), new
//     seed per question. Two engine runs per answer, failure injection and
//     unwind, and the service's verified engine restore.
//   - repeat: the iter-mixnet stream restricted to four seeds, so the service
//     answers from its result cache while the library still recomputes every
//     answer.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"time"

	"mixnet"
	"mixnet/internal/scenario"
)

// question is one what-if query. Its JSON form is the service's request
// body; Scenario selects /v1/failure instead of /v1/iter.
type question struct {
	Model      string `json:"model"`
	Fabric     string `json:"fabric"`
	Iterations int    `json:"iterations"`
	Seed       int64  `json:"seed"`
	Scenario   string `json:"scenario,omitempty"`
}

type workload struct {
	name string
	// warm is how many leading questions of the stream each set-up sends to
	// a fresh service; the rounds start at question warm.
	warm int
	ask  func(seed int64, i int) question
}

const (
	model  = "Mixtral 8x7B"
	fabric = "mixnet"
)

var drills = []string{
	scenario.FailNIC, scenario.FailGPU, scenario.FailServer, scenario.FailNICGPU, scenario.FailServerNIC,
}

// fresh is the question stream with a new gate seed per question; streams
// of different --seed values do not overlap.
func fresh(seed int64, i int) question {
	return question{Model: model, Fabric: fabric, Iterations: 2, Seed: seed*1_000_000 + int64(i)}
}

var workloads = []workload{
	{name: "iter-mixnet", warm: 1, ask: fresh},
	{name: "drill", warm: 1, ask: func(seed int64, i int) question {
		q := fresh(seed, i)
		q.Scenario = drills[(int(seed%int64(len(drills)))+len(drills)+i)%len(drills)]
		return q
	}},
	{name: "repeat", warm: 4, ask: func(seed int64, i int) question {
		return fresh(seed, i%4)
	}},
}

// simulate answers q through the simulator library.
func simulate(q question) (any, error) {
	if q.Scenario != "" {
		return scenario.Run(q.Scenario, scenario.Config{
			Model: q.Model, Fabric: q.Fabric, Iterations: q.Iterations, Seed: q.Seed,
		})
	}
	return mixnet.Simulate(mixnet.SimConfig{
		Model: q.Model, Fabric: mixnet.MixNet, Iterations: q.Iterations, Seed: q.Seed,
	})
}

// plausible rejects answers no correct simulation produces.
func plausible(v any) error {
	pos := func(name string, x float64) error {
		if !(x > 0) || math.IsInf(x, 0) {
			return fmt.Errorf("%s = %g, want a positive finite time", name, x)
		}
		return nil
	}
	switch r := v.(type) {
	case mixnet.Result:
		if len(r.Stats) == 0 || r.GPUs <= 0 {
			return fmt.Errorf("empty result: %d iterations on %d GPUs", len(r.Stats), r.GPUs)
		}
		return pos("mean iteration time", r.MeanIterTime)
	case scenario.Result:
		if err := pos("baseline iteration time", r.BaselineIterTime); err != nil {
			return err
		}
		return pos("drill iteration time", r.MeanIterTime)
	}
	return fmt.Errorf("unexpected answer type %T", v)
}

// libAnswer returns one library answer in the service's JSON form, and the
// CPU time it took.
func libAnswer(q question) ([]byte, time.Duration, error) {
	c0 := cpuNow()
	v, err := simulate(q)
	d := cpuNow() - c0
	if err != nil {
		return nil, d, err
	}
	if err := plausible(v); err != nil {
		return nil, d, fmt.Errorf("%+v: %w", q, err)
	}
	b, err := json.Marshal(v)
	return b, d, err
}

// setupRuns is how many throwaway services a run sets up, evenly spread
// over its measurement window; the median cost is reported.
const setupRuns = 11

// setUp starts a fresh service and warms it with the workload's first
// questions, checking each answer against want (the library's) and
// recording mismatches in t. It returns the service and the CPU seconds the
// set-up took.
func setUp(w workload, seed int64, want [][]byte, t *tally) (*service, float64, error) {
	c0 := cpuNow()
	svc, err := startService()
	if err != nil {
		return nil, 0, err
	}
	for i := 0; i < w.warm; i++ {
		a, err := svc.ask(w.ask(seed, i))
		if err != nil {
			svc.stop()
			return nil, 0, err
		}
		t.attempted++
		if !bytes.Equal(a.result, want[i]) {
			t.fail(fmt.Errorf("warm-up question %d: service and library answers differ", i))
		}
	}
	return svc, (cpuNow() - c0).Seconds(), nil
}

// tally collects one run's measurements.
type tally struct {
	lib, svc          []float64 // CPU time of every answer received, ms
	setups            []float64 // CPU time of every throwaway set-up, s
	exec, overhead    float64   // sums over service answers, ms
	attempted, failed int       // answers checked: warm-up ones, then two per round
}

func (t *tally) fail(err error) {
	t.failed++
	fmt.Fprintln(os.Stderr, "perfbench:", err)
}

// measure runs rounds on svc for the given window, each after one
// calibration run, and sets up and shuts down a throwaway service after
// every window/setupRuns of it.
func measure(w workload, seed int64, svc *service, want [][]byte, window time.Duration, cal *calib, t *tally) error {
	start := time.Now()
	deadline := start.Add(window)
	nextSetup := start.Add(window / setupRuns / 2)
	for i := w.warm; time.Now().Before(deadline); i++ {
		if time.Now().After(nextSetup) {
			s, sec, err := setUp(w, seed, want, t)
			if err != nil {
				return fmt.Errorf("set-up: %w", err)
			}
			s.stop()
			t.setups = append(t.setups, sec)
			nextSetup = nextSetup.Add(window / setupRuns)
		}
		cal.run()
		q := w.ask(seed, i)
		var (
			libOut []byte
			libCPU time.Duration
			libErr error
		)
		libFirst := i%2 == 0
		if libFirst {
			libOut, libCPU, libErr = libAnswer(q)
		}
		c0 := cpuNow()
		a, svcErr := svc.ask(q)
		svcCPU := cpuNow() - c0
		if !libFirst {
			libOut, libCPU, libErr = libAnswer(q)
		}
		t.attempted += 2
		if libErr != nil {
			t.fail(fmt.Errorf("library: %w", libErr))
		} else {
			t.lib = append(t.lib, ms(libCPU))
		}
		if svcErr != nil {
			t.fail(fmt.Errorf("service: %w", svcErr))
			continue
		}
		t.svc = append(t.svc, ms(svcCPU))
		t.exec += a.exec * 1e3
		t.overhead += ms(a.total) - a.exec*1e3
		if libErr == nil && !bytes.Equal(a.result, libOut) {
			t.fail(fmt.Errorf("%+v: service and library answers differ", q))
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the p-quantile of xs (0 <= p <= 1, xs not empty), linearly
// interpolated between order statistics.
func quantile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(w workload, seed int64, seconds int, trace bool) (report, error) {
	t := &tally{}
	want := make([][]byte, w.warm)
	for i := range want {
		b, _, err := libAnswer(w.ask(seed, i))
		if err != nil {
			return report{}, fmt.Errorf("warm-up question %d: %w", i, err)
		}
		want[i] = b
	}
	svc, _, err := setUp(w, seed, want, t)
	if err != nil {
		return report{}, fmt.Errorf("set-up: %w", err)
	}
	defer svc.stop()

	var before serviceStats
	var prof bytes.Buffer
	if trace {
		if before, err = svc.stats(); err != nil {
			return report{}, err
		}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return report{}, err
		}
	}
	cal := newCalib()
	runtime.GC()
	err = measure(w, seed, svc, want, time.Duration(seconds)*time.Second, cal, t)
	if trace {
		pprof.StopCPUProfile()
	}
	if err != nil {
		return report{}, err
	}

	if len(t.lib) == 0 || len(t.svc) == 0 || len(t.setups) == 0 {
		return report{}, fmt.Errorf("no successful answers (%d attempted, %d failed)", t.attempted, t.failed)
	}
	r := report{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metric{}}
	if !trace {
		k := cal.scale()
		r.Metrics["lib_cpu_p10_ms"] = metric{k * quantile(t.lib, 0.1), "ms"}
		r.Metrics["svc_cpu_p10_ms"] = metric{k * quantile(t.svc, 0.1), "ms"}
		r.Metrics["setup_s"] = metric{k * quantile(t.setups, 0.5), "s"}
		return r, nil
	}

	cpu, err := cpuByLayer(prof.Bytes())
	if err != nil {
		return report{}, err
	}
	rounds := float64(len(t.svc))
	for _, l := range layers {
		r.Metrics["cpu_"+l+"_ms"] = metric{float64(cpu[l]) / 1e6 / rounds, "ms"}
	}
	r.Metrics["svc_exec_ms"] = metric{t.exec / rounds, "ms"}
	r.Metrics["svc_overhead_ms"] = metric{t.overhead / rounds, "ms"}
	r.Metrics["calib_ms"] = metric{quantile(cal.times, 0.5), "ms"}
	after, err := svc.stats()
	if err != nil {
		return report{}, err
	}
	r.Metrics["svc_pool_hit_ratio"] = metric{after.Pool.ratioSince(before.Pool), "ratio"}
	r.Metrics["svc_result_cache_hit_ratio"] = metric{after.ResultCache.ratioSince(before.ResultCache), "ratio"}
	r.Metrics["svc_memo_hit_ratio"] = metric{after.Memo.ratioSince(before.Memo), "ratio"}
	return r, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: iter-mixnet | drill | repeat")
	seed := flag.Int64("seed", 1, "seed the workload's questions are generated from")
	seconds := flag.Int("seconds", 35, "measurement window in seconds (1-60)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics under a CPU profile")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload iter-mixnet|drill|repeat, --seconds 1-60, --trace 0|1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(400)
	r, err := run(*w, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
