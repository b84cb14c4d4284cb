package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"mixnet"
	"mixnet/internal/scenario"
	"mixnet/internal/topo"
)

// The selftest load driver: boots the service on a loopback listener,
// proves responses byte-identical to the equivalent batch-library calls
// (the exact entry points cmd/mixnet-sim and cmd/mixnet-cost use), then
// measures cold/warm latency and sustained queries/sec at increasing
// client counts. The report lands in BENCH_serve.json.

// BenchOptions tunes the selftest load driver.
type BenchOptions struct {
	// Clients lists the concurrent-client counts to measure (default 1, 2, 8).
	Clients []int
	// Window is the measurement window per client count (default 1s).
	Window time.Duration
	// Iterations per query (default 2, the scenario default).
	Iterations int
}

// QPSPoint is one sustained-throughput measurement.
type QPSPoint struct {
	Clients int     `json:"clients"`
	Queries int     `json:"queries"`
	Seconds float64 `json:"seconds"`
	QPS     float64 `json:"qps"`
}

// IdentityCheck records one byte-identity comparison between a served
// response and the equivalent direct library call.
type IdentityCheck struct {
	Name  string `json:"name"`
	Bytes int    `json:"bytes"` // length of the compared result JSON
	OK    bool   `json:"ok"`
}

// BenchReport is the BENCH_serve.json schema.
type BenchReport struct {
	Model      string `json:"model"`
	Fabric     string `json:"fabric"`
	Backend    string `json:"backend"`
	Iterations int    `json:"iterations"`

	ColdIterSec float64 `json:"cold_iter_query_sec"` // first query: build + compile
	WarmIterSec float64 `json:"warm_iter_query_sec"` // pooled engine, cached routes (no_cache: engine must run)
	Speedup     float64 `json:"cold_over_warm"`

	// CachedIterSec is the fully identical query replayed from the result
	// cache: no engine runs, the stored bytes stream back directly.
	CachedIterSec float64 `json:"cached_hit_query_sec"`
	CachedSpeedup float64 `json:"cold_over_cached"`

	Throughput []QPSPoint      `json:"throughput"`
	Identity   []IdentityCheck `json:"identity"`

	Stats StatsCounters `json:"stats"` // final pool/result-cache/query counters
}

// client is a minimal JSON query client against one serve instance.
type client struct {
	base string
	http *http.Client
}

func (c *client) post(path string, body any) (json.RawMessage, Meta, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, Meta{}, err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return nil, Meta{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, Meta{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, Meta{}, fmt.Errorf("%s: HTTP %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	var env struct {
		Result json.RawMessage `json:"result"`
		Meta   Meta            `json:"meta"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, Meta{}, fmt.Errorf("%s: decode envelope: %w", path, err)
	}
	return env.Result, env.Meta, nil
}

// Selftest runs the full service validation and load measurement,
// logging progress to logw. The returned report is ready for writing to
// BENCH_serve.json; err is non-nil when any identity check fails.
func Selftest(opts BenchOptions, logw io.Writer) (*BenchReport, error) {
	if len(opts.Clients) == 0 {
		opts.Clients = []int{1, 2, 8}
	}
	if opts.Window <= 0 {
		opts.Window = time.Second
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 2
	}
	if logw == nil {
		logw = io.Discard
	}

	maxClients := 0
	for _, n := range opts.Clients {
		if n > maxClients {
			maxClients = n
		}
	}
	srv := New(Options{Pool: NewPool(maxClients, 0, 0), Workers: maxClients, Timeout: 5 * time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer func() {
		hs.Close()
		srv.Drain()
	}()
	c := &client{base: "http://" + ln.Addr().String(), http: &http.Client{}}
	fmt.Fprintf(logw, "serve selftest: listening on %s\n", ln.Addr())

	iterQ := QueryConfig{Fabric: "fat-tree", Iterations: opts.Iterations, Seed: 1}
	report := &BenchReport{
		Model:      "Mixtral 8x7B",
		Fabric:     iterQ.Fabric,
		Backend:    "fluid",
		Iterations: opts.Iterations,
	}

	// Phase 1: byte-identity against the direct library calls.
	simRes, err := simulateDirect(iterQ)
	if err != nil {
		return nil, err
	}
	want, err := json.Marshal(simRes)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	cold, _, err := c.post("/v1/iter", iterQ)
	if err != nil {
		return nil, fmt.Errorf("cold iter query: %w", err)
	}
	report.ColdIterSec = time.Since(t0).Seconds()
	report.Identity = append(report.Identity,
		IdentityCheck{Name: "iter-cold-vs-simulate", Bytes: len(cold), OK: bytes.Equal(cold, want)})

	// Warm path: no_cache forces the engine to run (a pooled engine with
	// cached routes), measuring serving latency rather than cache replay.
	warmQ := iterQ
	warmQ.NoCache = true
	t0 = time.Now()
	warm, warmMeta, err := c.post("/v1/iter", warmQ)
	if err != nil {
		return nil, fmt.Errorf("warm iter query: %w", err)
	}
	report.WarmIterSec = time.Since(t0).Seconds()
	if report.WarmIterSec > 0 {
		report.Speedup = report.ColdIterSec / report.WarmIterSec
	}
	report.Identity = append(report.Identity,
		IdentityCheck{Name: "iter-warm-vs-cold", Bytes: len(warm), OK: bytes.Equal(warm, cold)})

	// Cached path: the fully identical query replays the cold response's
	// stored bytes without touching an engine.
	t0 = time.Now()
	cached, cachedMeta, err := c.post("/v1/iter", iterQ)
	if err != nil {
		return nil, fmt.Errorf("cached iter query: %w", err)
	}
	report.CachedIterSec = time.Since(t0).Seconds()
	if report.CachedIterSec > 0 {
		report.CachedSpeedup = report.ColdIterSec / report.CachedIterSec
	}
	report.Identity = append(report.Identity,
		IdentityCheck{Name: "iter-cached-vs-cold", Bytes: len(cached),
			OK: cachedMeta.Cached && bytes.Equal(cached, cold)})

	failQ := failureQuery{QueryConfig: iterQ, Scenario: scenario.FailNIC}
	wantFail, err := runScenarioDirect(failQ)
	if err != nil {
		return nil, err
	}
	gotFail, _, err := c.post("/v1/failure", failQ)
	if err != nil {
		return nil, fmt.Errorf("failure query: %w", err)
	}
	report.Identity = append(report.Identity,
		IdentityCheck{Name: "failure-vs-scenario-run", Bytes: len(gotFail), OK: bytes.Equal(gotFail, wantFail)})

	// The drill's engine must not poison later clean queries: the next
	// clean result must still match the cold one bit for bit. no_cache
	// forces a real engine run — a cache replay would prove nothing.
	postDrill, _, err := c.post("/v1/iter", warmQ)
	if err != nil {
		return nil, fmt.Errorf("post-drill iter query: %w", err)
	}
	report.Identity = append(report.Identity,
		IdentityCheck{Name: "iter-after-drill-vs-cold", Bytes: len(postDrill), OK: bytes.Equal(postDrill, cold)})

	costQ := costQuery{Fabric: "mixnet", Servers: 64, Gbps: 400}
	wantCostBD, err := mixnet.NetworkCost(topo.FabricMixNet, costQ.Servers, costQ.Gbps)
	if err != nil {
		return nil, err
	}
	wantCost, err := json.Marshal(wantCostBD)
	if err != nil {
		return nil, err
	}
	gotCost, _, err := c.post("/v1/cost", costQ)
	if err != nil {
		return nil, fmt.Errorf("cost query: %w", err)
	}
	report.Identity = append(report.Identity,
		IdentityCheck{Name: "cost-vs-networkcost", Bytes: len(gotCost), OK: bytes.Equal(gotCost, wantCost)})

	for _, ck := range report.Identity {
		status := "ok"
		if !ck.OK {
			status = "MISMATCH"
		}
		fmt.Fprintf(logw, "identity %-26s %6d bytes  %s\n", ck.Name, ck.Bytes, status)
	}

	// Phase 2: sustained throughput at each client count. Every client
	// drives the warm iter query (distinct seeds exercise PrepareRun) with
	// a failure drill and a cost query mixed in every few rounds.
	for _, n := range opts.Clients {
		pt, err := c.measure(n, opts)
		if err != nil {
			return nil, err
		}
		report.Throughput = append(report.Throughput, pt)
		fmt.Fprintf(logw, "clients=%d  %d queries in %.2fs  %.1f q/s\n",
			pt.Clients, pt.Queries, pt.Seconds, pt.QPS)
	}

	report.Stats = srv.StatsSnapshot()
	fmt.Fprintf(logw, "pool: %d hits / %d misses / %d evictions / %d restores\n",
		report.Stats.Pool.Hits, report.Stats.Pool.Misses, report.Stats.Pool.Evictions,
		report.Stats.Pool.Restores)

	for _, ck := range report.Identity {
		if !ck.OK {
			return report, fmt.Errorf("serve selftest: identity check %s failed", ck.Name)
		}
	}
	if !warmMeta.Warm {
		return report, fmt.Errorf("serve selftest: warm query was not served by a pooled engine")
	}
	return report, nil
}

// measure drives n concurrent clients against the query mix for the
// configured window and reports sustained throughput.
func (c *client) measure(n int, opts BenchOptions) (QPSPoint, error) {
	deadline := time.Now().Add(opts.Window)
	type res struct {
		queries int
		err     error
	}
	ch := make(chan res, n)
	for w := 0; w < n; w++ {
		go func(w int) {
			count := 0
			for round := 0; time.Now().Before(deadline); round++ {
				var err error
				// no_cache throughout: the load mix measures engine serving
				// throughput, not result-cache replay.
				switch {
				case round%8 == 5:
					_, _, err = c.post("/v1/failure", failureQuery{
						QueryConfig: QueryConfig{Fabric: "fat-tree", Iterations: opts.Iterations, Seed: 1, NoCache: true},
						Scenario:    scenario.FailNIC,
					})
				case round%8 == 7:
					_, _, err = c.post("/v1/cost", costQuery{Fabric: "fat-tree", Servers: 64, Gbps: 400})
				default:
					_, _, err = c.post("/v1/iter", QueryConfig{
						Fabric: "fat-tree", Iterations: opts.Iterations,
						Seed: int64(1 + (w+round)%4), NoCache: true,
					})
				}
				if err != nil {
					ch <- res{count, err}
					return
				}
				count++
			}
			ch <- res{count, nil}
		}(w)
	}
	pt := QPSPoint{Clients: n}
	for w := 0; w < n; w++ {
		r := <-ch
		if r.err != nil {
			return pt, fmt.Errorf("load client: %w", r.err)
		}
		pt.Queries += r.queries
	}
	pt.Seconds = time.Since(deadline.Add(-opts.Window)).Seconds()
	if pt.Seconds > 0 {
		pt.QPS = float64(pt.Queries) / pt.Seconds
	}
	return pt, nil
}

// simulateDirect runs the batch-library call equivalent to an /v1/iter
// query (the exact path cmd/mixnet-sim takes).
func simulateDirect(q QueryConfig) (mixnet.Result, error) {
	cfg := q.scenarioConfig().WithDefaults()
	kind, ok := topo.Fabrics()[cfg.Fabric]
	if !ok {
		return mixnet.Result{}, fmt.Errorf("unknown fabric %q", cfg.Fabric)
	}
	return mixnet.Simulate(mixnet.SimConfig{
		Model: cfg.Model, Fabric: kind, Exec: cfg.Config, Overlap: cfg.Overlap,
		LinkGbps: cfg.LinkGbps, DP: cfg.DP, FirstA2A: cfg.FirstA2A,
		ReconfigDelaySec: cfg.ReconfigDelaySec,
		Iterations:       cfg.Iterations, Seed: cfg.Seed,
	})
}

// runScenarioDirect is the batch equivalent of an /v1/failure query.
func runScenarioDirect(q failureQuery) (json.RawMessage, error) {
	res, err := scenario.Run(q.Scenario, q.scenarioConfig())
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}
