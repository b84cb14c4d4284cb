package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mixnet/internal/failure"
	"mixnet/internal/scenario"
	"mixnet/internal/trainsim"
)

func testClient(t *testing.T, srv *Server) (*client, func()) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	return &client{base: ts.URL, http: ts.Client()}, func() {
		ts.Close()
		srv.Drain()
	}
}

// TestShapeKeyIgnoresPerQueryKnobs: seed, iterations and trace must not
// split the engine pool; everything shape-affecting must.
func TestShapeKeyIgnoresPerQueryKnobs(t *testing.T) {
	t.Parallel()
	base := scenario.Config{Fabric: "fat-tree", Seed: 1, Iterations: 2}
	alt := base
	alt.Seed, alt.Iterations = 99, 7
	if ShapeKey(base) != ShapeKey(alt) {
		t.Error("seed/iterations changed the shape key")
	}
	alt = base
	alt.Fabric = "mixnet"
	if ShapeKey(base) == ShapeKey(alt) {
		t.Error("fabric change did not change the shape key")
	}
	alt = base
	alt.Backend = "analytic"
	if ShapeKey(base) == ShapeKey(alt) {
		t.Error("backend change did not change the shape key")
	}
	// Defaults canonicalize: zero config and spelled-out defaults collide.
	if ShapeKey(scenario.Config{}) != ShapeKey(scenario.Config{}.WithDefaults()) {
		t.Error("defaulted and explicit configs key differently")
	}
}

// TestShapeKeyCanonicalizesMixNetKnobs: only MixNet reconfigures, so on a
// fat-tree a first-A2A mode or a reconfiguration delay changes no answer
// and must split neither the engine pool nor the result cache. On MixNet
// the first-A2A mode keeps its own entries.
func TestShapeKeyCanonicalizesMixNetKnobs(t *testing.T) {
	t.Parallel()
	base := scenario.Config{Fabric: "fat-tree", Seed: 1, Iterations: 1}
	copilot, delay := base, base
	copilot.FirstA2A = "copilot"
	delay.ReconfigDelaySec = 1
	want, err := scenario.Run(scenario.Synthetic, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []scenario.Config{copilot, delay} {
		if ShapeKey(cfg) != ShapeKey(base) {
			t.Errorf("%+v: shape key differs from the default fat-tree config's", cfg)
		}
		if resultKey("iter", cfg.WithDefaults()) != resultKey("iter", base.WithDefaults()) {
			t.Errorf("%+v: result key differs from the default fat-tree config's", cfg)
		}
		if got, err := scenario.Run(scenario.Synthetic, cfg); err != nil || got != want {
			t.Errorf("%+v: answer %+v, %v; want the default config's %+v", cfg, got, err, want)
		}
	}
	mix, mixCopilot := base, copilot
	mix.Fabric, mixCopilot.Fabric = "mixnet", "mixnet"
	if ShapeKey(mix) == ShapeKey(mixCopilot) {
		t.Error("MixNet copilot config shares the block config's shape key")
	}
	if resultKey("iter", mix.WithDefaults()) == resultKey("iter", mixCopilot.WithDefaults()) {
		t.Error("MixNet copilot config shares the block config's result key")
	}
}

// TestShapeKeyCoversEveryField: the key is derived from the canonical
// configuration, so changing any scenario.Config field other than the
// per-query Seed, Iterations and Trace — embedded execution options
// included — must change it. A field this test cannot set fails it, so a
// new field type gets a deliberate decision instead of a silent pass.
func TestShapeKeyCoversEveryField(t *testing.T) {
	t.Parallel()
	var cfg scenario.Config
	base := ShapeKey(cfg)
	v := reflect.ValueOf(&cfg).Elem()
	for _, sf := range reflect.VisibleFields(v.Type()) {
		if sf.Anonymous || sf.Name == "Seed" || sf.Name == "Iterations" || sf.Name == "Trace" {
			continue
		}
		f := v.FieldByIndex(sf.Index)
		saved := reflect.ValueOf(f.Interface())
		switch f.Kind() {
		case reflect.String:
			f.SetString("x")
		case reflect.Int, reflect.Int64:
			f.SetInt(7)
		case reflect.Float64:
			f.SetFloat(7)
		case reflect.Bool:
			f.SetBool(true)
		default:
			t.Fatalf("field %s: unhandled kind %v", sf.Name, f.Kind())
		}
		if ShapeKey(cfg) == base {
			t.Errorf("changing %s did not change the shape key", sf.Name)
		}
		f.Set(saved)
	}
	cfg.Trace = strings.NewReader("{}")
	if ShapeKey(cfg) != base {
		t.Error("a trace reader changed the shape key")
	}
}

// query is one entry of the interleaved determinism mix.
type query struct {
	name string
	path string
	body any
}

func determinismMix(iters int) []query {
	iterQ := func(fabric string, seed int64) query {
		return query{
			name: "iter-" + fabric + "-" + string(rune('0'+seed)),
			path: "/v1/iter",
			body: QueryConfig{Fabric: fabric, Iterations: iters, Seed: seed},
		}
	}
	return []query{
		iterQ("fat-tree", 1),
		iterQ("fat-tree", 2),
		{"fail-nic", "/v1/failure", failureQuery{
			QueryConfig: QueryConfig{Fabric: "fat-tree", Iterations: iters, Seed: 1},
			Scenario:    scenario.FailNIC,
		}},
		iterQ("mixnet", 1),
		{"fail-gpu", "/v1/failure", failureQuery{
			QueryConfig: QueryConfig{Fabric: "fat-tree", Iterations: iters, Seed: 2},
			Scenario:    scenario.FailGPU,
		}},
		{"cost", "/v1/cost", costQuery{Fabric: "mixnet", Servers: 64, Gbps: 400}},
		iterQ("fat-tree", 3),
		{"fail-server", "/v1/failure", failureQuery{
			QueryConfig: QueryConfig{Fabric: "mixnet", Iterations: iters, Seed: 1},
			Scenario:    scenario.FailServer,
		}},
	}
}

// TestConcurrentQueryDeterminism: N goroutines fire an interleaved query
// mix at the service — pool sizes 1, 2 and 8 — and every response must be
// byte-identical to the serial single-engine answer, no matter which warm
// engine served it or what ran before on that engine. Run under -race in
// CI; the pool, the engines' route caches and the baseline cache are all
// exercised.
func TestConcurrentQueryDeterminism(t *testing.T) {
	const iters = 2
	mix := determinismMix(iters)

	// Serial reference: a fresh one-engine server answers each query once.
	ref := make(map[string]json.RawMessage, len(mix))
	{
		srv := New(Options{Pool: NewPool(1, 0, 0), Workers: 1})
		c, done := testClient(t, srv)
		for _, q := range mix {
			raw, _, err := c.post(q.path, q.body)
			if err != nil {
				t.Fatalf("serial %s: %v", q.name, err)
			}
			ref[q.name] = raw
		}
		done()
	}

	for _, poolSize := range []int{1, 2, 8} {
		srv := New(Options{Pool: NewPool(poolSize, 0, 0), Workers: poolSize})
		c, done := testClient(t, srv)
		const rounds = 2
		var wg sync.WaitGroup
		errCh := make(chan error, len(mix)*rounds)
		for round := 0; round < rounds; round++ {
			for i, q := range mix {
				wg.Add(1)
				go func(q query, offset int) {
					defer wg.Done()
					// Stagger starts so leases interleave differently per round.
					time.Sleep(time.Duration(offset%4) * time.Millisecond)
					raw, _, err := c.post(q.path, q.body)
					if err != nil {
						errCh <- err
						return
					}
					if !bytes.Equal(raw, ref[q.name]) {
						errCh <- &mismatchError{q.name, poolSize}
					}
				}(q, i+round*len(mix))
			}
		}
		wg.Wait()
		done()
		close(errCh)
		for err := range errCh {
			t.Errorf("pool=%d: %v", poolSize, err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

type mismatchError struct {
	query string
	pool  int
}

func (e *mismatchError) Error() string {
	return "query " + e.query + " diverged from the serial reference"
}

// TestDrillRestoreThenReuse: an engine that served a failure drill must
// come back byte-identical — the pool verifies the graph's state hash
// before reuse and the next clean query must match the pre-drill answer
// exactly. This is the regression test for pooled-engine reuse after
// failure injection.
func TestDrillRestoreThenReuse(t *testing.T) {
	t.Parallel()
	pool := NewPool(1, 0, 0)
	cfg := scenario.Config{Fabric: "fat-tree", Iterations: 2, Seed: 1}.WithDefaults()

	runClean := func(want []trainsim.IterStats) []trainsim.IterStats {
		lease, err := pool.Acquire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := lease.Engine.Run(cfg.Iterations)
		lease.Release(err != nil)
		if err != nil {
			t.Fatal(err)
		}
		if want != nil {
			a, _ := json.Marshal(stats)
			b, _ := json.Marshal(want)
			if !bytes.Equal(a, b) {
				t.Fatalf("clean run diverged after drill:\n got %s\nwant %s", a, b)
			}
		}
		return stats
	}

	baseline := runClean(nil)

	// Drill on the pooled engine: inject, run, restore, release. The NIC
	// drill downs a real link, so the epoch moves and release must prove
	// the flag round-trip with StateHash — the verified-restore path, not
	// a lucky no-op.
	inj, ok := scenario.DrillInjector(scenario.FailNIC)
	if !ok {
		t.Fatal("fail-nic is not a drill")
	}
	lease, err := pool.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !lease.Warm {
		t.Fatal("second acquire should reuse the pooled engine")
	}
	restore, err := inj(lease.Engine)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lease.Engine.Run(cfg.Iterations); err != nil {
		t.Fatal(err)
	}
	restore()
	lease.Release(false)

	st := pool.Stats()
	if st.Evictions != 0 {
		t.Fatalf("restored drill engine was evicted: %+v", st)
	}
	if st.Restores == 0 {
		t.Fatalf("drill mutations did not take the verified-restore path: %+v", st)
	}

	// The same engine must now answer the clean query exactly as before.
	// That lease leaves the graph alone, so it is no restore.
	runClean(baseline)
	if got := pool.Stats().Restores; got != st.Restores {
		t.Fatalf("clean lease after a drill counted as a restore: %d -> %d", st.Restores, got)
	}

	// Counter-case: an unrestored injection must be caught and evicted.
	lease, err = pool.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inj(lease.Engine); err != nil { // restore discarded on purpose
		t.Fatal(err)
	}
	lease.Release(false)
	if pool.Stats().Evictions == 0 {
		t.Fatal("engine with unreversed failure state was pooled")
	}
	lease, err = pool.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lease.Warm {
		t.Fatal("acquired the poisoned engine")
	}
	lease.Evict()
}

// TestDifferentDrillAfterRestore: the epoch-collision regression. The
// engine's route cache and distance fields are stamped with the graph epoch
// of each drill. A second, different drill that performs the same number
// of epoch bumps — here: downing the same number of NIC links on a
// different server — would replay the first drill's routes, which avoid
// the wrong links, if the epoch could ever land on a stamp again (it did
// when the pool rewound restored engines to the build epoch). The pooled
// second drill must stay byte-identical to a fresh engine running the
// same drill.
func TestDifferentDrillAfterRestore(t *testing.T) {
	t.Parallel()
	cfg := scenario.Config{Fabric: "fat-tree", Iterations: 2, Seed: 1}.WithDefaults()

	drillStats := func(e *trainsim.Engine, server int) []trainsim.IterStats {
		t.Helper()
		restore, err := failure.FailEPSNICs(e.Cluster, server, 1)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := e.Run(cfg.Iterations)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}

	fresh, err := scenario.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(drillStats(fresh, 1))

	pool := NewPool(1, 0, 0)
	lease, err := pool.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	drillStats(lease.Engine, 0) // downs server 0's NIC links, restores
	lease.Release(false)
	if st := pool.Stats(); st.Restores != 1 || st.Evictions != 0 {
		t.Fatalf("first drill did not take the verified-restore path: %+v", st)
	}

	lease, err = pool.Acquire(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !lease.Warm {
		t.Fatal("second drill should reuse the pooled engine")
	}
	got, _ := json.Marshal(drillStats(lease.Engine, 1)) // same bump count, different links
	lease.Release(false)
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restore drill diverged from a fresh engine:\n got %s\nwant %s", got, want)
	}
}

// TestComposedDrillAfterNICDrill: serve-level epoch-collision coverage.
// The fail-server+fail-nic drill downs the same number of links as the
// fail-nic drill that preceded it on the same pooled engine (fail-server
// remaps GPUs without touching links); when the pool rewound the epoch,
// this exact query sequence replayed stale routes over the second drill's
// downed links. The served result must match the batch runner byte for
// byte.
func TestComposedDrillAfterNICDrill(t *testing.T) {
	t.Parallel()
	srv := New(Options{Pool: NewPool(1, 0, 0), Workers: 1})
	q := failureQuery{
		QueryConfig: QueryConfig{Fabric: "fat-tree", Iterations: 2, Seed: 1},
		Scenario:    scenario.FailNIC,
	}
	if _, _, err := srv.runFailure(q); err != nil {
		t.Fatalf("fail-nic: %v", err)
	}
	q.Scenario = scenario.FailServerNIC
	got, meta, err := srv.runFailure(q)
	if err != nil {
		t.Fatalf("fail-server+fail-nic on warm engine: %v", err)
	}
	if !meta.Warm {
		t.Fatal("composed drill should run on the pooled engine")
	}
	want, err := scenario.Run(scenario.FailServerNIC, q.scenarioConfig())
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	if !bytes.Equal(gb, wb) {
		t.Fatalf("served drill diverged from scenario.Run:\n got %s\nwant %s", gb, wb)
	}
}

// TestWarmMixNetMatchesLibrary: a MixNet engine retargets its circuits
// every iteration, so every lease moves its graph epoch and grows its link
// table, and it is pooled again only through the state-hash check. A
// three-tier fat-tree (DP 9: 144 servers) is built folded, so its first
// lease grows the graph and the build hash must be re-stamped for the
// drills to restore. Per shape, one pooled engine answers several seeds
// and then two drills; every answer must match mixnet.Simulate /
// scenario.Run on fresh engines byte for byte.
func TestWarmMixNetMatchesLibrary(t *testing.T) {
	t.Parallel()
	for _, shape := range []QueryConfig{
		{Fabric: "mixnet", Iterations: 2},
		{Fabric: "fat-tree", DP: 9, Iterations: 1}, // 1,152 GPUs: one iteration keeps -race cheap
	} {
		srv := New(Options{Pool: NewPool(1, 0, 0), Workers: 1})
		c, done := testClient(t, srv)
		queries := 0
		for seed := int64(1); seed <= 3; seed++ {
			q := shape
			q.Seed = seed
			want, err := simulateDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			wb, _ := json.Marshal(want)
			got, _, err := c.post("/v1/iter", q)
			if err != nil {
				t.Fatalf("%s seed %d: %v", shape.Fabric, seed, err)
			}
			queries++
			if !bytes.Equal(got, wb) {
				t.Fatalf("%s seed %d: served %s\nlibrary %s", shape.Fabric, seed, got, wb)
			}
		}
		for _, sc := range []string{scenario.FailNIC, scenario.FailServer} {
			q := failureQuery{QueryConfig: shape, Scenario: sc}
			q.Seed = 4
			want, err := runScenarioDirect(q)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := c.post("/v1/failure", q)
			if err != nil {
				t.Fatalf("%s %s: %v", shape.Fabric, sc, err)
			}
			queries++
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s: served %s\nscenario.Run %s", shape.Fabric, sc, got, want)
			}
		}
		done()
		st := srv.Pool().Stats()
		if st.Hits < uint64(queries-1) || st.Restores == 0 {
			t.Fatalf("%s engine not reused through the hash check over %d queries: %+v", shape.Fabric, queries, st)
		}
	}
}

// TestPoolMaxUsesRetires: engines retire after maxUses leases instead of
// accreting state forever.
func TestPoolMaxUsesRetires(t *testing.T) {
	t.Parallel()
	pool := NewPool(1, 2, 0)
	cfg := scenario.Config{Fabric: "fat-tree", Iterations: 1, Seed: 1}.WithDefaults()
	for i := 0; i < 2; i++ {
		lease, err := pool.Acquire(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lease.Engine.Run(cfg.Iterations); err != nil {
			t.Fatal(err)
		}
		lease.Release(false)
	}
	if st := pool.Stats(); st.Evictions != 1 || st.Idle != 0 {
		t.Fatalf("second lease should retire the engine: %+v", st)
	}
}

// TestBaselineCacheBoundAndRetry: the baseline cache must not memoize
// failures (a failed measurement is retried, not replayed forever) and
// must not grow beyond baselineCap in a long-running service.
func TestBaselineCacheBoundAndRetry(t *testing.T) {
	t.Parallel()
	srv := New(Options{Pool: NewPool(1, 0, 0), Workers: 1})

	bad := scenario.Config{Model: "no-such-model", Iterations: 1}.WithDefaults()
	for i := 0; i < 2; i++ {
		if _, _, err := srv.baseline(bad); err == nil {
			t.Fatal("baseline of an unknown model succeeded")
		}
	}
	srv.baseMu.Lock()
	n := len(srv.baselines)
	srv.baseMu.Unlock()
	if n != 0 {
		t.Fatalf("failed baseline stayed cached (%d cells)", n)
	}

	srv.baseMu.Lock()
	for i := 0; i < baselineCap+16; i++ {
		key := fmt.Sprintf("synthetic-key-%d", i)
		srv.baselines[key] = &baselineCell{done: true}
		srv.touchBaselineLocked(key)
	}
	n, ord := len(srv.baselines), len(srv.baseOrder)
	srv.baseMu.Unlock()
	if n != baselineCap || ord != baselineCap {
		t.Fatalf("cache grew past the bound: %d cells, %d order entries", n, ord)
	}
}

// TestResultCache: a fully identical query replays the stored response
// byte-identically with meta marked cached; differently spelled defaults
// share the entry; no_cache bypasses replay, runs a warm engine and still
// matches bitwise.
func TestResultCache(t *testing.T) {
	t.Parallel()
	srv := New(Options{Pool: NewPool(2, 0, 0), Workers: 2})
	c, done := testClient(t, srv)
	defer done()

	q := QueryConfig{Fabric: "fat-tree", Iterations: 2, Seed: 5}
	cold, coldMeta, err := c.post("/v1/iter", q)
	if err != nil {
		t.Fatal(err)
	}
	if coldMeta.Cached {
		t.Fatal("first query reported a cache hit")
	}
	hit, hitMeta, err := c.post("/v1/iter", q)
	if err != nil {
		t.Fatal(err)
	}
	if !hitMeta.Cached {
		t.Fatal("identical query missed the result cache")
	}
	if !bytes.Equal(hit, cold) {
		t.Fatalf("cached replay diverged:\n cold %s\n hit  %s", cold, hit)
	}
	// Spelled-out defaults canonicalize onto the same entry.
	spelled := q
	spelled.Model, spelled.FirstA2A, spelled.LinkGbps, spelled.DP = "Mixtral 8x7B", "block", 400, 1
	spelled.Backend, spelled.CC, spelled.Overlap = "fluid", "fixed", "none"
	hit2, meta2, err := c.post("/v1/iter", spelled)
	if err != nil {
		t.Fatal(err)
	}
	if !meta2.Cached || !bytes.Equal(hit2, cold) {
		t.Fatalf("spelled-out defaults did not share the cache entry (cached=%v)", meta2.Cached)
	}
	// no_cache runs the engine; the result must still match bitwise.
	nc := q
	nc.NoCache = true
	fresh, freshMeta, err := c.post("/v1/iter", nc)
	if err != nil {
		t.Fatal(err)
	}
	if freshMeta.Cached {
		t.Fatal("no_cache query reported a cache hit")
	}
	if !bytes.Equal(fresh, cold) {
		t.Fatal("no_cache rerun diverged from the cached result")
	}
	// The cold run's engine was pooled, so the no_cache rerun leases it warm.
	if !freshMeta.Warm {
		t.Fatal("no_cache rerun did not lease the pooled engine")
	}
	// Failure drills cache too, keyed by scenario.
	fq := failureQuery{QueryConfig: q, Scenario: scenario.FailNIC}
	d1, dMeta1, err := c.post("/v1/failure", fq)
	if err != nil {
		t.Fatal(err)
	}
	d2, dMeta2, err := c.post("/v1/failure", fq)
	if err != nil {
		t.Fatal(err)
	}
	if dMeta1.Cached || !dMeta2.Cached || !bytes.Equal(d1, d2) {
		t.Fatalf("drill caching wrong: first cached=%v second cached=%v", dMeta1.Cached, dMeta2.Cached)
	}
	st := srv.StatsSnapshot()
	if st.ResultCache.Hits < 3 || st.ResultCache.Misses < 2 || st.ResultCache.Entries < 2 {
		t.Fatalf("cache counters off: %+v", st.ResultCache)
	}
}

// TestResultCacheBound: the LRU never grows past resultCap.
func TestResultCacheBound(t *testing.T) {
	t.Parallel()
	srv := New(Options{})
	for i := 0; i < resultCap+16; i++ {
		srv.storeResult(fmt.Sprintf("synthetic-%d", i), i)
	}
	srv.resMu.Lock()
	n, ord := len(srv.results), len(srv.resOrder)
	srv.resMu.Unlock()
	if n != resultCap || ord != resultCap {
		t.Fatalf("result cache grew past the bound: %d entries, %d order entries", n, ord)
	}
	if ev := srv.rcacheEvictions.Load(); ev != 16 {
		t.Fatalf("evictions = %d, want 16", ev)
	}
	// The freshest entries survive.
	if _, ok := srv.cachedResult(fmt.Sprintf("synthetic-%d", resultCap+15)); !ok {
		t.Fatal("most recent entry evicted")
	}
	if _, ok := srv.cachedResult("synthetic-0"); ok {
		t.Fatal("oldest entry survived past the cap")
	}
}

// TestServeHTTPErrors: malformed and invalid queries fail loudly with the
// right status codes; the health and stats endpoints respond.
func TestServeHTTPErrors(t *testing.T) {
	t.Parallel()
	srv := New(Options{Pool: NewPool(1, 0, 0), Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Drain()
	}()

	get := func(path string) *http.Response {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	post := func(path, body string) *http.Response {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	if r := get("/healthz"); r.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d", r.StatusCode)
	}
	if r := get("/v1/stats"); r.StatusCode != http.StatusOK {
		t.Errorf("stats: %d", r.StatusCode)
	}
	if r := get("/v1/iter"); r.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET iter: %d, want 405", r.StatusCode)
	}
	if r := post("/v1/iter", `{"fabrik":"typo"}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", r.StatusCode)
	}
	if r := post("/v1/iter", `not json`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad json: %d, want 400", r.StatusCode)
	}
	if r := post("/v1/iter", `{"model":"no-such-model"}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model: %d, want 400", r.StatusCode)
	}
	if r := post("/v1/failure", `{"scenario":"synthetic"}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("non-drill scenario: %d, want 400", r.StatusCode)
	}
	if r := post("/v1/cost", `{"fabric":"warp-drive","servers":8,"gbps":100}`); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown fabric: %d, want 400", r.StatusCode)
	}
}

// TestInvalidQueriesRejected: numeric settings no run can mean get a 400
// within the client's deadline — not a worker spinning forever on a
// negative link rate, nor a panic that kills the process — on a cold pool
// and on a warm engine of the same shape (a warm engine skips
// construction, so the pool must validate).
func TestInvalidQueriesRejected(t *testing.T) {
	t.Parallel()
	srv := New(Options{Pool: NewPool(1, 0, 0), Workers: 2})
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Drain()
	}()
	hc := ts.Client()
	hc.Timeout = 30 * time.Second
	post := func(path, body string) int {
		resp, err := hc.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s %s: %v", path, body, err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	// Warm the pool with the fat-tree shape the iteration-count cases share.
	if code := post("/v1/iter", `{"fabric":"fat-tree","iterations":1,"seed":1}`); code != http.StatusOK {
		t.Fatalf("warm-up query: %d", code)
	}
	bodies := []string{
		`{"link_gbps":-400}`,
		`{"fabric":"fat-tree","link_gbps":-400}`,
		`{"fabric":"fat-tree","iterations":-1,"seed":1}`,
		`{"reconfig_delay_sec":-1}`,
		`{"dp":-1}`,
		`{"fold":true}`,
		`{"fabric":"fat-tree","first_a2a":"bogus"}`,
	}
	for _, body := range bodies {
		if code := post("/v1/iter", body); code != http.StatusBadRequest {
			t.Errorf("/v1/iter %s: %d, want 400", body, code)
		}
		drill := `{"scenario":"fail-nic",` + body[1:]
		if code := post("/v1/failure", drill); code != http.StatusBadRequest {
			t.Errorf("/v1/failure %s: %d, want 400", drill, code)
		}
	}
	for _, body := range []string{
		`{"fabric":"fat-tree","servers":-1,"gbps":400}`,
		`{"fabric":"fat-tree","servers":0,"gbps":400}`,
	} {
		if code := post("/v1/cost", body); code != http.StatusBadRequest {
			t.Errorf("/v1/cost %s: %d, want 400", body, code)
		}
	}
}

// TestQueryTimeout: a query exceeding the per-query budget returns 504
// while the worker finishes in the background and Drain still completes.
func TestQueryTimeout(t *testing.T) {
	t.Parallel()
	srv := New(Options{Pool: NewPool(1, 0, 0), Workers: 1, Timeout: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, _ := json.Marshal(QueryConfig{Fabric: "fat-tree", Iterations: 2, Seed: 1})
	resp, err := ts.Client().Post(ts.URL+"/v1/iter", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	srv.Drain() // must not hang on the backgrounded worker
	if s := srv.StatsSnapshot(); s.Timeouts != 1 {
		t.Errorf("timeouts = %d, want 1", s.Timeouts)
	}
}
