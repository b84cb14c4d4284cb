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

	"mixnet/internal/scenario"
)

func testClient(t *testing.T, srv *Server) (*client, func()) {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	return &client{base: ts.URL, http: ts.Client()}, func() {
		ts.Close()
		srv.Drain()
	}
}

// TestResultKeyCanonicalizesMixNetKnobs: only MixNet reconfigures, so on a
// fat-tree a first-A2A mode or a reconfiguration delay changes no answer
// and must not split the result cache. On MixNet the first-A2A mode keeps
// its own entries.
func TestResultKeyCanonicalizesMixNetKnobs(t *testing.T) {
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
		if resultKey("iter", cfg.WithDefaults()) != resultKey("iter", base.WithDefaults()) {
			t.Errorf("%+v: result key differs from the default fat-tree config's", cfg)
		}
		if got, err := scenario.Run(scenario.Synthetic, cfg); err != nil || got != want {
			t.Errorf("%+v: answer %+v, %v; want the default config's %+v", cfg, got, err, want)
		}
	}
	mix, mixCopilot := base, copilot
	mix.Fabric, mixCopilot.Fabric = "mixnet", "mixnet"
	if resultKey("iter", mix.WithDefaults()) == resultKey("iter", mixCopilot.WithDefaults()) {
		t.Error("MixNet copilot config shares the block config's result key")
	}
}

// TestResultKeyCoversEveryField: the result cache keys on the canonical
// configuration, so changing any scenario.Config field other than Trace,
// which no query sets — Seed, Iterations and the embedded execution options
// included — must change the key. A field this test cannot set fails it, so
// a new field type gets a deliberate decision instead of a silent pass.
func TestResultKeyCoversEveryField(t *testing.T) {
	t.Parallel()
	var cfg scenario.Config
	key := func() string { return resultKey("iter", cfg.WithDefaults()) }
	base := key()
	v := reflect.ValueOf(&cfg).Elem()
	for _, sf := range reflect.VisibleFields(v.Type()) {
		if sf.Anonymous || sf.Name == "Trace" {
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
		if key() == base {
			t.Errorf("changing %s did not change the result key", sf.Name)
		}
		f.Set(saved)
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
// mix at the service — 1, 2 and 8 workers — and every response must be
// byte-identical to the serial one-worker answer, whatever ran beside it
// or before it. Run under -race in CI; the result cache and the worker
// semaphore are exercised concurrently.
func TestConcurrentQueryDeterminism(t *testing.T) {
	const iters = 2
	mix := determinismMix(iters)

	// Serial reference: a one-worker server answers each query once.
	ref := make(map[string]json.RawMessage, len(mix))
	{
		srv := New(Options{Workers: 1})
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

	for _, workers := range []int{1, 2, 8} {
		srv := New(Options{Workers: workers})
		c, done := testClient(t, srv)
		const rounds = 2
		var wg sync.WaitGroup
		errCh := make(chan error, len(mix)*rounds)
		for round := 0; round < rounds; round++ {
			for i, q := range mix {
				wg.Add(1)
				go func(q query, offset int) {
					defer wg.Done()
					// Stagger starts so queries interleave differently per round.
					time.Sleep(time.Duration(offset%4) * time.Millisecond)
					raw, _, err := c.post(q.path, q.body)
					if err != nil {
						errCh <- err
						return
					}
					if !bytes.Equal(raw, ref[q.name]) {
						errCh <- &mismatchError{q.name, workers}
					}
				}(q, i+round*len(mix))
			}
		}
		wg.Wait()
		done()
		close(errCh)
		for err := range errCh {
			t.Errorf("workers=%d: %v", workers, err)
		}
		if t.Failed() {
			t.FailNow()
		}
	}
}

type mismatchError struct {
	query   string
	workers int
}

func (e *mismatchError) Error() string {
	return "query " + e.query + " diverged from the serial reference"
}

// TestComposedDrillAfterNICDrill: the fail-server+fail-nic drill downs as
// many links as the fail-nic drill served before it on the same
// configuration (fail-server remaps GPUs without touching links), the
// sequence that once replayed stale routes over the second drill's downed
// links on a shared engine. The served result must match the batch runner
// byte for byte.
func TestComposedDrillAfterNICDrill(t *testing.T) {
	t.Parallel()
	srv := New(Options{Workers: 1})
	q := failureQuery{
		QueryConfig: QueryConfig{Fabric: "fat-tree", Iterations: 2, Seed: 1},
		Scenario:    scenario.FailNIC,
	}
	if _, _, err := srv.runFailure(q); err != nil {
		t.Fatalf("fail-nic: %v", err)
	}
	q.Scenario = scenario.FailServerNIC
	got, _, err := srv.runFailure(q)
	if err != nil {
		t.Fatalf("fail-server+fail-nic: %v", err)
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
// every iteration, and a three-tier fat-tree (DP 9: 144 servers) is built
// folded and grows as a run touches its servers. Per shape, one server
// answers several seeds and then two drills; every answer must match
// mixnet.Simulate / scenario.Run byte for byte.
func TestWarmMixNetMatchesLibrary(t *testing.T) {
	t.Parallel()
	for _, shape := range []QueryConfig{
		{Fabric: "mixnet", Iterations: 2},
		{Fabric: "fat-tree", DP: 9, Iterations: 1}, // 1,152 GPUs: one iteration keeps -race cheap
	} {
		srv := New(Options{Workers: 1})
		c, done := testClient(t, srv)
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
			if !bytes.Equal(got, want) {
				t.Fatalf("%s %s: served %s\nscenario.Run %s", shape.Fabric, sc, got, want)
			}
		}
		done()
	}
}

// TestResultCache: a fully identical query replays the stored response
// byte-identically with meta marked cached; differently spelled defaults
// share the entry; no_cache bypasses replay, runs an engine and still
// matches bitwise.
func TestResultCache(t *testing.T) {
	t.Parallel()
	srv := New(Options{Workers: 2})
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
	srv := New(Options{Workers: 1})
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
// negative link rate, nor a panic that kills the process — before and
// after a valid query of the same shape, on /v1/iter (scenario.NewEngine
// rejects them) and on /v1/failure (scenario.Run does).
func TestInvalidQueriesRejected(t *testing.T) {
	t.Parallel()
	srv := New(Options{Workers: 2})
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
	// A valid query of the fat-tree shape the iteration-count cases share.
	if code := post("/v1/iter", `{"fabric":"fat-tree","iterations":1,"seed":1}`); code != http.StatusOK {
		t.Fatalf("valid query: %d", code)
	}
	bodies := []string{
		`{"link_gbps":-400}`,
		`{"fabric":"fat-tree","link_gbps":-400}`,
		`{"fabric":"fat-tree","iterations":-1,"seed":1}`,
		`{"reconfig_delay_sec":-1}`,
		`{"dp":-1}`,
		`{"fold":true}`,
		`{"workers":4}`,
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
	srv := New(Options{Workers: 1, Timeout: time.Millisecond})
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
