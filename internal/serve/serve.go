package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"mixnet"
	"mixnet/internal/netsim"
	"mixnet/internal/scenario"
	"mixnet/internal/topo"
	"mixnet/internal/trainsim"
)

// QueryConfig is the wire form of a simulation configuration, mapping 1:1
// onto scenario.Config (the construction path shared with mixnet.Simulate,
// so a query and the equivalent batch CLI run execute on identical
// engines). Omitted fields take the scenario defaults: Mixtral 8x7B on a
// MixNet fabric at 400 Gbps over the fluid backend.
type QueryConfig struct {
	Model  string `json:"model,omitempty"`
	Fabric string `json:"fabric,omitempty"`
	// Config carries the backend and cc keys.
	netsim.Config
	LinkGbps         float64 `json:"link_gbps,omitempty"`
	DP               int     `json:"dp,omitempty"`
	Iterations       int     `json:"iterations,omitempty"`
	Seed             int64   `json:"seed,omitempty"`
	FirstA2A         string  `json:"first_a2a,omitempty"`
	ReconfigDelaySec float64 `json:"reconfig_delay_sec,omitempty"`
	Overlap          string  `json:"overlap,omitempty"`
	// NoCache bypasses the served result cache for this query: the engine
	// runs even when a byte-identical result is cached. Not part of the
	// cache key — results are keyed on the simulation configuration alone,
	// which NoCache does not affect.
	NoCache bool `json:"no_cache,omitempty"`
}

func (q QueryConfig) scenarioConfig() scenario.Config {
	return scenario.Config{
		Model: q.Model, Fabric: q.Fabric, Config: q.Config, LinkGbps: q.LinkGbps, DP: q.DP,
		Iterations: q.Iterations, Seed: q.Seed, FirstA2A: q.FirstA2A,
		ReconfigDelaySec: q.ReconfigDelaySec, Overlap: q.Overlap,
	}
}

// failureQuery selects one named failure-drill scenario.
type failureQuery struct {
	QueryConfig
	Scenario string `json:"scenario"`
}

// costQuery prices a fabric with the Table 4 cost model.
type costQuery struct {
	Fabric  string `json:"fabric"`
	Servers int    `json:"servers"`
	Gbps    int    `json:"gbps"`
}

// Meta carries per-query serving metadata alongside the result. Only the
// result is deterministic; Meta is volatile (latency, cache warmth).
type Meta struct {
	Warm       bool    `json:"warm"`             // engine came from the pool
	Cached     bool    `json:"cached,omitempty"` // result replayed from the result cache, no engine ran
	ElapsedSec float64 `json:"elapsed_sec"`
}

type envelope struct {
	Result any  `json:"result"`
	Meta   Meta `json:"meta"`
}

// Options configures a Server.
type Options struct {
	// Pool supplies the engine pool; nil builds a default one.
	Pool *Pool
	// Workers bounds concurrently executing queries (default 8; excess
	// requests queue on the semaphore until their context expires).
	Workers int
	// Timeout bounds one query's execution (default 60s); a timed-out
	// request gets 504 while the worker finishes in the background and
	// returns its engine to the pool.
	Timeout time.Duration
}

// Server answers what-if queries over warm engines. Create with New,
// expose via Handler, and Drain before process exit.
type Server struct {
	pool    *Pool
	sem     chan struct{}
	timeout time.Duration
	wg      sync.WaitGroup
	start   time.Time

	queries, timeouts, errors atomic.Uint64

	baseMu    sync.Mutex
	baselines map[string]*baselineCell
	baseOrder []string // LRU order, oldest first; len == len(baselines)

	resMu    sync.Mutex
	results  map[string]json.RawMessage
	resOrder []string // LRU order, oldest first; len == len(results)

	rcacheHits, rcacheMisses, rcacheEvictions atomic.Uint64
}

// baselineCap bounds the baseline cache: distinct (shape, seed,
// iterations) clean-run measurements kept for failure drills. Like the
// pool's idle bound, it keeps a long-running service with an open-ended
// query mix from growing without bound.
const baselineCap = 128

// resultCap bounds the served result cache: fully identical queries replay
// the stored result bytes instead of re-simulating. Results are
// deterministic — the simulation's output is a pure function of the
// canonical configuration — so replay is always correct; the cap only
// bounds memory.
const resultCap = 128

// baselineCell memoizes one clean-run measurement (shape+seed+iterations)
// shared by every failure drill against that configuration. Only
// successful measurements latch; a failed one is dropped from the cache so
// the next drill retries instead of replaying the error forever.
type baselineCell struct {
	mu   sync.Mutex
	done bool
	res  scenario.Result
}

// New creates a Server.
func New(opts Options) *Server {
	if opts.Pool == nil {
		opts.Pool = NewPool(0, 0, 0)
	}
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	return &Server{
		pool:      opts.Pool,
		sem:       make(chan struct{}, opts.Workers),
		timeout:   opts.Timeout,
		start:     time.Now(),
		baselines: make(map[string]*baselineCell),
		results:   make(map[string]json.RawMessage),
	}
}

// cachedResult looks up the stored response bytes for one canonical query
// key and refreshes its LRU position.
func (s *Server) cachedResult(key string) (json.RawMessage, bool) {
	s.resMu.Lock()
	defer s.resMu.Unlock()
	raw, ok := s.results[key]
	if !ok {
		return nil, false
	}
	for i, k := range s.resOrder {
		if k == key {
			s.resOrder = append(s.resOrder[:i], s.resOrder[i+1:]...)
			break
		}
	}
	s.resOrder = append(s.resOrder, key)
	return raw, true
}

// resultKey canonicalizes a query for the result cache: the endpoint name
// plus the canonical configuration bytes (defaults applied), so two
// requests describing the same run — spelled differently — share one entry.
// An unmarshalable configuration yields "" and is never cached.
func resultKey(endpoint string, cfg scenario.Config) string {
	b, err := json.Marshal(cfg)
	if err != nil {
		return ""
	}
	return endpoint + "|" + string(b)
}

// storeResult marshals a fresh result once and caches the bytes under the
// canonical query key; the returned RawMessage is what the handler writes,
// so a later cache hit replays the response byte-identically. Marshal
// failures fall through to the caller's value (never cached).
func (s *Server) storeResult(key string, v any) any {
	raw, err := json.Marshal(v)
	if err != nil {
		return v
	}
	s.resMu.Lock()
	defer s.resMu.Unlock()
	if _, ok := s.results[key]; !ok {
		s.resOrder = append(s.resOrder, key)
		for len(s.resOrder) > resultCap {
			old := s.resOrder[0]
			s.resOrder = s.resOrder[1:]
			delete(s.results, old)
			s.rcacheEvictions.Add(1)
		}
	}
	s.results[key] = raw
	return json.RawMessage(raw)
}

// Pool returns the server's engine pool (selftest reads its counters).
func (s *Server) Pool() *Pool { return s.pool }

// Handler returns the HTTP API:
//
//	POST /v1/iter    — training-iteration query: QueryConfig body, mixnet.Result result
//	POST /v1/cost    — fabric pricing: costQuery body, mixnet.CostBreakdown result
//	POST /v1/failure — failure drill: failureQuery body, scenario.Result result
//	GET  /v1/stats   — pool/result-cache/query counters
//	GET  /healthz    — liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/iter", func(w http.ResponseWriter, r *http.Request) {
		var q QueryConfig
		if !wantPost(w, r) || !decodeBody(w, r, &q) {
			return
		}
		s.do(w, r, func() (any, Meta, error) { return s.runIter(q) })
	})
	mux.HandleFunc("/v1/failure", func(w http.ResponseWriter, r *http.Request) {
		var q failureQuery
		if !wantPost(w, r) || !decodeBody(w, r, &q) {
			return
		}
		s.do(w, r, func() (any, Meta, error) { return s.runFailure(q) })
	})
	mux.HandleFunc("/v1/cost", func(w http.ResponseWriter, r *http.Request) {
		var q costQuery
		if !wantPost(w, r) || !decodeBody(w, r, &q) {
			return
		}
		s.do(w, r, func() (any, Meta, error) { return s.runCost(q) })
	})
	mux.HandleFunc("/v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.StatsSnapshot())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Drain waits for in-flight query workers (including ones whose requester
// already timed out) to finish and return their engines. Call after
// http.Server.Shutdown for a graceful stop.
func (s *Server) Drain() { s.wg.Wait() }

// ResultCacheStats counts served result-cache traffic.
type ResultCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// StatsCounters is the /v1/stats payload.
type StatsCounters struct {
	UptimeSec   float64          `json:"uptime_sec"`
	Queries     uint64           `json:"queries"`
	Timeouts    uint64           `json:"timeouts"`
	Errors      uint64           `json:"errors"`
	Pool        PoolStats        `json:"pool"`
	ResultCache ResultCacheStats `json:"result_cache"`
}

// StatsSnapshot assembles the live service counters; all reads are
// race-free (atomics or mutex-guarded snapshots).
func (s *Server) StatsSnapshot() StatsCounters {
	s.resMu.Lock()
	entries := len(s.results)
	s.resMu.Unlock()
	return StatsCounters{
		UptimeSec: time.Since(s.start).Seconds(),
		Queries:   s.queries.Load(),
		Timeouts:  s.timeouts.Load(),
		Errors:    s.errors.Load(),
		Pool:      s.pool.Stats(),
		ResultCache: ResultCacheStats{
			Hits:      s.rcacheHits.Load(),
			Misses:    s.rcacheMisses.Load(),
			Evictions: s.rcacheEvictions.Load(),
			Entries:   entries,
		},
	}
}

// clientErr marks an error as the requester's fault — a malformed or
// invalid query — so do() reports 400 instead of 500.
type clientErr struct{ err error }

func (e clientErr) Error() string { return e.err.Error() }
func (e clientErr) Unwrap() error { return e.err }

// badQuery wraps a validation failure (unknown model/fabric/scenario,
// engine construction rejecting the configuration) as a client error.
func badQuery(err error) error {
	if err == nil {
		return nil
	}
	return clientErr{err}
}

// do runs one query under the bounded worker pool with the per-query
// timeout. The worker goroutine always runs to completion — a timed-out
// or abandoned query's engine still gets released — but its response is
// only written while the request waits: timeout gets 504, a client that
// disconnected gets nothing (the handler returns instead of pinning the
// connection for the rest of the query budget).
func (s *Server) do(w http.ResponseWriter, r *http.Request, fn func() (any, Meta, error)) {
	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		http.Error(w, "queue wait cancelled", http.StatusServiceUnavailable)
		return
	}
	s.queries.Add(1)
	type outcome struct {
		v    any
		meta Meta
		err  error
	}
	ch := make(chan outcome, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer func() { <-s.sem }()
		t0 := time.Now()
		v, meta, err := fn()
		meta.ElapsedSec = time.Since(t0).Seconds()
		ch <- outcome{v, meta, err}
	}()
	timer := time.NewTimer(s.timeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		if o.err != nil {
			s.errors.Add(1)
			status := http.StatusInternalServerError
			var ce clientErr
			if errors.As(o.err, &ce) {
				status = http.StatusBadRequest
			}
			http.Error(w, o.err.Error(), status)
			return
		}
		writeJSON(w, http.StatusOK, envelope{Result: o.v, Meta: o.meta})
	case <-timer.C:
		s.timeouts.Add(1)
		http.Error(w, "query timed out", http.StatusGatewayTimeout)
	case <-r.Context().Done():
		// Client gone; nothing to write. The worker finishes in the
		// background and returns its engine to the pool.
	}
}

// runIter answers a training-iteration query. The result is exactly what
// mixnet.Simulate returns for the equivalent SimConfig — same engine
// construction, same stats derivation — so the JSON is byte-identical to
// the batch run; only the engine may come warm from the pool.
func (s *Server) runIter(q QueryConfig) (any, Meta, error) {
	cfg := q.scenarioConfig().WithDefaults()
	key := resultKey("iter", cfg)
	if !q.NoCache && key != "" {
		if raw, ok := s.cachedResult(key); ok {
			s.rcacheHits.Add(1)
			return raw, Meta{Cached: true}, nil
		}
		s.rcacheMisses.Add(1)
	}
	lease, err := s.pool.Acquire(cfg)
	if err != nil {
		// Engine construction only fails on configuration the query chose
		// (unknown model/fabric/backend, invalid knob combination).
		return nil, Meta{}, badQuery(err)
	}
	meta := Meta{Warm: lease.Warm}
	e := lease.Engine
	stats, err := e.Run(cfg.Iterations)
	res := mixnet.Result{
		MeanIterTime: trainsim.MeanIterTime(stats),
		Stats:        stats,
		GPUs:         e.Cluster.GPUCount(),
		Servers:      len(e.Cluster.Servers),
	}
	lease.Release(err != nil)
	if err != nil {
		return nil, meta, err
	}
	if !q.NoCache && key != "" {
		return s.storeResult(key, res), meta, nil
	}
	return res, meta, nil
}

// runCost answers a fabric-pricing query (no engine involved).
func (s *Server) runCost(q costQuery) (any, Meta, error) {
	kind, ok := topo.Fabrics()[q.Fabric]
	if !ok {
		return nil, Meta{}, badQuery(fmt.Errorf("serve: unknown fabric %q", q.Fabric))
	}
	bd, err := mixnet.NetworkCost(kind, q.Servers, q.Gbps)
	if err != nil {
		return nil, Meta{}, badQuery(err) // rejects the query's server/Gbps sizing
	}
	return bd, Meta{}, nil
}

// runFailure answers a failure-drill query: the named injector faults a
// pooled engine, the drill runs, the injection unwinds, and the release
// path verifies full restoration (or evicts). The clean baseline of the
// same configuration is measured once and shared across drills, mirroring
// scenario.RunMatrix's memoized baseline; the returned scenario.Result is
// byte-identical to scenario.Run of the same drill.
func (s *Server) runFailure(q failureQuery) (any, Meta, error) {
	inj, ok := scenario.DrillInjector(q.Scenario)
	if !ok {
		return nil, Meta{}, badQuery(fmt.Errorf("serve: %q is not a failure-drill scenario", q.Scenario))
	}
	cfg := q.scenarioConfig()
	if q.Scenario == scenario.CopilotDrill {
		// Both baseline and faulty run use proactive reconfiguration, so the
		// overhead isolates the failure, not the first-A2A policy (the same
		// substitution scenario.Run performs).
		cfg.FirstA2A = "copilot"
	}
	cfg = cfg.WithDefaults()
	key := resultKey("failure|"+q.Scenario, cfg)
	if !q.NoCache && key != "" {
		if raw, ok := s.cachedResult(key); ok {
			s.rcacheHits.Add(1)
			return raw, Meta{Cached: true}, nil
		}
		s.rcacheMisses.Add(1)
	}

	clean, meta, err := s.baseline(cfg)
	if err != nil {
		return nil, meta, err
	}
	lease, err := s.pool.Acquire(cfg)
	if err != nil {
		return nil, meta, badQuery(err)
	}
	meta.Warm = meta.Warm && lease.Warm
	e := lease.Engine
	restore, err := inj(e)
	if err != nil {
		lease.Evict() // partially applied injection: engine state unknown
		return nil, meta, fmt.Errorf("serve: inject %s: %w", q.Scenario, err)
	}
	stats, runErr := e.Run(cfg.Iterations)
	restore()
	lease.Release(runErr != nil)
	if runErr != nil {
		return nil, meta, fmt.Errorf("serve: drill %s: %w", q.Scenario, runErr)
	}

	res := clean
	res.Scenario = q.Scenario
	res.BaselineIterTime = clean.MeanIterTime
	res.MeanIterTime = trainsim.MeanIterTime(stats)
	if res.BaselineIterTime > 0 {
		res.Overhead = res.MeanIterTime/res.BaselineIterTime - 1
	}
	if !q.NoCache && key != "" {
		return s.storeResult(key, res), meta, nil
	}
	return res, meta, nil
}

// baseline measures (or recalls) the clean run of one canonical
// configuration. Concurrent drills against the same configuration share
// one measurement; the engine comes from the same pool as every other
// query. Warm in the returned Meta reflects the baseline's engine only
// when the baseline was measured by this call. The cache is a small LRU
// (baselineCap entries) and never memoizes failures: an errored
// measurement is forgotten so the next drill retries it.
func (s *Server) baseline(cfg scenario.Config) (scenario.Result, Meta, error) {
	key := fmt.Sprintf("%s|seed=%d|iters=%d", ShapeKey(cfg), cfg.Seed, cfg.Iterations)
	s.baseMu.Lock()
	cell := s.baselines[key]
	if cell == nil {
		cell = &baselineCell{}
		s.baselines[key] = cell
	}
	s.touchBaselineLocked(key)
	s.baseMu.Unlock()

	cell.mu.Lock()
	defer cell.mu.Unlock()
	if cell.done {
		return cell.res, Meta{Warm: true}, nil
	}
	lease, err := s.pool.Acquire(cfg)
	if err != nil {
		s.dropBaseline(key, cell)
		return scenario.Result{}, Meta{}, badQuery(err)
	}
	meta := Meta{Warm: lease.Warm}
	e := lease.Engine
	stats, err := e.Run(cfg.Iterations)
	lease.Release(err != nil)
	if err != nil {
		s.dropBaseline(key, cell)
		return scenario.Result{}, meta, err
	}
	cell.res = scenario.Result{
		Backend: cfg.BackendName(),
		GPUs:    e.Cluster.GPUCount(), Servers: len(e.Cluster.Servers),
		Iterations:   cfg.Iterations,
		MeanIterTime: trainsim.MeanIterTime(stats),
	}
	cell.done = true
	return cell.res, meta, nil
}

// touchBaselineLocked moves key to the LRU front and evicts over-cap
// entries; s.baseMu must be held. Eviction only unlinks a cell from the
// cache — an in-flight measurement on an evicted cell still completes for
// the drills already holding it.
func (s *Server) touchBaselineLocked(key string) {
	for i, k := range s.baseOrder {
		if k == key {
			s.baseOrder = append(s.baseOrder[:i], s.baseOrder[i+1:]...)
			break
		}
	}
	s.baseOrder = append(s.baseOrder, key)
	for len(s.baseOrder) > baselineCap {
		old := s.baseOrder[0]
		s.baseOrder = s.baseOrder[1:]
		delete(s.baselines, old)
	}
}

// dropBaseline forgets a failed measurement so later drills retry it.
// The cell identity check keeps a concurrent re-measurement's fresh cell
// (or an LRU replacement) intact.
func (s *Server) dropBaseline(key string, cell *baselineCell) {
	s.baseMu.Lock()
	if s.baselines[key] == cell {
		delete(s.baselines, key)
		for i, k := range s.baseOrder {
			if k == key {
				s.baseOrder = append(s.baseOrder[:i], s.baseOrder[i+1:]...)
				break
			}
		}
	}
	s.baseMu.Unlock()
}

func wantPost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	return true
}

// maxBodyBytes bounds a request body. The query types are a few hundred
// bytes of JSON; the limit keeps an unauthenticated POST from making a
// long-running service buffer arbitrarily large bodies.
const maxBodyBytes = 64 << 10

// decodeBody parses a JSON request body strictly (unknown fields are
// errors, so config typos fail loudly instead of silently defaulting)
// and bounded (oversized bodies abort with 400 instead of buffering).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
