// Package serve is the long-running what-if query service: an HTTP/JSON
// API answering iteration-time, network-cost and failure-drill queries
// through the library's own calls. /v1/iter builds a fresh engine with
// scenario.NewEngine and runs it as mixnet.Simulate does, /v1/failure calls
// scenario.Run and /v1/cost calls mixnet.NetworkCost, so every response is
// byte-identical to the equivalent batch run by construction. No engine
// outlives its query. A bounded result cache replays fully identical
// queries, and a worker semaphore bounds how many run at once.
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
// result is deterministic; Meta is volatile (latency, cache hit).
type Meta struct {
	Cached     bool    `json:"cached,omitempty"` // result replayed from the result cache, no engine ran
	ElapsedSec float64 `json:"elapsed_sec"`
}

type envelope struct {
	Result any  `json:"result"`
	Meta   Meta `json:"meta"`
}

// Pool is inert: the service builds a fresh engine for every answer and
// keeps none between queries. The type, NewPool and Options.Pool remain
// only because perfbench, a separate module that changes only with the
// benchmark, still passes one to New; nothing else may construct one.
type Pool struct{}

// NewPool returns an inert Pool and ignores its arguments.
func NewPool(int, int, int) *Pool { return &Pool{} }

// Options configures a Server.
type Options struct {
	// Pool is ignored (see Pool).
	Pool *Pool
	// Workers bounds concurrently executing queries (default 8; excess
	// requests queue on the semaphore until their context expires).
	Workers int
	// Timeout bounds one query's execution (default 60s); a timed-out
	// request gets 504 while the worker finishes in the background.
	Timeout time.Duration
}

// Server answers what-if queries. Create with New, expose via Handler, and
// Drain before process exit.
type Server struct {
	sem     chan struct{}
	timeout time.Duration
	wg      sync.WaitGroup
	start   time.Time

	queries, timeouts, errors atomic.Uint64

	resMu    sync.Mutex
	results  map[string]json.RawMessage
	resOrder []string // LRU order, oldest first; len == len(results)

	rcacheHits, rcacheMisses, rcacheEvictions atomic.Uint64
}

// resultCap bounds the served result cache: fully identical queries replay
// the stored result bytes instead of re-simulating. Results are
// deterministic — the simulation's output is a pure function of the
// canonical configuration — so replay is always correct; the cap only
// bounds memory.
const resultCap = 128

// New creates a Server.
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 60 * time.Second
	}
	return &Server{
		sem:     make(chan struct{}, opts.Workers),
		timeout: opts.Timeout,
		start:   time.Now(),
		results: make(map[string]json.RawMessage),
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

// Handler returns the HTTP API:
//
//	POST /v1/iter    — training-iteration query: QueryConfig body, mixnet.Result result
//	POST /v1/cost    — fabric pricing: costQuery body, mixnet.CostBreakdown result
//	POST /v1/failure — failure drill: failureQuery body, scenario.Result result
//	GET  /v1/stats   — result-cache/query counters
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
// already timed out) to finish. Call after http.Server.Shutdown for a
// graceful stop.
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
		ResultCache: ResultCacheStats{
			Hits:      s.rcacheHits.Load(),
			Misses:    s.rcacheMisses.Load(),
			Evictions: s.rcacheEvictions.Load(),
			Entries:   entries,
		},
	}
}

// clientErr marks an error as the requester's fault — a query naming an
// unknown fabric or scenario, or a cost query the model cannot price — so
// do() reports 400 instead of 500. A configuration no engine can be built
// from arrives as a *scenario.ConfigError, which do() reports as 400 too.
type clientErr struct{ err error }

func (e clientErr) Error() string { return e.err.Error() }
func (e clientErr) Unwrap() error { return e.err }

// badQuery wraps a validation failure as a client error.
func badQuery(err error) error {
	if err == nil {
		return nil
	}
	return clientErr{err}
}

// isClientErr reports whether err is the requester's fault.
func isClientErr(err error) bool {
	var ce clientErr
	var cfg *scenario.ConfigError
	return errors.As(err, &ce) || errors.As(err, &cfg)
}

// do runs one query under the worker semaphore with the per-query
// timeout. The worker goroutine always runs to completion, but its
// response is only written while the request waits: timeout gets 504, a
// client that disconnected gets nothing (the handler returns instead of
// pinning the connection for the rest of the query budget).
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
			if isClientErr(o.err) {
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
		// background.
	}
}

// answer replays the result cached under key, or calls compute and caches
// its result under key. A no_cache query or an empty key skips the cache
// both ways.
func (s *Server) answer(key string, noCache bool, compute func() (any, error)) (any, Meta, error) {
	useCache := !noCache && key != ""
	if useCache {
		if raw, ok := s.cachedResult(key); ok {
			s.rcacheHits.Add(1)
			return raw, Meta{Cached: true}, nil
		}
		s.rcacheMisses.Add(1)
	}
	v, err := compute()
	if err != nil || !useCache {
		return v, Meta{}, err
	}
	return s.storeResult(key, v), Meta{}, nil
}

// runIter answers a training-iteration query with what mixnet.Simulate
// returns for the equivalent SimConfig: a fresh engine from
// scenario.NewEngine, run for the query's iterations, its stats assembled
// the same way. A configuration no engine can be built from is a 400; an
// error during the run is a 500.
func (s *Server) runIter(q QueryConfig) (any, Meta, error) {
	cfg := q.scenarioConfig().WithDefaults()
	return s.answer(resultKey("iter", cfg), q.NoCache, func() (any, error) {
		e, err := scenario.NewEngine(cfg)
		if err != nil {
			return nil, err
		}
		stats, err := e.Run(cfg.Iterations)
		if err != nil {
			return nil, err
		}
		return mixnet.Result{
			MeanIterTime: trainsim.MeanIterTime(stats),
			Stats:        stats,
			GPUs:         e.Cluster.GPUCount(),
			Servers:      len(e.Cluster.Servers),
		}, nil
	})
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

// runFailure answers a failure-drill query with what scenario.Run returns
// for the named drill: a clean and a faulty engine, both built fresh.
func (s *Server) runFailure(q failureQuery) (any, Meta, error) {
	if _, ok := scenario.DrillInjector(q.Scenario); !ok {
		return nil, Meta{}, badQuery(fmt.Errorf("serve: %q is not a failure-drill scenario", q.Scenario))
	}
	cfg := q.scenarioConfig()
	if q.Scenario == scenario.CopilotDrill {
		// scenario.Run runs this drill under Copilot first-A2A handling;
		// setting it here makes the cache key name the configuration that
		// runs, so a spelled-out "copilot" shares the entry.
		cfg.FirstA2A = "copilot"
	}
	cfg = cfg.WithDefaults()
	return s.answer(resultKey("failure|"+q.Scenario, cfg), q.NoCache, func() (any, error) {
		return scenario.Run(q.Scenario, cfg)
	})
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
