// Package serve is the long-running what-if query service: an HTTP/JSON
// API answering iteration-time, network-cost and failure-drill queries
// over the same engine construction path as mixnet.Simulate and the
// scenario runner, with cross-query reuse — a keyed pool of warm engines
// per configuration shape, each keeping its own bounded collective compile
// memo, and a result cache — so repeat queries skip topology construction
// and, while the fabric is unchanged, collective compilation. Responses
// are byte-identical to the equivalent batch CLI run; the pool and caches
// only change how fast they are produced.
package serve

import (
	"encoding/json"
	"maps"
	"slices"
	"sync"
	"sync/atomic"

	"mixnet/internal/collective"
	"mixnet/internal/scenario"
	"mixnet/internal/trainsim"
)

// Pool keeps warm trainsim engines keyed by configuration shape — every
// scenario.Config field except the per-query Seed, Iterations and Trace.
// Acquire hands out exclusive leases (an engine never serves two queries
// at once); Release verifies the engine was returned to its build-time
// state before pooling it again, so one query's failure drill or circuit
// retargeting can never skew a later query.
type Pool struct {
	mu     sync.Mutex
	shapes map[string][]*pooledEngine // idle engines per shape key

	// MaxIdle bounds idle engines kept per shape; MaxUses retires an
	// engine after that many leases (reconfigurable fabrics accrete
	// detached link records over their lifetime; retirement bounds that
	// growth). MemoCap bounds the compile memo of each engine built.
	maxIdle, maxUses, memoCap int

	hits, misses, evictions, restores  atomic.Uint64
	memoHits, memoMisses, memoBypasses atomic.Uint64
}

// pooledEngine is one warm engine plus the build-state hash Release
// verifies restoration against (re-stamped as a folded graph grows).
type pooledEngine struct {
	e        *trainsim.Engine
	shape    string
	uses     int
	buildSig uint64
}

// Lease is an exclusively held engine. Exactly one of Release or Evict
// must be called when the query is done.
type Lease struct {
	Engine *trainsim.Engine
	Warm   bool // true when the engine came from the pool, not a fresh build
	pe     *pooledEngine
	p      *Pool
	epoch  uint64               // graph epoch at lease start
	growth uint64               // graph growth (folded materializations) at lease start
	memo   collective.MemoStats // engine's compile-cache counters at lease start
}

// PoolStats is a point-in-time snapshot of pool effectiveness counters.
type PoolStats struct {
	Hits      uint64 `json:"hits"`      // queries served by a warm engine
	Misses    uint64 `json:"misses"`    // queries that paid a full build
	Evictions uint64 `json:"evictions"` // engines retired instead of pooled
	Restores  uint64 `json:"restores"`  // leases whose graph mutated and hashed back to the build
	Idle      int    `json:"idle"`      // engines currently pooled
	Shapes    int    `json:"shapes"`    // distinct configuration shapes seen
}

// NewPool creates an engine pool. maxIdle <= 0 defaults to 8 idle engines
// per shape, maxUses <= 0 to 1024 leases per engine, memoCap <= 0 to the
// collective package's default bound on each engine's compile memo.
func NewPool(maxIdle, maxUses, memoCap int) *Pool {
	if maxIdle <= 0 {
		maxIdle = 8
	}
	if maxUses <= 0 {
		maxUses = 1024
	}
	return &Pool{shapes: make(map[string][]*pooledEngine), maxIdle: maxIdle, maxUses: maxUses, memoCap: memoCap}
}

// ShapeKey canonicalizes a configuration to its engine-shape identity: the
// canonical JSON form the result cache keys on (defaults applied), with the
// per-query knobs (Seed, Iterations, Trace) zeroed, so two queries
// differing only in those share warm engines and every other field —
// including ones added later — splits the pool. A configuration JSON cannot
// encode (a non-finite float, which Validate rejects) keys as "".
func ShapeKey(cfg scenario.Config) string {
	c := cfg.WithDefaults()
	c.Seed, c.Iterations, c.Trace = 0, 0, nil
	b, err := json.Marshal(c)
	if err != nil {
		return ""
	}
	return string(b)
}

// Acquire leases an engine for cfg's shape, reusing a pooled one when
// available (PrepareRun rewinds it to cfg.Seed) or building fresh. cfg is
// validated first: a warm engine skips construction, so construction-time
// checks cannot be relied on. The caller owns the engine exclusively until
// Release/Evict.
func (p *Pool) Acquire(cfg scenario.Config) (*Lease, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key := ShapeKey(cfg)
	p.mu.Lock()
	idle, seen := p.shapes[key]
	if !seen {
		p.shapes[key] = nil // Stats counts shapes seen, pooled or not
	}
	for len(idle) > 0 {
		pe := idle[len(idle)-1]
		p.shapes[key] = idle[:len(idle)-1]
		p.mu.Unlock()
		if err := pe.e.PrepareRun(cfg.Seed); err != nil {
			// Unreusable (leftover state the release check missed, or an
			// external source): drop it and try the next idle engine.
			p.evictions.Add(1)
			p.mu.Lock()
			idle = p.shapes[key]
			continue
		}
		p.hits.Add(1)
		return p.lease(pe, true), nil
	}
	p.mu.Unlock()

	e, err := scenario.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	e.SetMemoCap(p.memoCap)
	p.misses.Add(1)
	return p.lease(&pooledEngine{e: e, shape: key, buildSig: e.Cluster.G.StateHash()}, false), nil
}

// lease opens a lease on pe, snapshotting the state Release measures the
// lease against.
func (p *Pool) lease(pe *pooledEngine, warm bool) *Lease {
	g := pe.e.Cluster.G
	return &Lease{Engine: pe.e, Warm: warm, pe: pe, p: p, epoch: g.Epoch(), growth: g.Growth(), memo: pe.e.MemoStats()}
}

// Release returns a leased engine to the pool, or evicts it. damaged
// forces eviction (the caller knows the engine is unsound, e.g. a failure
// injection did not fully unwind). Otherwise the engine is pooled again
// only when all of these hold:
//
//   - it carries no leftover failure state (trainsim.Engine.Pristine);
//   - its circuits reinstall to the build configuration
//     (topo.Cluster.ResetCircuits; a no-op for static fabrics and for
//     runs that never retargeted);
//   - its graph epoch did not move during this lease, or its content hash
//     (topo.Graph.StateHash) equals the build hash.
//
// Every lease starts from a verified build state, so an unmoved epoch
// proves the graph unmutated. A symmetry-folded graph may still have grown
// (topo.Graph.Growth), and what it materialized is in its build state, so
// its hash becomes the build hash; otherwise every drill after a folded
// fat-tree's first lease would fail the hash check. A moved epoch is never
// rewound: the epoch only increases, so every cache stamped before or
// during the lease — routes, distance fields, compiled collectives — is
// stale by stamp and rebuilds lazily, and no later mutation sequence can
// land on a stamp it recorded. A lease that moved the epoch and passed the
// hash check counts as a restore.
func (l *Lease) Release(damaged bool) {
	p, pe := l.p, l.pe
	l.p, l.pe, l.Engine = nil, nil, nil
	if p == nil {
		return
	}
	p.countMemo(l.memo, pe.e.MemoStats())
	pe.uses++
	if damaged || pe.uses >= p.maxUses || !pe.e.Pristine() {
		p.evictions.Add(1)
		return
	}
	if _, err := pe.e.Cluster.ResetCircuits(); err != nil {
		p.evictions.Add(1)
		return
	}
	if g := pe.e.Cluster.G; g.Epoch() != l.epoch {
		if g.StateHash() != pe.buildSig {
			p.evictions.Add(1)
			return
		}
		p.restores.Add(1)
	} else if g.Growth() != l.growth {
		pe.buildSig = g.StateHash()
	}
	p.mu.Lock()
	if idle := p.shapes[pe.shape]; len(idle) < p.maxIdle {
		p.shapes[pe.shape] = append(idle, pe)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.evictions.Add(1)
}

// Evict discards the leased engine unconditionally.
func (l *Lease) Evict() {
	p, pe := l.p, l.pe
	l.p, l.pe, l.Engine = nil, nil, nil
	if p != nil {
		p.countMemo(l.memo, pe.e.MemoStats())
		p.evictions.Add(1)
	}
}

// countMemo adds one lease's compile-cache traffic — the change in the
// engine's cumulative counters from before to after — to the pool totals.
func (p *Pool) countMemo(before, after collective.MemoStats) {
	p.memoHits.Add(after.Hits - before.Hits)
	p.memoMisses.Add(after.Misses - before.Misses)
	p.memoBypasses.Add(after.Bypasses - before.Bypasses)
}

// Stats snapshots the pool counters. Safe to call concurrently with
// queries.
func (p *Pool) Stats() PoolStats {
	s := PoolStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Restores:  p.restores.Load(),
	}
	p.mu.Lock()
	s.Shapes = len(p.shapes)
	for _, k := range slices.Sorted(maps.Keys(p.shapes)) {
		s.Idle += len(p.shapes[k])
	}
	p.mu.Unlock()
	return s
}

// MemoStats sums the compile-cache traffic of every finished lease. Safe
// to call concurrently with queries.
func (p *Pool) MemoStats() collective.MemoStats {
	return collective.MemoStats{
		Hits:     p.memoHits.Load(),
		Misses:   p.memoMisses.Load(),
		Bypasses: p.memoBypasses.Load(),
	}
}
