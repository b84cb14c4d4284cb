// Package serve is the long-running what-if query service: an HTTP/JSON
// API answering iteration-time, network-cost and failure-drill queries
// over the same engine construction path as mixnet.Simulate and the
// scenario runner, with cross-query reuse — a keyed pool of warm engines
// per configuration shape and a shared, bounded collective compile memo —
// so repeat queries skip topology construction and collective compilation
// entirely. Responses are byte-identical to the equivalent batch CLI run;
// the pool and memo only change how fast they are produced.
package serve

import (
	"encoding/json"
	"sort"
	"sync"
	"sync/atomic"

	"mixnet/internal/collective"
	"mixnet/internal/scenario"
	"mixnet/internal/trainsim"
)

// Pool keeps warm trainsim engines keyed by configuration shape — every
// scenario.Config field except the per-query Seed, Iterations and Trace —
// plus one shared compile memo per shape, pinned to the shape's build
// epoch. Acquire hands out exclusive leases (an engine never serves two
// queries at once); Release verifies the engine was returned to its
// build-time state before pooling it again, so one query's failure drill
// or circuit retargeting can never skew a later query.
type Pool struct {
	mu     sync.Mutex
	shapes map[string]*shapeEntry

	// MaxIdle bounds idle engines kept per shape; MaxUses retires an
	// engine after that many leases (reconfigurable fabrics accrete
	// detached link records over their lifetime; retirement bounds that
	// growth). MemoCap bounds each shape's shared compile memo.
	maxIdle, maxUses, memoCap int

	hits, misses, evictions, restores atomic.Uint64
}

// shapeEntry is one configuration shape's idle engines and shared caches.
type shapeEntry struct {
	idle []*pooledEngine
	memo *collective.Memo // shared compile cache; nil until first build
	// memoEpoch is the build epoch the shared memo is pinned to; identical
	// builds land on identical epochs, and an engine whose build diverges
	// (defensive: should be impossible) simply does not attach.
	memoEpoch uint64
}

// pooledEngine is one warm engine plus the build-time snapshot Release
// verifies restoration against.
type pooledEngine struct {
	e     *trainsim.Engine
	shape string
	uses  int

	buildEpoch    uint64
	buildSig      uint64
	buildLinks    int
	buildDetached int
}

// Lease is an exclusively held engine. Exactly one of Release or Evict
// must be called when the query is done.
type Lease struct {
	Engine *trainsim.Engine
	Warm   bool // true when the engine came from the pool, not a fresh build
	pe     *pooledEngine
	p      *Pool
}

// PoolStats is a point-in-time snapshot of pool effectiveness counters.
type PoolStats struct {
	Hits      uint64 `json:"hits"`      // queries served by a warm engine
	Misses    uint64 `json:"misses"`    // queries that paid a full build
	Evictions uint64 `json:"evictions"` // engines retired instead of pooled
	Restores  uint64 `json:"restores"`  // post-drill verified epoch restorations
	Idle      int    `json:"idle"`      // engines currently pooled
	Shapes    int    `json:"shapes"`    // distinct configuration shapes seen
}

// NewPool creates an engine pool. maxIdle <= 0 defaults to 8 idle engines
// per shape, maxUses <= 0 to 1024 leases per engine, memoCap <= 0 to the
// collective package's default memo bound.
func NewPool(maxIdle, maxUses, memoCap int) *Pool {
	if maxIdle <= 0 {
		maxIdle = 8
	}
	if maxUses <= 0 {
		maxUses = 1024
	}
	return &Pool{shapes: make(map[string]*shapeEntry), maxIdle: maxIdle, maxUses: maxUses, memoCap: memoCap}
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
	entry := p.shapes[key]
	if entry == nil {
		entry = &shapeEntry{}
		p.shapes[key] = entry
	}
	for len(entry.idle) > 0 {
		pe := entry.idle[len(entry.idle)-1]
		entry.idle = entry.idle[:len(entry.idle)-1]
		p.mu.Unlock()
		if err := pe.e.PrepareRun(cfg.Seed); err != nil {
			// Unreusable (leftover state the release check missed, or an
			// external source): drop it and try the next idle engine.
			p.evictions.Add(1)
			p.mu.Lock()
			continue
		}
		p.hits.Add(1)
		return &Lease{Engine: pe.e, Warm: true, pe: pe, p: p}, nil
	}
	p.mu.Unlock()

	e, err := scenario.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	g := e.Cluster.G
	pe := &pooledEngine{
		e: e, shape: key,
		buildEpoch:    g.Epoch(),
		buildSig:      g.StateHash(),
		buildLinks:    g.NumLinks(),
		buildDetached: g.DetachedLinks(),
	}
	p.attachSharedMemo(entry, pe)
	p.misses.Add(1)
	return &Lease{Engine: e, pe: pe, p: p}, nil
}

// attachSharedMemo wires a freshly built engine to its shape's shared
// compile memo, creating the memo on the shape's first build. Attachment
// is best-effort: engines whose build epoch diverges from the memo's pin
// (impossible for deterministic builds; checked defensively) or whose
// folded cluster is not fully materialized simply run on their private
// memo.
func (p *Pool) attachSharedMemo(entry *shapeEntry, pe *pooledEngine) {
	p.mu.Lock()
	if entry.memo == nil {
		entry.memo = collective.NewSharedMemo(p.memoCap, pe.buildEpoch)
		entry.memoEpoch = pe.buildEpoch
	}
	memo, epoch := entry.memo, entry.memoEpoch
	p.mu.Unlock()
	if epoch != pe.buildEpoch {
		return
	}
	_ = pe.e.AttachSharedMemo(memo) // error = partially materialized fold: keep private memo
}

// Release returns a leased engine to the pool after verifying it was
// restored to its build-time state; engines that fail verification are
// evicted. damaged forces eviction (the caller knows the engine is
// unsound, e.g. a failure injection did not fully unwind).
//
// The verification ladder:
//
//  1. Leftover failure state (overrides, TP charges, excluded servers) —
//     evict: restoration did not unwind.
//  2. Reconfigured circuits are reinstalled to the build configuration
//     (topo.Cluster.ResetCircuits; no-op for static fabrics and for runs
//     that never retargeted).
//  3. Graph still at the build epoch — pool immediately (clean queries on
//     static fabrics land here; warm route and compile caches intact).
//  4. Epoch moved but StateHash, link count and detach count all match
//     the build snapshot — every mutation was a verified flag-flip
//     round trip (failure drills' SetLinkUp down/up), adjacency
//     untouched: rewind the epoch (topo.Graph.RestoreEpoch) so the shared
//     build-epoch compile memo becomes valid again, and resync the
//     engine's own epoch-stamped caches (Engine.ResyncCaches) — their
//     drill-time stamps are now *ahead* of the graph, and a later drill
//     with the same number of epoch bumps would land back on exactly
//     those values, reviving routes recorded under the earlier drill's
//     downed links. Then pool.
//  5. StateHash matches but the graph grew (reconfigurable fabrics:
//     reinstalled circuits allocate fresh link IDs) — pool warm without
//     the epoch rewind; route/compile caches rebuild lazily, topology
//     construction is still skipped.
//  6. Anything else — evict.
func (l *Lease) Release(damaged bool) {
	p, pe := l.p, l.pe
	l.p, l.pe, l.Engine = nil, nil, nil
	if p == nil {
		return
	}
	pe.uses++
	if damaged || pe.uses >= p.maxUses || !pe.e.Pristine() {
		p.evictions.Add(1)
		return
	}
	if _, err := pe.e.Cluster.ResetCircuits(); err != nil {
		p.evictions.Add(1)
		return
	}
	g := pe.e.Cluster.G
	if g.Epoch() != pe.buildEpoch {
		if g.StateHash() != pe.buildSig {
			p.evictions.Add(1)
			return
		}
		if g.NumLinks() == pe.buildLinks && g.DetachedLinks() == pe.buildDetached {
			g.RestoreEpoch(pe.buildEpoch)
			// The rewind leaves any drill-time cache stamp ahead of the
			// graph epoch; drop those caches now, while the regression is
			// still observable — lazy epoch-equality checks cannot tell the
			// restored epoch from a later mutation landing on the same value.
			pe.e.ResyncCaches()
			p.restores.Add(1)
		}
	}
	p.mu.Lock()
	entry := p.shapes[pe.shape]
	if entry == nil || len(entry.idle) >= p.maxIdle {
		p.mu.Unlock()
		p.evictions.Add(1)
		return
	}
	entry.idle = append(entry.idle, pe)
	p.mu.Unlock()
}

// Evict discards the leased engine unconditionally.
func (l *Lease) Evict() {
	p := l.p
	l.p, l.pe, l.Engine = nil, nil, nil
	if p != nil {
		p.evictions.Add(1)
	}
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
	for _, k := range p.shapeKeysLocked() {
		s.Idle += len(p.shapes[k].idle)
	}
	p.mu.Unlock()
	return s
}

// shapeKeysLocked returns the shape keys in sorted order; p.mu must be held.
func (p *Pool) shapeKeysLocked() []string {
	keys := make([]string, 0, len(p.shapes))
	for k := range p.shapes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// MemoStats aggregates the shared compile memos across shapes. Safe to
// call concurrently with queries (the memo counters are atomic).
func (p *Pool) MemoStats() collective.MemoStats {
	p.mu.Lock()
	memos := make([]*collective.Memo, 0, len(p.shapes))
	for _, k := range p.shapeKeysLocked() {
		if m := p.shapes[k].memo; m != nil {
			memos = append(memos, m)
		}
	}
	p.mu.Unlock()
	var out collective.MemoStats
	for _, m := range memos {
		ms := m.Stats()
		out.Hits += ms.Hits
		out.Misses += ms.Misses
		out.Bypasses += ms.Bypasses
	}
	return out
}
