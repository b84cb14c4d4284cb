package collective

import (
	"math"
	"sync"
	"sync/atomic"

	"mixnet/internal/metrics"
	"mixnet/internal/netsim"
	"mixnet/internal/topo"
)

// Memoized collective compilation.
//
// Training iterations, sweep points and scenario drills recompile the same
// collectives — same participants, same layer shape, same demand — over and
// over. The compiled output is fully determined by (graph epoch, the
// compiler's inputs, the per-pair ECMP salt positions, the next flow ID):
// PR 5's deterministic-order work made compilation a pure function of that
// state. So a compile can be recorded once and replayed: the replay emits
// fresh netsim.Flow structs (backends mutate Finish in place, so steps must
// never share Flow pointers) around the recorded immutable routes, assigns
// IDs by recorded offset from the current ctx.nextID, and advances each
// endpoint pair's rotating salt by the recorded draw count.
//
// Soundness: an entry stores, per endpoint pair it drew salts for, the
// starting sequence number and the draw count. A replay first verifies that
// every pair's current sequence equals the recorded start — if any pair was
// advanced by a non-memoized compile in between, the entry is bypassed
// (fresh compile, slot re-recorded) instead of replaying wrong paths. Salt
// rotation means consecutive compiles of the same shape legitimately differ;
// a ring of ecmpSpread variant slots per key captures one full rotation, so
// steady-state iteration loops hit after the first cycle. Which slot a
// compile lands in is the caller context's per-key compile count, per-run
// state that rewinds with the salt positions.
//
// A Memo is safe for concurrent use and bounded: at most cap distinct keys
// are retained, evicted least-recently-used, so a long-lived engine
// answering an open-ended query mix cannot grow compiled-plan memory
// without bound. Entries are immutable once stored; racing recorders of the
// same (key, slot) store byte-identical entries (compilation is
// deterministic), so last-write-wins is sound.
type Memo struct {
	mu      sync.Mutex
	epoch   uint64
	cap     int
	entries map[memoKey]*memoVariants
	// Intrusive LRU over the variant rings; front = most recently used.
	front, back *memoVariants

	hits, misses, bypasses atomic.Uint64
}

// DefaultMemoCap bounds a memo to this many distinct compilation keys
// unless overridden with SetCap.
const DefaultMemoCap = 512

// MemoStats counts compile-cache outcomes.
type MemoStats struct {
	Hits     uint64 `json:"hits"`     // replayed from cache
	Misses   uint64 `json:"misses"`   // no entry yet: compiled fresh and recorded
	Bypasses uint64 `json:"bypasses"` // entry present but salt state diverged: recompiled
}

// NewMemo returns an empty bounded memo (cap <= 0 selects DefaultMemoCap)
// that follows its user's graph epoch: any topology mutation clears it.
func NewMemo(cap int) *Memo {
	if cap <= 0 {
		cap = DefaultMemoCap
	}
	return &Memo{cap: cap, entries: make(map[memoKey]*memoVariants)}
}

// Stats returns the cumulative hit/miss/bypass counters. Safe to call
// concurrently with compilations.
func (m *Memo) Stats() MemoStats {
	return MemoStats{
		Hits:     m.hits.Load(),
		Misses:   m.misses.Load(),
		Bypasses: m.bypasses.Load(),
	}
}

// SetCap rebounds the memo, evicting least-recently-used entries if the new
// cap is smaller (n <= 0 selects DefaultMemoCap).
func (m *Memo) SetCap(n int) {
	if n <= 0 {
		n = DefaultMemoCap
	}
	m.mu.Lock()
	m.cap = n
	for len(m.entries) > m.cap {
		m.evictBack()
	}
	m.mu.Unlock()
}

// Len returns the number of distinct compilation keys currently cached.
func (m *Memo) Len() int {
	m.mu.Lock()
	n := len(m.entries)
	m.mu.Unlock()
	return n
}

// memoKey identifies a compilation: collective kind plus a hash of every
// compiler input (participants, demand values, byte counts).
type memoKey struct {
	kind  uint8
	shape uint64
}

const (
	memoDirect uint8 = iota + 1
	memoHier
)

// memoVariants is the per-key ring of recorded compiles, one slot per salt
// rotation position, threaded onto the memo's LRU list.
type memoVariants struct {
	key        memoKey
	prev, next *memoVariants
	slots      [ecmpSpread]*memoEntry
}

// memoEntry is one recorded compile.
type memoEntry struct {
	flows  []memoFlow // in phase-emission order
	bounds []int      // phase k = flows[bounds[k-1]:bounds[k]]
	pairs  []memoPair // per distinct endpoint pair, in salt-draw order
}

// memoFlow is one recorded flow: the route is shared with the router's
// cache and immutable; the ID is recorded relative to the compile-start
// ctx.nextID (flow IDs are drawn in salt order, which interleaves phases).
type memoFlow struct {
	path  topo.Route
	bytes float64
	idOff int32
}

// memoPair records one endpoint pair's salt consumption.
type memoPair struct {
	k     pairKey
	start uint8
	count uint16
}

// pairRecorder captures salt draws during a recorded compile (the
// ctx.nextSalt hook).
type pairRecorder struct {
	idx   map[pairKey]int
	pairs []memoPair
}

func (r *pairRecorder) note(k pairKey, start uint8) {
	if i, ok := r.idx[k]; ok {
		r.pairs[i].count++
		return
	}
	r.idx[k] = len(r.pairs)
	r.pairs = append(r.pairs, memoPair{k: k, start: start, count: 1})
}

// sync drops every entry when the topology changed: recorded routes are
// only valid within one graph epoch. (Folded-graph growth does not bump the
// epoch and does not invalidate routes, so it keeps the cache.)
//
//mixnet:noalloc
func (m *Memo) sync(epoch uint64) {
	//mixnet:allow memo entries store link IDs and node IDs, never storage slots, so growth-only materialization cannot stale them
	if m.epoch == epoch {
		return
	}
	m.mu.Lock()
	//mixnet:allow same growth argument as above: this re-check under the lock only decides whether to clear, never to reuse grown state
	if m.epoch != epoch {
		clear(m.entries)
		m.front, m.back = nil, nil
		m.epoch = epoch
	}
	m.mu.Unlock()
}

// lookup returns the recorded entry for (key, slot), or nil, touching the
// key's LRU position.
func (m *Memo) lookup(key memoKey, slot uint32) *memoEntry {
	m.mu.Lock()
	v := m.entries[key]
	if v == nil {
		m.mu.Unlock()
		return nil
	}
	m.touch(v)
	e := v.slots[slot]
	m.mu.Unlock()
	return e
}

// store records a compiled entry under (key, slot), inserting the key at
// the LRU front and evicting over-cap keys from the back.
func (m *Memo) store(key memoKey, slot uint32, e *memoEntry) {
	m.mu.Lock()
	v := m.entries[key]
	if v == nil {
		v = &memoVariants{key: key}
		m.entries[key] = v
		m.pushFront(v)
		for m.cap > 0 && len(m.entries) > m.cap {
			m.evictBack()
		}
	} else {
		m.touch(v)
	}
	v.slots[slot] = e
	m.mu.Unlock()
}

// touch moves v to the LRU front. Callers hold mu.
//
//mixnet:noalloc
func (m *Memo) touch(v *memoVariants) {
	if m.front == v {
		return
	}
	m.unlink(v)
	m.pushFront(v)
}

//mixnet:noalloc
func (m *Memo) unlink(v *memoVariants) {
	if v.prev != nil {
		v.prev.next = v.next
	} else if m.front == v {
		m.front = v.next
	}
	if v.next != nil {
		v.next.prev = v.prev
	} else if m.back == v {
		m.back = v.prev
	}
	v.prev, v.next = nil, nil
}

//mixnet:noalloc
func (m *Memo) pushFront(v *memoVariants) {
	v.next = m.front
	v.prev = nil
	if m.front != nil {
		m.front.prev = v
	}
	m.front = v
	if m.back == nil {
		m.back = v
	}
}

// evictBack drops the least-recently-used key. Callers hold mu.
//
//mixnet:noalloc
func (m *Memo) evictBack() {
	v := m.back
	if v == nil {
		return
	}
	m.unlink(v)
	delete(m.entries, v.key)
}

// mix folds x into h with a splitmix64-style finaliser.
//
//mixnet:noalloc
func mix(h, x uint64) uint64 {
	h ^= x
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// directShape hashes DirectAllToAll's inputs. Every cell value participates:
// zero cells draw no salt, so the sparsity pattern shapes the record.
//
//mixnet:noalloc
func directShape(gpus []topo.NodeID, demand *metrics.Matrix) uint64 {
	h := mix(0x9e3779b97f4a7c15, uint64(len(gpus)))
	for _, g := range gpus {
		h = mix(h, uint64(uint32(g)))
	}
	h = mix(h, uint64(demand.Rows)<<32|uint64(uint32(demand.Cols)))
	for i := 0; i < demand.Rows; i++ {
		for j := 0; j < demand.Cols; j++ {
			h = mix(h, math.Float64bits(demand.At(i, j)))
		}
	}
	return h
}

// hierShape hashes HierarchicalAllReduce's inputs.
//
//mixnet:noalloc
func hierShape(servers []int, gatewayGPU int, bytes float64) uint64 {
	h := mix(0xd1b54a32d192ed03, uint64(len(servers)))
	for _, s := range servers {
		h = mix(h, uint64(uint32(s)))
	}
	h = mix(h, uint64(uint32(gatewayGPU)))
	h = mix(h, math.Float64bits(bytes))
	return h
}

// memoized wraps one compile in cache lookup/record. With memoization
// disabled, or while already recording an outer compile (the outer record
// captures the nested draws), it compiles directly. The variant-slot cursor
// (ctx.keySeq) advances in lockstep with the context's pairSeq state.
func memoized(ctx *Ctx, kind uint8, shape uint64, compile func() (Phases, error)) (Phases, error) {
	m := ctx.activeMemo()
	if m == nil || ctx.rec != nil {
		return compile()
	}
	key := memoKey{kind, shape}
	if ctx.keySeq == nil {
		ctx.keySeq = make(map[memoKey]uint32)
	}
	slot := ctx.keySeq[key] % ecmpSpread
	ctx.keySeq[key]++
	if e := m.lookup(key, slot); e != nil {
		if ph, ok := e.replay(ctx); ok {
			m.hits.Add(1)
			ctx.memoStats.Hits++
			return ph, nil
		}
		m.bypasses.Add(1)
		ctx.memoStats.Bypasses++
	} else {
		m.misses.Add(1)
		ctx.memoStats.Misses++
	}
	rec := &pairRecorder{idx: make(map[pairKey]int)}
	baseID := ctx.nextID
	ctx.rec = rec
	ph, err := compile()
	ctx.rec = nil
	if err != nil {
		return nil, err
	}
	m.store(key, slot, recordEntry(ph, rec, baseID))
	return ph, nil
}

// recordEntry flattens a freshly compiled phase set into a cache entry.
func recordEntry(ph Phases, rec *pairRecorder, baseID int) *memoEntry {
	e := &memoEntry{pairs: rec.pairs}
	for _, fs := range ph {
		for _, f := range fs {
			e.flows = append(e.flows, memoFlow{path: f.Path, bytes: f.Bytes, idOff: int32(f.ID - baseID)})
		}
		e.bounds = append(e.bounds, len(e.flows))
	}
	return e
}

// replay re-emits a recorded compile, verifying first that every involved
// pair's salt sequence sits exactly where the recording started.
func (e *memoEntry) replay(ctx *Ctx) (Phases, bool) {
	for _, p := range e.pairs {
		if ctx.pairSeq[p.k] != p.start {
			return nil, false
		}
	}
	for _, p := range e.pairs {
		ctx.pairSeq[p.k] = uint8((uint32(p.start) + uint32(p.count)) % ecmpSpread)
	}
	baseID := ctx.nextID
	var phases Phases
	fi := 0
	for _, b := range e.bounds {
		fs := make([]*netsim.Flow, 0, b-fi)
		for ; fi < b; fi++ {
			mf := &e.flows[fi]
			fs = append(fs, &netsim.Flow{ID: baseID + int(mf.idOff), Path: mf.path, Bytes: mf.bytes})
		}
		phases = append(phases, fs)
	}
	ctx.nextID = baseID + len(e.flows)
	return phases, true
}
