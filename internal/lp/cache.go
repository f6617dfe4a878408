package lp

import (
	"container/list"
	"fmt"
	"sync"

	"mptcpsim/internal/topo"
)

// Baselines bundles the analytic reference allocations of one topology:
// the LP optimum and the max-min fair point. All rates are in Mbps,
// indexed by path.
type Baselines struct {
	// ProblemString is the canonical rendering of the throughput LP (one
	// constraint per shared link) — also the cache key.
	ProblemString string
	// Solution is the LP optimum; Status is always Optimal.
	Solution Solution
	// MaxMin is the max-min fair allocation.
	MaxMin []float64
}

// baselineEntry is one memoised computation; once guarantees each distinct
// topology's LP is solved exactly once even when many sweep workers miss the
// cache simultaneously, and fair does the same for MaxMin, which is
// computed only when a caller first asks for it.
type baselineEntry struct {
	once, fair sync.Once
	b          *Baselines
	err        error
	// elem is the entry's position in the LRU list; nil once evicted.
	elem *list.Element
}

// baselineCacheCap bounds the baseline cache. Dynamic-event timelines
// multiply distinct cache keys (one per capacity epoch per topology), so
// the cache is LRU-bounded instead of growing without limit for the
// lifetime of the process.
const baselineCacheCap = 512

// baselineCache memoises Baselines by the canonical problem rendering,
// bounded by an LRU policy. A sweep runs one topology under many (CC,
// scheduler, ordering, seed) combinations, and the baselines depend only on
// capacities and incidence: each is computed once per distinct topology
// (and, for dynamic runs, capacity epoch) and shared.
var baselineCache = struct {
	sync.Mutex
	m map[string]*baselineEntry
	// lru orders keys by recency, oldest at the front.
	lru *list.List
	cap int
}{m: make(map[string]*baselineEntry), lru: list.New(), cap: baselineCacheCap}

// evictOldestLocked removes the least recently used entry. The caller
// holds the cache lock. In-flight holders keep their entry pointer; only
// the map reference goes away.
func evictOldestLocked() bool {
	front := baselineCache.lru.Front()
	if front == nil {
		return false
	}
	old := front.Value.(string)
	if oe := baselineCache.m[old]; oe != nil {
		oe.elem = nil
	}
	delete(baselineCache.m, old)
	baselineCache.lru.Remove(front)
	return true
}

// lookupEntry returns the entry for key, creating it (and evicting the
// least recently used entry when the cache is full) on a miss.
func lookupEntry(key string) *baselineEntry {
	baselineCache.Lock()
	defer baselineCache.Unlock()
	e := baselineCache.m[key]
	if e != nil {
		if e.elem != nil {
			baselineCache.lru.MoveToBack(e.elem)
		}
		return e
	}
	for len(baselineCache.m) >= baselineCache.cap && evictOldestLocked() {
	}
	e = &baselineEntry{}
	e.elem = baselineCache.lru.PushBack(key)
	baselineCache.m[key] = e
	return e
}

// CachedBaselines returns the Baselines for the given topology and paths,
// computing them on first use and serving a cached copy afterwards. The
// cache key is the canonical LP rendering, which captures exactly the
// inputs both baselines depend on: the per-link capacities and the
// path-link incidence. It is safe for concurrent use; callers receive
// private slice copies and may modify them freely.
func CachedBaselines(g *topo.Graph, paths []topo.Path) (*Baselines, error) {
	return CachedBaselinesCaps(g, paths, nil)
}

// CachedBaselinesCaps is CachedBaselines under per-link capacity
// overrides — the baselines of one capacity epoch of a dynamic run. The
// overridden capacities flow into the canonical problem rendering, so
// every distinct epoch gets its own cache slot.
func CachedBaselinesCaps(g *topo.Graph, paths []topo.Path, caps Caps) (*Baselines, error) {
	e, err := cachedEntry(g, paths, caps)
	if err != nil {
		return nil, err
	}
	e.fair.Do(func() {
		e.b.MaxMin = MaxMinCaps(g, paths, caps)
	})
	return &Baselines{
		ProblemString: e.b.ProblemString,
		Solution:      e.b.Solution.clone(),
		MaxMin:        append([]float64(nil), e.b.MaxMin...),
	}, nil
}

// CachedOptimumCaps is the LP optimum of CachedBaselinesCaps alone, from the
// same cache entry, in a private copy. It never computes the max-min
// reference, which a caller reading only the optimum (a capacity epoch's
// gap) does not need.
func CachedOptimumCaps(g *topo.Graph, paths []topo.Path, caps Caps) (Solution, error) {
	e, err := cachedEntry(g, paths, caps)
	if err != nil {
		return Solution{}, err
	}
	return e.b.Solution.clone(), nil
}

// cachedEntry returns the cache entry of the problem, its LP solved.
func cachedEntry(g *topo.Graph, paths []topo.Path, caps Caps) (*baselineEntry, error) {
	prob := MaxThroughputCaps(g, paths, caps)
	key := prob.String()
	e := lookupEntry(key)
	e.once.Do(func() {
		sol, err := prob.Solve()
		if err != nil {
			e.err = err
			return
		}
		if sol.Status != Optimal {
			e.err = fmt.Errorf("lp: baseline LP not optimal: %v", sol.Status)
			return
		}
		e.b = &Baselines{ProblemString: key, Solution: sol}
	})
	return e, e.err
}

// clone is s with its own copy of X.
func (s Solution) clone() Solution {
	s.X = append([]float64(nil), s.X...)
	return s
}

// BaselineCacheSize reports how many distinct problems are cached: the
// tests check the cache's bound with it, and bench/ reports it as
// lp.cache_misses, the LP problems a workload solved.
func BaselineCacheSize() int {
	baselineCache.Lock()
	defer baselineCache.Unlock()
	return len(baselineCache.m)
}

// ResetBaselineCache drops every cached entry (exposed to embedders as
// mptcpsim.ResetBaselineCache). In-flight CachedBaselines calls are
// unaffected: they hold their own entry pointers.
func ResetBaselineCache() {
	baselineCache.Lock()
	defer baselineCache.Unlock()
	baselineCache.m = make(map[string]*baselineEntry)
	baselineCache.lru = list.New()
}
