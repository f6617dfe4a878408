package lp

import (
	"math"
	"slices"
	"sync"
	"testing"

	"mptcpsim/internal/topo"
)

func TestCachedBaselines(t *testing.T) {
	pn := topo.Paper()
	before := BaselineCacheSize()

	b, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Solution.Objective-90) > 1e-6 {
		t.Fatalf("LP optimum = %v, want 90", b.Solution.Objective)
	}
	if BaselineCacheSize() <= before && before == 0 {
		t.Fatal("baseline not cached")
	}

	// Second lookup serves the cache and returns equal values in fresh
	// slices the caller may scribble on.
	b2, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	if &b.Solution.X[0] == &b2.Solution.X[0] {
		t.Fatal("cache handed out shared slices")
	}
	for i := range b.Solution.X {
		if b.Solution.X[i] != b2.Solution.X[i] {
			t.Fatalf("cached X differs: %v vs %v", b.Solution.X, b2.Solution.X)
		}
	}
	b2.MaxMin[0] = -1
	b3, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	if b3.MaxMin[0] == -1 {
		t.Fatal("caller mutation leaked into the cache")
	}
	if b3.ProblemString == "" || b3.ProblemString != b.ProblemString {
		t.Fatalf("problem rendering unstable: %q vs %q", b.ProblemString, b3.ProblemString)
	}

	// Direct recomputation matches the cached values.
	mm := MaxMinCaps(pn.Graph, pn.Paths, nil)
	for i := range mm {
		if math.Abs(mm[i]-b3.MaxMin[i]) > 1e-9 {
			t.Fatalf("cached max-min %v != fresh %v", b3.MaxMin, mm)
		}
	}
}

// TestCachedBaselinesConcurrent races goroutines on one cold key through
// both entry points: half ask for the optimum alone, half for every
// baseline. Each gets the one LP solution, and every max-min reference
// handed out is the one computation's.
func TestCachedBaselinesConcurrent(t *testing.T) {
	pn := topo.Paper()
	ResetBaselineCache()
	var wg sync.WaitGroup
	sols := make([]Solution, 16)
	full := make([]*Baselines, 16)
	errs := make([]error, 16)
	for i := range sols {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 1 {
				sols[i], errs[i] = CachedOptimumCaps(pn.Graph, pn.Paths, nil)
				return
			}
			if full[i], errs[i] = CachedBaselines(pn.Graph, pn.Paths); errs[i] == nil {
				sols[i] = full[i].Solution
			}
		}(i)
	}
	wg.Wait()
	for i := range sols {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if math.Abs(sols[i].Objective-90) > 1e-6 {
			t.Fatalf("goroutine %d objective = %v", i, sols[i].Objective)
		}
		if !sameBits(sols[i].X, sols[0].X) {
			t.Fatalf("goroutine %d optimum %v, goroutine 0 %v", i, sols[i].X, sols[0].X)
		}
		if b := full[i]; b != nil && !sameBits(b.MaxMin, full[0].MaxMin) {
			t.Fatalf("goroutine %d max-min %v, goroutine 0 %v", i, b.MaxMin, full[0].MaxMin)
		}
	}
}

// TestCachedOptimumSkipsFairness: the optimum alone leaves the entry's
// max-min reference uncomputed; a later call for every baseline fills it
// in, with the same bits as the direct solve, and both calls hand out the
// same solution.
func TestCachedOptimumSkipsFairness(t *testing.T) {
	pn := topo.Paper()
	ResetBaselineCache()
	caps := Caps{pn.Bottlenecks[1]: 33.5, pn.Bottlenecks[2]: 40}
	sol, err := CachedOptimumCaps(pn.Graph, pn.Paths, caps)
	if err != nil {
		t.Fatal(err)
	}
	baselineCache.Lock()
	e := baselineCache.m[MaxThroughputCaps(pn.Graph, pn.Paths, caps).String()]
	baselineCache.Unlock()
	if e == nil || e.b == nil {
		t.Fatal("the optimum was not cached")
	}
	if e.b.MaxMin != nil {
		t.Fatalf("the optimum alone computed max-min %v", e.b.MaxMin)
	}

	sol.X[0] = -1 // the caller's copy
	b, err := CachedBaselinesCaps(pn.Graph, pn.Paths, caps)
	if err != nil {
		t.Fatal(err)
	}
	again, err := CachedOptimumCaps(pn.Graph, pn.Paths, caps)
	if err != nil {
		t.Fatal(err)
	}
	if again.Status != b.Solution.Status || math.Float64bits(again.Objective) != math.Float64bits(b.Solution.Objective) ||
		!sameBits(again.X, b.Solution.X) || again.X[0] == -1 {
		t.Fatalf("optimum alone %+v, with the baselines %+v", again, b.Solution)
	}
	if mm := MaxMinCaps(pn.Graph, pn.Paths, caps); !sameBits(b.MaxMin, mm) {
		t.Fatalf("cached max-min %v, direct %v", b.MaxMin, mm)
	}
}

// sameBits reports whether a and b hold the same float64s, bit for bit.
func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestResetBaselineCache(t *testing.T) {
	pn := topo.Paper()
	if _, err := CachedBaselines(pn.Graph, pn.Paths); err != nil {
		t.Fatal(err)
	}
	if BaselineCacheSize() == 0 {
		t.Fatal("nothing cached")
	}
	ResetBaselineCache()
	if n := BaselineCacheSize(); n != 0 {
		t.Fatalf("cache size after reset = %d", n)
	}
	b, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Solution.Objective-90) > 1e-6 {
		t.Fatalf("recompute after reset = %v", b.Solution.Objective)
	}
}

func TestCachedBaselinesCapsEpoch(t *testing.T) {
	pn := topo.Paper()
	static, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch with s-v1 down (both directions): paths 1 and 2 are cut, path 3
	// keeps its 60 Mbps v3-v4 bottleneck.
	sv1, ok := pn.Graph.NodeByName("s")
	if !ok {
		t.Fatal("no s")
	}
	v1, ok := pn.Graph.NodeByName("v1")
	if !ok {
		t.Fatal("no v1")
	}
	fwd, _ := pn.Graph.FindLink(sv1, v1)
	rev, _ := pn.Graph.FindLink(v1, sv1)
	caps := Caps{fwd: 0, rev: 0}
	down, err := CachedBaselinesCaps(pn.Graph, pn.Paths, caps)
	if err != nil {
		t.Fatal(err)
	}
	if down.ProblemString == static.ProblemString {
		t.Fatal("epoch key collides with the static key")
	}
	if math.Abs(down.Solution.Objective-60) > 1e-6 {
		t.Fatalf("outage optimum = %v, want 60", down.Solution.Objective)
	}
	want := []float64{0, 0, 60}
	for i, v := range want {
		if math.Abs(down.Solution.X[i]-v) > 1e-6 {
			t.Fatalf("outage solution = %v, want %v", down.Solution.X, want)
		}
	}
	// The max-min baseline respects the outage too.
	if down.MaxMin[0] != 0 || down.MaxMin[1] != 0 || math.Abs(down.MaxMin[2]-60) > 1e-6 {
		t.Fatalf("outage max-min = %v", down.MaxMin)
	}
	// The static entry is untouched.
	again, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(again.Solution.Objective-90) > 1e-6 {
		t.Fatalf("static optimum clobbered: %v", again.Solution.Objective)
	}
}

func TestBaselineCacheBounded(t *testing.T) {
	ResetBaselineCache()
	baselineCache.cap = 4
	defer func() {
		baselineCache.cap = baselineCacheCap
		ResetBaselineCache()
	}()

	pn := topo.Paper()
	lid := pn.Paths[0].Links[0]
	// Ten distinct epochs: the cache must hold at most 4.
	for i := 1; i <= 10; i++ {
		if _, err := CachedBaselinesCaps(pn.Graph, pn.Paths, Caps{lid: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := BaselineCacheSize(); n != 4 {
		t.Fatalf("cache size = %d, want 4 (bounded)", n)
	}
	// Recency: touching an old survivor keeps it across further inserts.
	if _, err := CachedBaselinesCaps(pn.Graph, pn.Paths, Caps{lid: 7}); err != nil {
		t.Fatal(err)
	}
	before := BaselineCacheSize()
	for i := 11; i <= 13; i++ {
		if _, err := CachedBaselinesCaps(pn.Graph, pn.Paths, Caps{lid: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := BaselineCacheSize(); n != before {
		t.Fatalf("cache size drifted: %d -> %d", before, n)
	}
	// An evicted key recomputes correctly.
	b, err := CachedBaselinesCaps(pn.Graph, pn.Paths, Caps{lid: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Solution.Status != Optimal {
		t.Fatalf("recomputed entry not optimal: %v", b.Solution.Status)
	}
}
