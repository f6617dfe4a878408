package topo

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mptcpsim/internal/unit"
)

func line(t *testing.T, n int) (*Graph, []NodeID) {
	t.Helper()
	g := New()
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(string(rune('a' + i)))
	}
	for i := 0; i+1 < n; i++ {
		g.AddDuplex(ids[i], ids[i+1], 100*unit.Mbps, time.Millisecond, 0)
	}
	return g, ids
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	if g.AddNode("a") != a {
		t.Fatal("duplicate AddNode should return the same ID")
	}
	if g.NumNodes() != 1 {
		t.Fatal("duplicate node added")
	}
	id, ok := g.NodeByName("a")
	if !ok || id != a {
		t.Fatal("NodeByName broken")
	}
	if _, ok := g.NodeByName("zzz"); ok {
		t.Fatal("NodeByName found a ghost")
	}
}

func TestValidate(t *testing.T) {
	g, ids := line(t, 3)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := New()
	a, b := bad.AddNode("a"), bad.AddNode("b")
	bad.AddLink(a, b, 0, time.Millisecond, 0)
	if err := bad.Validate(); err == nil {
		t.Fatal("zero rate should fail validation")
	}
	loop := New()
	x := loop.AddNode("x")
	loop.links = append(loop.links, Link{ID: 0, From: x, To: x, Rate: unit.Mbps})
	if err := loop.Validate(); err == nil {
		t.Fatal("self-loop should fail validation")
	}
	_ = ids
}

func TestShortestPathLine(t *testing.T) {
	g, ids := line(t, 5)
	p, ok := g.ShortestPath(ids[0], ids[4], nil, nil, nil)
	if !ok {
		t.Fatal("no path found")
	}
	if len(p.Links) != 4 {
		t.Fatalf("hops = %d, want 4", len(p.Links))
	}
	if !p.Valid(g) {
		t.Fatal("path invalid")
	}
	if p.Delay(g) != 4*time.Millisecond {
		t.Fatalf("delay = %v", p.Delay(g))
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New()
	a := g.AddNode("a")
	b := g.AddNode("b")
	if _, ok := g.ShortestPath(a, b, nil, nil, nil); ok {
		t.Fatal("found path in disconnected graph")
	}
}

func TestShortestPathPrefersLowDelay(t *testing.T) {
	// a -> b -> d (2ms) vs a -> c -> d (10ms): must take the b route.
	g := New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	g.AddLink(a, b, 10*unit.Mbps, time.Millisecond, 0)
	g.AddLink(b, d, 10*unit.Mbps, time.Millisecond, 0)
	g.AddLink(a, c, unit.Gbps, 5*time.Millisecond, 0)
	g.AddLink(c, d, unit.Gbps, 5*time.Millisecond, 0)
	p, ok := g.ShortestPath(a, d, nil, nil, nil)
	if !ok || p.Nodes[1] != b {
		t.Fatalf("took wrong route: %s", p.Format(g))
	}
}

func TestBannedLinksAndNodes(t *testing.T) {
	g := New()
	a, b, c, d := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d")
	ab := g.AddLink(a, b, unit.Gbps, time.Millisecond, 0)
	g.AddLink(b, d, unit.Gbps, time.Millisecond, 0)
	g.AddLink(a, c, unit.Gbps, 2*time.Millisecond, 0)
	g.AddLink(c, d, unit.Gbps, 2*time.Millisecond, 0)
	p, ok := g.ShortestPath(a, d, nil, map[LinkID]bool{ab: true}, nil)
	if !ok || p.Nodes[1] != c {
		t.Fatal("banned link not avoided")
	}
	p, ok = g.ShortestPath(a, d, nil, nil, map[NodeID]bool{b: true})
	if !ok || p.Nodes[1] != c {
		t.Fatal("banned node not avoided")
	}
}

func TestKShortestPathsPaperNet(t *testing.T) {
	pn := Paper()
	ks := pn.Graph.KShortestPaths(pn.S, pn.D, 3, nil)
	if len(ks) != 3 {
		t.Fatalf("got %d paths, want 3", len(ks))
	}
	// First must be Path 2 (the lowest-delay path).
	if !equalPath(ks[0], pn.Paths[1]) {
		t.Fatalf("shortest = %s, want Path 2 (%s)", ks[0].Format(pn.Graph), pn.Paths[1].Format(pn.Graph))
	}
	// Costs must be nondecreasing.
	for i := 1; i < len(ks); i++ {
		if ks[i].Delay(pn.Graph) < ks[i-1].Delay(pn.Graph) {
			t.Fatal("paths not sorted by cost")
		}
	}
	// All loop-free and valid.
	for _, p := range ks {
		if !p.Valid(pn.Graph) {
			t.Fatalf("invalid path %v", p)
		}
		seen := map[NodeID]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Fatalf("loop in path %s", p.Format(pn.Graph))
			}
			seen[n] = true
		}
	}
}

func TestPaperNetInvariants(t *testing.T) {
	pn := Paper()
	if err := pn.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	p1, p2, p3 := pn.Paths[0], pn.Paths[1], pn.Paths[2]
	for i, p := range pn.Paths {
		if !p.Valid(pn.Graph) {
			t.Fatalf("Path %d invalid", i+1)
		}
		if p.Nodes[0] != pn.S || p.Nodes[len(p.Nodes)-1] != pn.D {
			t.Fatalf("Path %d endpoints wrong", i+1)
		}
	}
	// Pairwise shared bottlenecks with the right capacities.
	check := func(a, b Path, wantRate unit.Rate, wantBinding LinkID) {
		t.Helper()
		var minRate unit.Rate = 1 << 60
		var bindID LinkID = -1
		for l, users := range PathsByLink([]Path{a, b}) {
			if len(users) < 2 {
				continue
			}
			if r := pn.Graph.Link(l).Rate; r < minRate {
				minRate, bindID = r, l
			}
		}
		if minRate != wantRate {
			t.Fatalf("shared bottleneck rate = %v, want %v", minRate, wantRate)
		}
		if bindID != wantBinding {
			t.Fatalf("binding link = %d, want %d", bindID, wantBinding)
		}
	}
	check(p1, p2, PaperCapSV1, pn.Bottlenecks[0])
	check(p2, p3, PaperCapV3V4, pn.Bottlenecks[1])
	check(p1, p3, PaperCapV2V3, pn.Bottlenecks[2])
	// Path 2 strictly shortest by delay.
	if !(p2.Delay(pn.Graph) < p1.Delay(pn.Graph) && p2.Delay(pn.Graph) < p3.Delay(pn.Graph)) {
		t.Fatalf("Path 2 is not the shortest: %v %v %v",
			p1.Delay(pn.Graph), p2.Delay(pn.Graph), p3.Delay(pn.Graph))
	}
	// Bottleneck rates per path.
	if p1.BottleneckRate(pn.Graph) != PaperCapSV1 {
		t.Fatal("Path 1 bottleneck wrong")
	}
	if p2.BottleneckRate(pn.Graph) != PaperCapSV1 {
		t.Fatal("Path 2 bottleneck wrong")
	}
	if p3.BottleneckRate(pn.Graph) != PaperCapV3V4 {
		t.Fatal("Path 3 bottleneck wrong")
	}
}

func TestPathsByLink(t *testing.T) {
	pn := Paper()
	m := PathsByLink(pn.Paths)
	if got := m[pn.Bottlenecks[0]]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("s-v1 users = %v, want [0 1]", got)
	}
	if got := m[pn.Bottlenecks[1]]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("v3-v4 users = %v, want [1 2]", got)
	}
	if got := m[pn.Bottlenecks[2]]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("v2-v3 users = %v, want [0 2]", got)
	}
}

func TestFindLink(t *testing.T) {
	pn := Paper()
	if _, ok := pn.Graph.FindLink(pn.S, pn.D); ok {
		t.Fatal("found non-existent direct link s->d")
	}
	v1, _ := pn.Graph.NodeByName("v1")
	lid, ok := pn.Graph.FindLink(pn.S, v1)
	if !ok || pn.Graph.Link(lid).Rate != PaperCapSV1 {
		t.Fatal("FindLink s->v1 broken")
	}
}

// randomGraph builds a connected random DAG-ish graph for property tests.
func randomGraph(rng *rand.Rand, n int) *Graph {
	g := New()
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = g.AddNode(string(rune('A' + i)))
	}
	// Spanning chain guarantees connectivity.
	for i := 0; i+1 < n; i++ {
		g.AddDuplex(ids[i], ids[i+1], unit.Rate(1+rng.Intn(100))*unit.Mbps,
			time.Duration(1+rng.Intn(5))*time.Millisecond, 0)
	}
	extra := rng.Intn(2 * n)
	for e := 0; e < extra; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		g.AddDuplex(ids[i], ids[j], unit.Rate(1+rng.Intn(100))*unit.Mbps,
			time.Duration(1+rng.Intn(5))*time.Millisecond, 0)
	}
	return g
}

// Property: Yen's first path equals Dijkstra's, costs are sorted, and every
// returned path is simple and valid.
func TestQuickYenProperties(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + int(nRaw%5)
		g := randomGraph(rng, n)
		src, dst := NodeID(0), NodeID(n-1)
		sp, ok := g.ShortestPath(src, dst, nil, nil, nil)
		if !ok {
			return false // spanning chain guarantees a path
		}
		ks := g.KShortestPaths(src, dst, 4, nil)
		if len(ks) == 0 || !equalPath(ks[0], sp) {
			return false
		}
		costs := make([]float64, len(ks))
		for i, p := range ks {
			if !p.Valid(g) {
				return false
			}
			seen := map[NodeID]bool{}
			for _, nd := range p.Nodes {
				if seen[nd] {
					return false
				}
				seen[nd] = true
			}
			costs[i] = g.pathCost(p, DelayWeight)
		}
		// Nondecreasing up to float summation noise: equal-cost paths can
		// differ in the last ulp depending on the order links were added.
		for i := 1; i < len(costs); i++ {
			if costs[i] < costs[i-1]-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPathFormat(t *testing.T) {
	pn := Paper()
	want := "s -> v1 -> v3 -> v4 -> d"
	if got := pn.Paths[1].Format(pn.Graph); got != want {
		t.Fatalf("Format = %q, want %q", got, want)
	}
}

func TestReversePathFailsOnOneWayLink(t *testing.T) {
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	ab := g.AddLink(a, b, 10*unit.Mbps, time.Millisecond, 0) // no reverse
	p := Path{Nodes: []NodeID{a, b}, Links: []LinkID{ab}}
	if _, err := ReversePath(g, p); err == nil {
		t.Fatal("reverse of one-way path succeeded")
	}
}

func TestReversePathRoundTrip(t *testing.T) {
	pn := Paper()
	for _, p := range pn.Paths {
		rev, err := ReversePath(pn.Graph, p)
		if err != nil {
			t.Fatal(err)
		}
		if !rev.Valid(pn.Graph) {
			t.Fatal("reverse path invalid")
		}
		back, err := ReversePath(pn.Graph, rev)
		if err != nil {
			t.Fatal(err)
		}
		if !equalPath(back, p) {
			t.Fatalf("double reverse differs: %s vs %s", back.Format(pn.Graph), p.Format(pn.Graph))
		}
	}
}

func TestParallelLinksSupported(t *testing.T) {
	// Multigraph: two parallel a->b links with different capacities; paths
	// can pin either one explicitly.
	g := New()
	a, b := g.AddNode("a"), g.AddNode("b")
	l1 := g.AddLink(a, b, 10*unit.Mbps, time.Millisecond, 0)
	l2 := g.AddLink(a, b, 20*unit.Mbps, time.Millisecond, 0)
	p1 := Path{Nodes: []NodeID{a, b}, Links: []LinkID{l1}}
	p2 := Path{Nodes: []NodeID{a, b}, Links: []LinkID{l2}}
	if !p1.Valid(g) || !p2.Valid(g) {
		t.Fatal("parallel-link paths invalid")
	}
	if byLink := PathsByLink([]Path{p1, p2}); len(byLink[l1]) != 1 || len(byLink[l2]) != 1 {
		t.Fatalf("distinct parallel links reported as shared: %v", byLink)
	}
	if p1.BottleneckRate(g) == p2.BottleneckRate(g) {
		t.Fatal("parallel links confused")
	}
}
