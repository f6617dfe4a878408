package topo

import (
	"slices"
	"testing"
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
	var delay [3]time.Duration
	for i, p := range pn.Paths {
		for _, l := range p.Links {
			delay[i] += pn.Graph.Link(l).Delay
		}
	}
	if !(delay[1] < delay[0] && delay[1] < delay[2]) {
		t.Fatalf("Path 2 is not the shortest: %v", delay)
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
		if !slices.Equal(back.Nodes, p.Nodes) || !slices.Equal(back.Links, p.Links) {
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
}

// TestPathValid: a path's links join its nodes in order, and no node
// repeats, the first as the last or one in the middle.
func TestPathValid(t *testing.T) {
	g, n := line(t, 3)
	ab, _ := g.FindLink(n[0], n[1])
	ba, _ := g.FindLink(n[1], n[0])
	bc, _ := g.FindLink(n[1], n[2])
	cb, _ := g.FindLink(n[2], n[1])
	for _, c := range []struct {
		name string
		p    Path
		want bool
	}{
		{"a b c", Path{[]NodeID{n[0], n[1], n[2]}, []LinkID{ab, bc}}, true},
		{"link off its nodes", Path{[]NodeID{n[0], n[2]}, []LinkID{ab}}, false},
		{"a b a", Path{[]NodeID{n[0], n[1], n[0]}, []LinkID{ab, ba}}, false},
		{"a b c b", Path{[]NodeID{n[0], n[1], n[2], n[1]}, []LinkID{ab, bc, cb}}, false},
	} {
		if got := c.p.Valid(g); got != c.want {
			t.Errorf("%s: Valid = %v, want %v", c.name, got, c.want)
		}
	}
}
