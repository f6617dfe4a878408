package lp_test

// An external test package: the corpus problems come from internal/check,
// which builds on the root package, which imports lp.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"mptcpsim/internal/check"
	"mptcpsim/internal/dynamics"
	"mptcpsim/internal/lp"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// descent is the dual gradient descent PropFairCaps replaced, kept to
// report how far it was from the optimum: a fixed step on the link prices,
// up to the first sweep that leaves every price where it was, or 200 000.
func descent(g *topo.Graph, paths []topo.Path, caps lp.Caps) []float64 {
	x := make([]float64, len(paths))
	var live []topo.Path
	var liveIdx []int
	for i, p := range paths {
		if !slices.ContainsFunc(p.Links, func(l topo.LinkID) bool { return capOf(g, caps, l) <= 0 }) {
			live = append(live, p)
			liveIdx = append(liveIdx, i)
		}
	}
	if len(live) == 0 {
		return x
	}
	users := topo.PathsByLink(live)
	lids := make([]topo.LinkID, 0, len(users))
	for lid := range users {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(a, b int) bool { return lids[a] < lids[b] })
	idx := make(map[topo.LinkID]int, len(lids))
	price := make([]float64, len(lids))
	capv := make([]float64, len(lids))
	for i, lid := range lids {
		idx[lid] = i
		capv[i] = capOf(g, caps, lid)
		price[i] = 1 / capv[i]
	}
	xl := make([]float64, len(live))
	for it, moved := 0, true; moved && it < 200000; it++ {
		for i, p := range live {
			var sum float64
			for _, lid := range p.Links {
				sum += price[idx[lid]]
			}
			xl[i] = 1 / sum
		}
		moved = false
		for li, lid := range lids {
			var load float64
			for _, pi := range users[lid] {
				load += xl[pi]
			}
			was := price[li]
			price[li] += 1e-4 * (load - capv[li]) / capv[li]
			price[li] = max(price[li], 1e-9)
			moved = moved || price[li] != was
		}
	}
	for i, v := range xl {
		x[liveIdx[i]] = v
	}
	return x
}

// capOf is a link's capacity in Mbps under the overrides.
func capOf(g *topo.Graph, caps lp.Caps, lid topo.LinkID) float64 {
	if v, ok := caps[lid]; ok {
		return v
	}
	return g.Link(lid).Rate.Mbit()
}

// problem is one (topology, capacity epoch) input of the solver.
type problem struct {
	group string // "paper", "screen" or "corpus"
	name  string
	g     *topo.Graph
	paths []topo.Path
	caps  lp.Caps
}

// corpusProblems rebuilds the LP inputs of generated corpus scenarios
// (check.NewSpec, the scenarios behind hashes-seed1.golden): the graph and
// paths the way Network builds them, and one Caps per capacity epoch inside
// the run.
func corpusProblems(t *testing.T, specs []int) []problem {
	t.Helper()
	var out []problem
	for _, i := range specs {
		sp := check.NewSpec(check.SpecSeed(1, i))
		sf := sp.Scenario
		g := topo.New()
		for _, l := range sf.Links {
			g.AddDuplex(g.AddNode(l.A), g.AddNode(l.B),
				unit.Rate(math.Round(l.Mbps*float64(unit.Mbps))), time.Millisecond, 0)
		}
		paths := make([]topo.Path, len(sf.Paths))
		for pi, sp := range sf.Paths {
			for j, name := range sp.Nodes {
				id, _ := g.NodeByName(name)
				paths[pi].Nodes = append(paths[pi].Nodes, id)
				if j > 0 {
					lid, ok := g.FindLink(paths[pi].Nodes[j-1], id)
					if !ok {
						t.Fatalf("spec %d: no link %s-%s", i, sp.Nodes[j-1], name)
					}
					paths[pi].Links = append(paths[pi].Links, lid)
				}
			}
		}
		var evs []dynamics.Event
		for _, e := range sf.Events {
			kind, err := dynamics.ParseKind(e.Type)
			if err != nil {
				t.Fatal(err)
			}
			// Only the capacity kinds open an epoch; the others would need
			// their parameters to validate.
			if kind != dynamics.LinkDown && kind != dynamics.LinkUp && kind != dynamics.SetRate {
				continue
			}
			evs = append(evs, dynamics.Event{
				At:   time.Duration(math.Round(e.AtMs * float64(time.Millisecond))),
				Kind: kind, A: e.A, B: e.B,
				Rate: unit.Rate(math.Round(e.Mbps * float64(unit.Mbps))),
			})
		}
		tl, err := dynamics.New(g, evs)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		for _, st := range tl.EpochStarts(sp.Options.Duration) {
			out = append(out, problem{"corpus", sp.Name, g, paths, tl.CapsAt(st, g)})
		}
	}
	return out
}

// referenceProblems is the 516-problem set: the paper network as declared
// and with s-v1 down (cutting paths 1 and 2); the benchmark's
// screen_stream problems, v3-v4 retuned to 20…67.5 Mbps, each before and
// after v2-v3 renegotiates from 80 to 40; and every (topology, capacity
// epoch) of the 200 golden corpus scenarios. -short keeps a slice of each.
func referenceProblems(t *testing.T) []problem {
	pn := topo.Paper()
	v3v4, v2v3 := pn.Bottlenecks[1], pn.Bottlenecks[2]
	probs := []problem{
		{"paper", "static", pn.Graph, pn.Paths, nil},
		{"paper", "s-v1 down", pn.Graph, pn.Paths, lp.Caps{pn.Bottlenecks[0]: 0}},
	}
	screen, corpus := 96, 200
	if testing.Short() {
		screen, corpus = 8, 20
	}
	for i := 0; i < screen; i++ {
		for _, r := range []float64{80, 40} {
			probs = append(probs, problem{"screen", "retuned", pn.Graph, pn.Paths,
				lp.Caps{v3v4: 20 + float64(i*96/screen)/2, v2v3: r}})
		}
	}
	specs := make([]int, corpus)
	for i := range specs {
		specs[i] = i * 200 / corpus
	}
	return append(probs, corpusProblems(t, specs)...)
}

// kkt returns PropFairCaps's answer on the problem and its largest
// violation of the optimality conditions, with what it violates. Every
// residual is relative: a link's overload to its capacity, a negative price
// times the capacity, a path's rate times its price sum off 1, a link's
// price times its slack. A cut path must get exactly zero and a live one a
// finite positive rate; anything else, NaN included, is an infinite
// violation.
func kkt(p problem) (x []float64, worst float64, what string) {
	x, y, lids := lp.PropFairCertificate(p.g, p.paths, p.caps)
	price := map[topo.LinkID]float64{}
	for i, lid := range lids {
		price[lid] = y[i]
	}
	note := func(v float64, format string, args ...any) {
		if math.IsNaN(v) {
			v = math.Inf(1)
		}
		if v > worst {
			worst, what = v, fmt.Sprintf(format, args...)
		}
	}
	load := map[topo.LinkID]float64{}
	for i, path := range p.paths {
		if slices.ContainsFunc(path.Links, func(l topo.LinkID) bool { return capOf(p.g, p.caps, l) <= 0 }) {
			if x[i] != 0 {
				note(math.Inf(1), "cut path %d at %v", i, x[i])
			}
			continue
		}
		if !(x[i] > 0) || math.IsInf(x[i], 0) {
			note(math.Inf(1), "path %d at %v", i, x[i])
		}
		var q float64
		for _, lid := range path.Links {
			q += price[lid]
			load[lid] += x[i]
		}
		note(math.Abs(x[i]*q-1), "stationarity of path %d", i)
	}
	for lid, l := range load {
		c, y := capOf(p.g, p.caps, lid), price[lid]
		note((l-c)/c, "feasibility of link %d (load %v, capacity %v)", lid, l, c)
		note(-y*c, "price of link %d is %v", lid, y)
		note(math.Abs(y*(c-l)), "complementary slackness of link %d", lid)
	}
	return x, worst, what
}

// TestPropFairMeetsKKT checks the optimality conditions on the reference
// problems to 1e-12, and that a second solve returns the same bits. It
// reports, without asserting, how far the descent PropFairCaps replaced was
// from each answer.
func TestPropFairMeetsKKT(t *testing.T) {
	var far float64
	var farAt string
	for _, p := range referenceProblems(t) {
		x, worst, what := kkt(p)
		if worst > 1e-12 {
			t.Errorf("%s %s caps %v: x = %v violates %s by %g", p.group, p.name, p.caps, x, what, worst)
		}
		if again := lp.PropFairCaps(p.g, p.paths, p.caps); !slices.Equal(again, x) {
			t.Errorf("%s %s caps %v: %v, then %v", p.group, p.name, p.caps, x, again)
		}
		if testing.Short() {
			continue
		}
		for i, v := range descent(p.g, p.paths, p.caps) {
			if d := math.Abs(v-x[i]) / x[i]; x[i] > 0 && d > far {
				far, farAt = d, fmt.Sprintf("%s %s caps %v: path %d at %.17g, exact %.17g", p.group, p.name, p.caps, i, v, x[i])
			}
		}
	}
	if farAt != "" {
		t.Logf("largest relative deviation of the descent: %.3g (%s)", far, farAt)
	}
}

// TestPropFairClosedForms holds two answers to their closed forms within
// 1e-14 relative. With s-v1 (40 Mbps) and v3-v4 (c Mbps) binding and v2-v3
// not, x1 = 40 - x2, x3 = c - x2 and 1/x2 = 1/x1 + 1/x3, so 3·x2² -
// 2(40+c)·x2 + 40c = 0: x2 = (2(40+c) - √(4(40+c)² - 480c))/6.
func TestPropFairClosedForms(t *testing.T) {
	pn := topo.Paper()
	for _, tc := range []struct {
		name string
		caps lp.Caps
		c    float64
		disc float64 // 4(40+c)² - 480c
	}{
		{"Fig. 1a", nil, 60, 11200},
		{"screen_stream r20.0 static", lp.Caps{pn.Bottlenecks[1]: 20}, 20, 4800},
	} {
		x := lp.PropFairCaps(pn.Graph, pn.Paths, tc.caps)
		x2 := (2*(40+tc.c) - math.Sqrt(tc.disc)) / 6
		for i, want := range []float64{40 - x2, x2, tc.c - x2} {
			if d := math.Abs(x[i]-want) / want; d > 1e-14 {
				t.Errorf("%s: x%d = %.17g, closed form %.17g (%.2g relative)", tc.name, i+1, x[i], want, d)
			}
		}
	}
}

// FuzzPropFair solves random problems of up to 8 paths over up to 16
// links, capacities in [0, 1000] Mbps with one link in eight down, and
// checks the optimality conditions to 1e-9 and that a second solve returns
// the same bits. The first byte sizes the problem; then come two bytes per
// link (its capacity) and two per path (the set of links it crosses).
func FuzzPropFair(f *testing.F) {
	f.Add([]byte{0x22, 1, 0, 2, 0, 3, 0, 3, 0, 6, 0, 5, 0})
	f.Add([]byte{0x7f, 9, 0x10, 0, 0, 0xff, 0xff, 0x01, 0x20, 0x33, 0x44, 0x10, 0x0f, 0xff, 0x00, 0xab, 0xcd, 0x12})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint16 {
			var v uint16
			if len(data) >= 2 {
				v, data = uint16(data[0])|uint16(data[1])<<8, data[2:]
			}
			return v
		}
		if len(data) == 0 {
			return
		}
		n, links := 1+int(data[0]&7), 1+int(data[0]>>4)
		data = data[1:]
		g := topo.New()
		caps := lp.Caps{}
		prev := g.AddNode("n0")
		lids := make([]topo.LinkID, links)
		for i := range lids {
			node := g.AddNode(fmt.Sprintf("n%d", i+1))
			lids[i], _ = g.AddDuplex(prev, node, unit.Mbps, time.Millisecond, 0)
			prev = node
			if v := next(); v%8 != 0 {
				caps[lids[i]] = float64(v) / 65.535
			} else {
				caps[lids[i]] = 0
			}
		}
		paths := make([]topo.Path, n)
		for i := range paths {
			set := next() & (1<<links - 1)
			if set == 0 {
				set = 1 << (i % links)
			}
			for j, lid := range lids {
				if set&(1<<j) != 0 {
					paths[i].Links = append(paths[i].Links, lid)
				}
			}
		}
		p := problem{"fuzz", "", g, paths, caps}
		x, worst, what := kkt(p)
		if worst > 1e-9 {
			t.Fatalf("caps %v, paths %v: x = %v violates %s by %g", caps, paths, x, what, worst)
		}
		if again := lp.PropFairCaps(g, paths, caps); !slices.Equal(again, x) {
			t.Fatalf("%v, then %v", x, again)
		}
	})
}
