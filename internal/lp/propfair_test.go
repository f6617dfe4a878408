package lp_test

// An external test package: the corpus problems come from internal/check,
// which builds on the root package, which imports lp.

import (
	"math"
	"sort"
	"testing"
	"time"

	"mptcpsim/internal/check"
	"mptcpsim/internal/dynamics"
	"mptcpsim/internal/lp"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// refSweeps is the sweep count of the descent PropFairCaps replaced: a
// fixed 200 000, whatever the prices did.
const refSweeps = 200000

// refPropFairCaps is that descent, kept as the reference PropFairCaps is
// compared to bit for bit: the parent commit's loop, dense arrays and all,
// with no stopping rule. fixedAt counts the sweeps up to and including the
// first that left every price where it was (what PropFairCaps runs), -1
// when none did, 0 when every path is cut and nothing descends.
func refPropFairCaps(g *topo.Graph, paths []topo.Path, caps lp.Caps) (x []float64, fixedAt int) {
	capOf := func(lid topo.LinkID) float64 {
		if v, ok := caps[lid]; ok {
			return v
		}
		return g.Link(lid).Rate.Mbit()
	}
	x = make([]float64, len(paths))
	var live []topo.Path
	var liveIdx []int
	for i, p := range paths {
		up := true
		for _, lid := range p.Links {
			up = up && capOf(lid) > 0
		}
		if up {
			live = append(live, p)
			liveIdx = append(liveIdx, i)
		}
	}
	if len(live) == 0 {
		return x, 0
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
	usersv := make([][]int, len(lids))
	for i, lid := range lids {
		idx[lid] = i
		capv[i] = capOf(lid)
		price[i] = 1 / capv[i]
		usersv[i] = users[lid]
	}
	pathLinks := make([][]int, len(live))
	for i, p := range live {
		for _, lid := range p.Links {
			pathLinks[i] = append(pathLinks[i], idx[lid])
		}
	}
	xl := make([]float64, len(live))
	fixedAt = -1
	for it := 0; it < refSweeps; it++ {
		for i, pl := range pathLinks {
			var sum float64
			for _, li := range pl {
				sum += price[li]
			}
			if sum <= 0 {
				sum = 1e-12
			}
			xl[i] = 1 / sum
		}
		step := 1e-4
		moved := false
		for li, us := range usersv {
			var load float64
			for _, pi := range us {
				load += xl[pi]
			}
			was := math.Float64bits(price[li])
			price[li] += step * (load - capv[li]) / capv[li]
			if price[li] < 1e-9 {
				price[li] = 1e-9
			}
			moved = moved || math.Float64bits(price[li]) != was
		}
		if !moved && fixedAt < 0 {
			fixedAt = it + 1
		}
	}
	for i, v := range xl {
		x[liveIdx[i]] = v
	}
	return x, fixedAt
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

// TestPropFairMatchesFixedSweepReference holds the descent that stops at
// its fixed point to the one that never stopped: the same float64s, bit for
// bit, on problems of both kinds — those whose prices settle, and those
// that run the full count.
func TestPropFairMatchesFixedSweepReference(t *testing.T) {
	pn := topo.Paper()
	v3v4, v2v3 := pn.Bottlenecks[1], pn.Bottlenecks[2]
	probs := []problem{
		{"paper", "static", pn.Graph, pn.Paths, nil},
		// A down-link epoch: s-v1 out cuts paths 1 and 2.
		{"paper", "s-v1 down", pn.Graph, pn.Paths, lp.Caps{pn.Bottlenecks[0]: 0}},
	}
	// The benchmark's screen_stream problems: v3-v4 retuned to 20…67.5 Mbps,
	// each before and after v2-v3 renegotiates from 80 to 40.
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
	probs = append(probs, corpusProblems(t, specs)...)

	// Per group: the sweep at which each settling problem settled, and how
	// many never did.
	settledAt, full := map[string][]int{}, map[string]int{}
	for _, p := range probs {
		want, fixedAt := refPropFairCaps(p.g, p.paths, p.caps)
		got := lp.PropFairCaps(p.g, p.paths, p.caps)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s %s caps %v: PropFairCaps = %v, fixed-sweep reference = %v (fixed at sweep %d)",
					p.group, p.name, p.caps, got, want, fixedAt)
			}
		}
		switch {
		case fixedAt < 0:
			full[p.group]++
		case fixedAt > 0: // 0: every path is cut, there was nothing to descend
			settledAt[p.group] = append(settledAt[p.group], fixedAt)
		}
	}
	settled, ranFull := 0, 0
	for _, group := range []string{"paper", "screen", "corpus"} {
		at := settledAt[group]
		sort.Ints(at)
		settled, ranFull = settled+len(at), ranFull+full[group]
		if len(at) == 0 {
			t.Logf("%s: none settle, %d run all %d sweeps", group, full[group], refSweeps)
			continue
		}
		sum := 0
		for _, v := range at {
			sum += v
		}
		t.Logf("%s: %d settle after %d…%d sweeps (median %d, mean %d), %d run all %d",
			group, len(at), at[0], at[len(at)-1], at[len(at)/2], sum/len(at), full[group], refSweeps)
	}
	if settled == 0 || ranFull == 0 {
		t.Fatalf("the problem set must hold both kinds: %d settle, %d run the full count", settled, ranFull)
	}
}
