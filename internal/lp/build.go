package lp

import (
	"fmt"
	"maps"
	"slices"

	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// Caps is a set of per-link capacity overrides in Mbps, keyed by directed
// link ID; 0 means the link is down. Links absent from the map keep their
// graph capacity. A nil Caps is the static topology. Dynamic-event
// timelines produce one Caps per capacity epoch.
type Caps map[topo.LinkID]float64

// of returns the effective capacity of a link in Mbps.
func (c Caps) of(g *topo.Graph, lid topo.LinkID) float64 {
	if c != nil {
		if v, ok := c[lid]; ok {
			return v
		}
	}
	return g.Link(lid).Rate.Mbit()
}

// MaxThroughputCaps builds the paper's optimisation problem for a set of
// paths: maximise the sum of per-path rates subject to, for every link
// crossed by at least one path, the sum of rates over the paths using it not
// exceeding the link capacity. Rates are expressed in Mbps so the numbers
// match the paper's figures. Capacity overrides give the LP of one epoch of
// a dynamic run (nil caps: the static topology); a down link (cap 0) keeps
// its constraint row, so every path crossing it is forced to zero, exactly
// what an outage does.
func MaxThroughputCaps(g *topo.Graph, paths []topo.Path, caps Caps) *Problem {
	n := len(paths)
	p := &Problem{C: make([]float64, n)}
	for i := range p.C {
		p.C[i] = 1
		p.VarNames = append(p.VarNames, fmt.Sprintf("x%d", i+1))
	}
	users := topo.PathsByLink(paths)
	// Deterministic row order: by link ID.
	for _, lid := range slices.Sorted(maps.Keys(users)) {
		row := make([]float64, n)
		for _, pi := range users[lid] {
			row[pi] = 1
		}
		l := g.Link(lid)
		mbps := caps.of(g, lid)
		p.A = append(p.A, row)
		p.B = append(p.B, mbps)
		p.RowNames = append(p.RowNames, fmt.Sprintf("%s-%s cap %s",
			g.Node(l.From).Name, g.Node(l.To).Name, unit.Rate(mbps*float64(unit.Mbps))))
	}
	return p
}

// GreedySequential computes the allocation the paper describes as the
// greedy/Pareto trap: paths claim capacity one at a time in the given
// order, each taking the maximum its residual bottleneck allows. Order is
// a permutation of path indices (the default subflow first).
func GreedySequential(g *topo.Graph, paths []topo.Path, order []int) []float64 {
	resid := make(map[topo.LinkID]float64)
	for _, l := range g.Links() {
		resid[l.ID] = l.Rate.Mbit()
	}
	x := make([]float64, len(paths))
	for _, pi := range order {
		m := 1e18
		for _, lid := range paths[pi].Links {
			m = min(m, resid[lid])
		}
		x[pi] = max(m, 0)
		for _, lid := range paths[pi].Links {
			resid[lid] -= x[pi]
		}
	}
	return x
}

// MaxMinCaps computes the max-min fair allocation over the paths under
// capacity overrides (nil: the static topology) by progressive filling: all
// unfrozen path rates rise together until some link saturates; paths
// crossing saturated links freeze; repeat. Paths crossing a down link freeze
// at zero in the first round.
func MaxMinCaps(g *topo.Graph, paths []topo.Path, caps Caps) []float64 {
	x := make([]float64, len(paths))
	frozen := make([]bool, len(paths))
	users := topo.PathsByLink(paths)
	resid := make(map[topo.LinkID]float64)
	for lid := range users {
		resid[lid] = caps.of(g, lid)
	}
	// active counts a link's unfrozen users.
	active := func(us []int) (k int) {
		for _, pi := range us {
			if !frozen[pi] {
				k++
			}
		}
		return k
	}
	for slices.Contains(frozen, false) {
		// Smallest equal increment any link allows.
		inc := 1e18
		for lid, us := range users {
			if k := active(us); k > 0 && resid[lid]/float64(k) < inc {
				inc = resid[lid] / float64(k)
			}
		}
		if inc >= 1e18 || inc < 0 {
			break
		}
		// Apply the increment and freeze users of saturated links.
		for lid, us := range users {
			resid[lid] -= float64(inc * float64(active(us)))
		}
		for i := range x {
			if !frozen[i] {
				x[i] += inc
			}
		}
		for lid, us := range users {
			if resid[lid] <= 1e-9 {
				for _, pi := range us {
					frozen[pi] = true
				}
			}
		}
	}
	return x
}
