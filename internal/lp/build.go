package lp

import (
	"fmt"
	"sort"

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
	lids := make([]topo.LinkID, 0, len(users))
	for lid := range users {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(a, b int) bool { return lids[a] < lids[b] })
	for _, lid := range lids {
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
			if resid[lid] < m {
				m = resid[lid]
			}
		}
		if m < 0 {
			m = 0
		}
		x[pi] = m
		for _, lid := range paths[pi].Links {
			resid[lid] -= m
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
	n := len(paths)
	x := make([]float64, n)
	frozen := make([]bool, n)
	users := topo.PathsByLink(paths)
	resid := make(map[topo.LinkID]float64)
	for lid := range users {
		resid[lid] = caps.of(g, lid)
	}
	for {
		// Count active users per link.
		active := 0
		for i := 0; i < n; i++ {
			if !frozen[i] {
				active++
			}
		}
		if active == 0 {
			return x
		}
		// Smallest equal increment any link allows.
		inc := 1e18
		for lid, us := range users {
			k := 0
			for _, pi := range us {
				if !frozen[pi] {
					k++
				}
			}
			if k == 0 {
				continue
			}
			if v := resid[lid] / float64(k); v < inc {
				inc = v
			}
		}
		if inc >= 1e18 || inc < 0 {
			return x
		}
		// Apply the increment and freeze users of saturated links.
		for lid, us := range users {
			k := 0
			for _, pi := range us {
				if !frozen[pi] {
					k++
				}
			}
			resid[lid] -= float64(inc * float64(k))
		}
		for i := 0; i < n; i++ {
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
}

// propFairSweeps bounds the descent of a problem whose prices end in a
// cycle a few ulps wide; the others stop at their fixed point long before.
const propFairSweeps = 200000

// PropFairCaps computes the proportionally fair allocation (maximiser of
// the sum of log rates) under capacity overrides (nil: the static topology)
// by dual gradient descent on the link prices. It is the equilibrium an
// idealised fluid model of coupled AIMD flows with equal RTTs approaches, a
// useful reference for where LIA-style coupling lands. Paths crossing a down
// link are pinned at zero and their links excluded from the price dynamics —
// log(0) utility is outside the model, so an outage simply removes the path
// from the market.
func PropFairCaps(g *topo.Graph, paths []topo.Path, caps Caps) []float64 {
	n := len(paths)
	x := make([]float64, n)
	blocked := make([]bool, n)
	for i, p := range paths {
		for _, lid := range p.Links {
			if caps.of(g, lid) <= 0 {
				blocked[i] = true
				break
			}
		}
	}
	live := paths[:0:0]
	liveIdx := make([]int, 0, n)
	for i, p := range paths {
		if !blocked[i] {
			live = append(live, p)
			liveIdx = append(liveIdx, i)
		}
	}
	if len(live) == 0 {
		return x
	}
	// Densify the link state into compact arrays before iterating: the
	// descent runs tens of thousands of sweeps, and map access in the
	// inner loops dominates the solve. The numbers are bit-identical to
	// the map-based version — per-path price sums keep the path's link
	// order, per-link load sums keep PathsByLink's user order, and the
	// dual updates are independent across links, so their visit order
	// (the only thing that changes) never touches the arithmetic.
	users := topo.PathsByLink(live)
	lids := make([]topo.LinkID, 0, len(users))
	for lid := range users {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(a, b int) bool { return lids[a] < lids[b] })
	idx := make(map[topo.LinkID]int, len(lids))
	for i, lid := range lids {
		idx[lid] = i
	}
	price := make([]float64, len(lids))
	capv := make([]float64, len(lids))
	usersv := make([][]int, len(lids))
	for i, lid := range lids {
		capv[i] = caps.of(g, lid)
		price[i] = 1 / capv[i]
		usersv[i] = users[lid]
	}
	pathLinks := make([][]int, len(live))
	for i, p := range live {
		pl := make([]int, len(p.Links))
		for j, lid := range p.Links {
			pl[j] = idx[lid]
		}
		pathLinks[i] = pl
	}
	xl := make([]float64, len(live))
	// A sweep is a function of the prices alone, so one that leaves every
	// price bit for bit where it was is the fixed point: each further sweep
	// would recompute the same xl and the same prices.
	for it, moved := 0, true; moved && it < propFairSweeps; it++ {
		moved = false
		// Primal: x_i = 1 / (sum of prices along the path).
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
		// Dual: price goes up where demand exceeds capacity.
		step := 1e-4
		for li, us := range usersv {
			var load float64
			for _, pi := range us {
				load += xl[pi]
			}
			was := price[li]
			price[li] += step * (load - capv[li]) / capv[li]
			if price[li] < 1e-9 {
				price[li] = 1e-9
			}
			// Positive prices, and a NaN never equals itself: != compares bits.
			moved = moved || price[li] != was
		}
	}
	for i, v := range xl {
		x[liveIdx[i]] = v
	}
	return x
}
