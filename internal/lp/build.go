package lp

import (
	"fmt"
	"maps"
	"math"
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

// PropFairCaps computes the proportionally fair allocation under capacity
// overrides (nil: the static topology): the rates maximising the sum of
// their logs within every link's capacity. It is the equilibrium of the
// fluid model of coupled flows (arXiv 1306.4090); whether the simulated
// controllers land near it is an open question nothing here checks. Paths
// crossing a down link get zero and their links are left out: log(0) is
// outside the model, so an outage removes the path from the market.
//
// The answer is exact to rounding. With a price y_l >= 0 per link and the
// rate 1/(sum of its prices) per path, the optimum loads every priced link
// to exactly its capacity and no link beyond it. A damped-Newton
// interior-point path on the prices shows which links bind; Newton's method
// on those alone then converges to the last bits. That answer stands only
// if no binding price is negative and no link is over capacity; otherwise
// the path goes on and the binding set is chosen again.
func PropFairCaps(g *topo.Graph, paths []topo.Path, caps Caps) []float64 {
	x, _, _ := propFair(g, paths, caps)
	return x
}

// propFair is PropFairCaps with its certificate: the price of every link a
// live path crosses, in the order of lids.
func propFair(g *topo.Graph, paths []topo.Path, caps Caps) (x, y []float64, lids []topo.LinkID) {
	x = make([]float64, len(paths))
	pl := make([][]int, len(paths)) // each live path's links, as indices into lids
	var c []float64
	idx := make(map[topo.LinkID]int)
	for p, path := range paths {
		if slices.ContainsFunc(path.Links, func(l topo.LinkID) bool { return caps.of(g, l) <= 0 }) {
			continue
		}
		for _, lid := range path.Links {
			if _, ok := idx[lid]; !ok {
				idx[lid], lids, c = len(lids), append(lids, lid), append(c, caps.of(g, lid))
			}
			pl[p] = append(pl[p], idx[lid])
		}
	}
	m := len(lids)
	y, yb, load := make([]float64, m), make([]float64, m), make([]float64, m)
	h, r, d, bind := make([]float64, m*m), make([]float64, m), make([]float64, m), make([]bool, m)
	// rates sets x and the link loads from the prices y (a cut path keeps
	// 0), and reports whether every live path's rate is positive.
	rates := func(y []float64) (ok bool) {
		clear(load)
		ok = true
		for p, ls := range pl {
			var q float64
			for _, l := range ls {
				q += y[l]
			}
			for _, l := range ls {
				x[p] = 1 / q
				load[l] += x[p]
			}
			ok = ok && (len(ls) == 0 || x[p] > 0)
		}
		return ok
	}
	// newton sets d to the Newton step of the prices y on the links in on
	// (nil: all), toward load = capacity + mu/y (mu = 0: exactly capacity),
	// and returns d·r, mu times the squared Newton decrement.
	newton := func(y []float64, mu float64, on []bool) float64 {
		rates(y)
		clear(h)
		for p, ls := range pl {
			w := float64(x[p] * x[p])
			for _, l := range ls {
				for _, k := range ls {
					h[l*m+k] += w
				}
			}
		}
		for l := range r {
			r[l] = load[l] - c[l]
			if mu > 0 {
				iy := 1 / y[l]
				h[l*m+l] += float64(float64(mu*iy) * iy)
				r[l] += float64(mu * iy)
			}
		}
		return ldlSolve(h, r, d, on)
	}
	for l := range y {
		y[l] = 1 / c[l]
	}
	for mu := 1.0; mu > 1e-20; mu /= 10 {
		// Centre: damped Newton, which never leaves the domain, then full
		// steps once the decrement is below 1/2.
		for it, lam2 := 0, 1.0; it < 100 && lam2 > 0.25; it++ {
			lam2 = newton(y, mu, nil) / mu
			a := 1.0
			if lam2 > 0.25 {
				a = 1 / (1 + math.Sqrt(lam2))
			}
			for l := range y {
				y[l] += float64(a * d[l])
			}
		}
		if mu > 0.1 {
			continue
		}
		// A link binds where its price outweighs its slack, both relative
		// to its capacity; the others are priced at zero.
		rates(y)
		for l := range yb {
			yb[l] = 0
			if bind[l] = float64(y[l]*c[l]) > (c[l]-load[l])/c[l]; bind[l] {
				yb[l] = y[l]
			}
		}
		for it, moved := 0, true; moved && it < 20; it++ {
			newton(yb, 0, bind)
			moved = false
			for l := range yb {
				moved = moved || yb[l]+d[l] != yb[l]
				yb[l] += d[l]
			}
		}
		ok := rates(yb)
		for l := range yb {
			ok = ok && load[l] <= float64(c[l]*(1+1e-12)) &&
				(!bind[l] || float64(yb[l]*c[l]) >= -1e-12 && load[l] >= float64(c[l]*(1-1e-12)))
		}
		if ok {
			return x, yb, lids
		}
	}
	rates(y)
	return x, y, lids
}

// ldlSolve sets d to the solution of h d = r on the rows in on (nil: all)
// and to 0 on the others, and returns d·r. h is m×m, row-major, symmetric
// positive semidefinite; its L D Lᵀ factors overwrite its lower triangle. A
// row whose pivot vanishes against its diagonal, a constraint the rows
// before it imply (a second link crossed by the same paths), is left out.
func ldlSolve(h, r, d []float64, on []bool) (dr float64) {
	m := len(r)
	for j := 0; j < m; j++ {
		// Row j of L and D, and L z = r forward; d holds z.
		dj, zj := h[j*m+j], r[j]
		for k := 0; k < j; k++ {
			dj -= float64(float64(h[j*m+k]*h[j*m+k]) * h[k*m+k])
			zj -= float64(h[j*m+k] * d[k])
		}
		inv := 1 / dj
		if on != nil && !on[j] || !(dj > float64(1e-13*h[j*m+j])) {
			dj, zj, inv = 1, 0, 0
		}
		h[j*m+j], d[j] = dj, zj
		dr += float64(zj*zj) / dj
		for i := j + 1; i < m; i++ {
			v := h[j*m+i]
			for k := 0; k < j; k++ {
				v -= float64(float64(h[i*m+k]*h[j*m+k]) * h[k*m+k])
			}
			h[i*m+j] = float64(v * inv)
		}
	}
	for j := m - 1; j >= 0; j-- {
		d[j] /= h[j*m+j]
		for i := j + 1; i < m; i++ {
			d[j] -= float64(h[i*m+j] * d[i])
		}
	}
	return dr
}
