package lp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// feasible reports whether x satisfies the problem's constraints within
// tolerance tol.
func feasible(p *Problem, x []float64, tol float64) bool {
	if len(x) != len(p.C) {
		return false
	}
	for _, v := range x {
		if v < -tol {
			return false
		}
	}
	for i, row := range p.A {
		var lhs float64
		for j, a := range row {
			lhs += a * x[j]
		}
		if lhs > p.B[i]+tol {
			return false
		}
	}
	return true
}

// total sums an allocation.
func total(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

func TestPaperLP(t *testing.T) {
	// The paper's Fig. 1c problem, stated directly.
	p := &Problem{
		C: []float64{1, 1, 1},
		A: [][]float64{
			{1, 1, 0}, // x1+x2 <= 40
			{0, 1, 1}, // x2+x3 <= 60
			{1, 0, 1}, // x1+x3 <= 80
		},
		B: []float64{40, 60, 80},
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Objective, 90, 1e-6) {
		t.Fatalf("objective = %v, want 90", s.Objective)
	}
	// The unique optimum of the stated constraints is (30, 10, 50); the
	// paper text lists the same values with indices 1 and 2 swapped (typo).
	want := []float64{30, 10, 50}
	for i := range want {
		if !approx(s.X[i], want[i], 1e-6) {
			t.Fatalf("X = %v, want %v", s.X, want)
		}
	}
}

func TestPaperLPFromTopology(t *testing.T) {
	pn := topo.Paper()
	p := MaxThroughputCaps(pn.Graph, pn.Paths, nil)
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 90, 1e-6) {
		t.Fatalf("topology LP: %v obj=%v, want optimal 90", s.Status, s.Objective)
	}
	want := []float64{30, 10, 50}
	for i := range want {
		if !approx(s.X[i], want[i], 1e-6) {
			t.Fatalf("X = %v, want %v", s.X, want)
		}
	}
	// All three paper bottlenecks must be binding at the optimum.
	binding := 0
	for i, row := range p.A {
		var lhs float64
		for j, a := range row {
			lhs += a * s.X[j]
		}
		if b := p.B[i]; b == 40 || b == 60 || b == 80 {
			if !approx(lhs, b, 1e-6) {
				t.Fatalf("%s not binding: %v", p.RowNames[i], lhs)
			}
			binding++
		}
	}
	if binding != 3 {
		t.Fatalf("%d rows with a paper bottleneck's capacity, want 3", binding)
	}
	if !feasible(p, s.X, 1e-9) {
		t.Fatal("optimal point reported infeasible")
	}
}

func TestSimpleKnownLPs(t *testing.T) {
	// max x+y st x<=2, y<=3 -> 5 at (2,3).
	p := &Problem{C: []float64{1, 1}, A: [][]float64{{1, 0}, {0, 1}}, B: []float64{2, 3}}
	s, err := p.Solve()
	if err != nil || s.Status != Optimal || !approx(s.Objective, 5, 1e-9) {
		t.Fatalf("box LP: %+v err=%v", s, err)
	}
	// max 3x+2y st x+y<=4, x+3y<=6 -> x=4,y=0 obj 12? Check: x+y<=4 binds at
	// (4,0): 3*4=12. Alternative vertex (3,1): 9+2=11. So 12.
	p = &Problem{C: []float64{3, 2}, A: [][]float64{{1, 1}, {1, 3}}, B: []float64{4, 6}}
	s, _ = p.Solve()
	if !approx(s.Objective, 12, 1e-9) {
		t.Fatalf("obj = %v, want 12", s.Objective)
	}
	// Degenerate: redundant constraint.
	p = &Problem{C: []float64{1}, A: [][]float64{{1}, {1}, {2}}, B: []float64{5, 5, 10}}
	s, _ = p.Solve()
	if !approx(s.Objective, 5, 1e-9) {
		t.Fatalf("degenerate obj = %v, want 5", s.Objective)
	}
}

func TestUnbounded(t *testing.T) {
	// max x with only y constrained.
	p := &Problem{C: []float64{1, 0}, A: [][]float64{{0, 1}}, B: []float64{1}}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

func TestInfeasible(t *testing.T) {
	// x <= -1 with x >= 0 is infeasible.
	p := &Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{-1}}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestNegativeRHSFeasible(t *testing.T) {
	// -x <= -2 means x >= 2; max -x+3 ... use max -x st -x <= -2, x <= 5:
	// optimum x=2, obj=-2.
	p := &Problem{C: []float64{-1}, A: [][]float64{{-1}, {1}}, B: []float64{-2, 5}}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, -2, 1e-9) {
		t.Fatalf("got %+v, want optimal -2", s)
	}
}

func TestZeroVariables(t *testing.T) {
	p := &Problem{}
	s, err := p.Solve()
	if err != nil || s.Status != Optimal || s.Objective != 0 {
		t.Fatalf("empty LP: %+v err=%v", s, err)
	}
}

func TestValidate(t *testing.T) {
	p := &Problem{C: []float64{1}, A: [][]float64{{1, 2}}, B: []float64{1}}
	if _, err := p.Solve(); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	p = &Problem{C: []float64{1}, A: [][]float64{{1}}, B: []float64{1, 2}}
	if _, err := p.Solve(); err == nil {
		t.Fatal("row mismatch accepted")
	}
}

func TestProblemString(t *testing.T) {
	pn := topo.Paper()
	p := MaxThroughputCaps(pn.Graph, pn.Paths, nil)
	s := p.String()
	if s == "" || !contains(s, "max x1 + x2 + x3") || !contains(s, "<= 40") {
		t.Fatalf("String output unexpected:\n%s", s)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestGreedySequentialPaperTrap(t *testing.T) {
	pn := topo.Paper()
	// Default path (Path 2, index 1) first: the paper's greedy trap.
	x := GreedySequential(pn.Graph, pn.Paths, []int{1, 2, 0})
	// x2 = 40 (fills s-v1), x3 = min(60-40, 80) = 20, x1 = 0.
	want := []float64{0, 40, 20}
	for i := range want {
		if !approx(x[i], want[i], 1e-9) {
			t.Fatalf("greedy = %v, want %v", x, want)
		}
	}
	if !approx(total(x), 60, 1e-9) {
		t.Fatalf("greedy total = %v, want 60", total(x))
	}
}

func TestMaxMinPaperNet(t *testing.T) {
	pn := topo.Paper()
	x := MaxMinCaps(pn.Graph, pn.Paths, nil)
	// Progressive filling: all rise to 20 (s-v1 saturates, freezing x1,x2);
	// x3 continues to 40 (v3-v4 saturates at x2+x3=60).
	want := []float64{20, 20, 40}
	for i := range want {
		if !approx(x[i], want[i], 1e-6) {
			t.Fatalf("maxmin = %v, want %v", x, want)
		}
	}
	// Max-min must be feasible and below the LP optimum.
	p := MaxThroughputCaps(pn.Graph, pn.Paths, nil)
	if !feasible(p, x, 1e-6) {
		t.Fatal("maxmin infeasible")
	}
	if total(x) > 90+1e-6 {
		t.Fatal("maxmin exceeds LP optimum")
	}
}

// Property: on random feasible problems the simplex solution is feasible
// and no random feasible point beats it.
func TestQuickSimplexOptimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(3)
		m := 1 + rng.Intn(4)
		p := &Problem{C: make([]float64, n)}
		for j := range p.C {
			p.C[j] = rng.Float64() * 5
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := range row {
				row[j] = rng.Float64() * 3
			}
			p.A = append(p.A, row)
			p.B = append(p.B, 1+rng.Float64()*10)
		}
		// Add a box so the problem is always bounded.
		for j := 0; j < n; j++ {
			row := make([]float64, n)
			row[j] = 1
			p.A = append(p.A, row)
			p.B = append(p.B, 20)
		}
		s, err := p.Solve()
		if err != nil || s.Status != Optimal {
			return false
		}
		if !feasible(p, s.X, 1e-6) {
			return false
		}
		// Sample random feasible points; none may beat the optimum.
		for k := 0; k < 200; k++ {
			x := make([]float64, n)
			for j := range x {
				x[j] = rng.Float64() * 20
			}
			if feasible(p, x, 0) {
				var obj float64
				for j := range x {
					obj += p.C[j] * x[j]
				}
				if obj > s.Objective+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling all capacities scales the paper LP solution linearly.
func TestQuickLPScaling(t *testing.T) {
	base := func(scale float64) float64 {
		p := &Problem{
			C: []float64{1, 1, 1},
			A: [][]float64{{1, 1, 0}, {0, 1, 1}, {1, 0, 1}},
			B: []float64{40 * scale, 60 * scale, 80 * scale},
		}
		s, _ := p.Solve()
		return s.Objective
	}
	f := func(raw uint8) bool {
		scale := 0.5 + float64(raw)/64
		return approx(base(scale), 90*scale, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPhase1WithMixedSigns(t *testing.T) {
	// max x+y st x+y <= 10, -x <= -3 (x >= 3), -y <= -2 (y >= 2).
	p := &Problem{
		C: []float64{1, 1},
		A: [][]float64{{1, 1}, {-1, 0}, {0, -1}},
		B: []float64{10, -3, -2},
	}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || !approx(s.Objective, 10, 1e-6) {
		t.Fatalf("got %+v, want optimal 10", s)
	}
	if s.X[0] < 3-1e-9 || s.X[1] < 2-1e-9 {
		t.Fatalf("lower bounds violated: %v", s.X)
	}
}

func TestPhase1Infeasible(t *testing.T) {
	// x >= 5 and x <= 3.
	p := &Problem{C: []float64{1}, A: [][]float64{{-1}, {1}}, B: []float64{-5, 3}}
	s, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestDisjointPathsLP(t *testing.T) {
	// Two disjoint paths: the LP decouples into per-path bottlenecks.
	g := topo.New()
	a, w, l, b := g.AddNode("a"), g.AddNode("w"), g.AddNode("l"), g.AddNode("b")
	aw, _ := g.AddDuplex(a, w, 30*unit.Mbps, 1e6, 0)
	wb, _ := g.AddDuplex(w, b, 100*unit.Mbps, 1e6, 0)
	al, _ := g.AddDuplex(a, l, 20*unit.Mbps, 1e6, 0)
	lb, _ := g.AddDuplex(l, b, 100*unit.Mbps, 1e6, 0)
	paths := []topo.Path{
		{Nodes: []topo.NodeID{a, w, b}, Links: []topo.LinkID{aw, wb}},
		{Nodes: []topo.NodeID{a, l, b}, Links: []topo.LinkID{al, lb}},
	}
	s, err := MaxThroughputCaps(g, paths, nil).Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 50, 1e-6) || !approx(s.X[0], 30, 1e-6) || !approx(s.X[1], 20, 1e-6) {
		t.Fatalf("disjoint LP = %+v, want 50 at (30, 20)", s)
	}
}
