// Package lp solves the small linear programs that define the paper's
// optimal-throughput baseline: maximise total rate over the path variables
// subject to one capacity constraint per shared link (Fig. 1c).
//
// The solver is a dense two-phase primal simplex with Bland's rule, which
// is exact (up to floating point) and immune to cycling — appropriate for
// problems with a handful of paths and links. The package also provides
// the max-min fair allocation (progressive water-filling) and the
// proportionally fair allocation (Newton's method on the link prices), the
// two classic notions of what "TCP-like" fairness achieves, used to
// interpret where the congestion-control algorithms land relative to the
// LP optimum.
package lp

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// Optimal: an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible: the constraints admit no solution.
	Infeasible
	// Unbounded: the objective can grow without limit.
	Unbounded
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Problem is the LP: maximise C·x subject to A x <= B, x >= 0.
type Problem struct {
	// C is the objective vector (length n).
	C []float64
	// A is the constraint matrix (m rows of length n).
	A [][]float64
	// B is the right-hand side (length m). Entries may be negative; the
	// solver runs a phase-1 when needed.
	B []float64
	// VarNames and RowNames label variables and constraints for printing;
	// optional.
	VarNames, RowNames []string
}

// Solution is the result of solving a Problem.
type Solution struct {
	Status Status
	// X is the optimal point (length n), valid when Status == Optimal.
	X []float64
	// Objective is C·X.
	Objective float64
}

// Validate checks dimensional consistency.
func (p *Problem) Validate() error {
	n := len(p.C)
	if len(p.A) != len(p.B) {
		return fmt.Errorf("lp: %d rows in A but %d in B", len(p.A), len(p.B))
	}
	for i, row := range p.A {
		if len(row) != n {
			return fmt.Errorf("lp: row %d has %d columns, want %d", i, len(row), n)
		}
	}
	return nil
}

// String renders the problem in the paper's inequality style.
func (p *Problem) String() string {
	var sb strings.Builder
	name := func(j int) string {
		if j < len(p.VarNames) && p.VarNames[j] != "" {
			return p.VarNames[j]
		}
		return fmt.Sprintf("x%d", j+1)
	}
	sb.WriteString("max ")
	sb.WriteString(lincomb(p.C, name))
	sb.WriteString("\n")
	for i, row := range p.A {
		sb.WriteString("  ")
		sb.WriteString(lincomb(row, name))
		fmt.Fprintf(&sb, " <= %g", p.B[i])
		if i < len(p.RowNames) && p.RowNames[i] != "" {
			fmt.Fprintf(&sb, "   (%s)", p.RowNames[i])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

func lincomb(coef []float64, name func(int) string) string {
	var parts []string
	for j, c := range coef {
		switch {
		case c == 0:
			continue
		case c == 1:
			parts = append(parts, name(j))
		default:
			parts = append(parts, fmt.Sprintf("%g*%s", c, name(j)))
		}
	}
	if len(parts) == 0 {
		return "0"
	}
	return strings.Join(parts, " + ")
}

const eps = 1e-9

// Solve runs the two-phase simplex method and returns the solution.
func (p *Problem) Solve() (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	n := len(p.C)
	if n == 0 {
		return Solution{Status: Optimal, X: nil, Objective: 0}, nil
	}
	// Tableau columns: n structural + m slack (+ m artificial in phase 1).
	// Rows: m constraints + 1 objective row (stored separately).
	t := newTableau(p)
	if t.needsPhase1 && !t.phase1() {
		return Solution{Status: Infeasible}, nil
	}
	if t.phase2() == Unbounded {
		return Solution{Status: Unbounded}, nil
	}
	x := make([]float64, n)
	for i, bv := range t.basis {
		if bv < n {
			x[bv] = t.rhs[i]
		}
	}
	var obj float64
	for j := range x {
		if x[j] < 0 && x[j] > -eps {
			x[j] = 0
		}
		obj += float64(p.C[j] * x[j])
	}
	return Solution{Status: Optimal, X: x, Objective: obj}, nil
}

// tableau is the dense simplex working state.
type tableau struct {
	n, m        int // structural vars, constraints
	cols        int // total columns (structural + slack + artificial)
	a           [][]float64
	rhs         []float64
	basis       []int
	obj         []float64 // the objective C, maximised in phase 2
	needsPhase1 bool
	nArt        int
}

func newTableau(p *Problem) *tableau {
	n, m := len(p.C), len(p.B)
	t := &tableau{n: n, m: m, obj: p.C}
	t.needsPhase1 = slices.ContainsFunc(p.B, func(b float64) bool { return b < -eps })
	if t.needsPhase1 {
		t.nArt = m
	}
	t.cols = n + m + t.nArt
	t.a = make([][]float64, m)
	t.rhs = make([]float64, m)
	t.basis = make([]int, m)
	for i := 0; i < m; i++ {
		row := make([]float64, t.cols)
		copy(row, p.A[i])
		rhs := p.B[i]
		sign := 1.0
		if rhs < -eps {
			// Multiply the row by -1 so the RHS is nonnegative; the slack
			// then enters with -1 and an artificial variable is basic.
			sign = -1
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
			rhs = -rhs
		}
		row[n+i] = sign // slack
		if t.needsPhase1 {
			row[n+m+i] = 1 // artificial
		}
		t.a[i] = row
		t.rhs[i] = rhs
		t.basis[i] = n + i
		if sign < 0 {
			t.basis[i] = n + m + i
		}
	}
	return t
}

// reducedCosts computes z_j - c_j style reduced costs for objective c over
// the current basis, returning the row of net gains for entering each
// nonbasic column.
func (t *tableau) reducedCosts(c []float64) []float64 {
	// y = c_B applied through the basis rows; since rows are kept in
	// canonical form (basic columns are unit vectors), the reduced cost of
	// column j is c_j - sum_i c_basis[i] * a[i][j].
	rc := make([]float64, t.cols)
	for j := 0; j < t.cols; j++ {
		v := c[j]
		for i := 0; i < t.m; i++ {
			cb := c[t.basis[i]]
			if cb != 0 {
				v -= float64(cb * t.a[i][j])
			}
		}
		rc[j] = v
	}
	return rc
}

// pivot performs a standard pivot on (row, col), keeping rows canonical.
func (t *tableau) pivot(row, col int) {
	pr := t.a[row]
	pv := pr[col]
	inv := 1 / pv
	for j := range pr {
		pr[j] *= inv
	}
	t.rhs[row] *= inv
	for i := 0; i < t.m; i++ {
		if i == row {
			continue
		}
		f := t.a[i][col]
		if f == 0 {
			continue
		}
		ri := t.a[i]
		for j := range ri {
			ri[j] -= float64(f * pr[j])
		}
		t.rhs[i] -= float64(f * t.rhs[row])
	}
	t.basis[row] = col
}

// iterate runs simplex iterations maximising objective c over allowed
// columns; returns Optimal or Unbounded.
func (t *tableau) iterate(c []float64, allowed int) Status {
	for iter := 0; iter < 10000; iter++ {
		rc := t.reducedCosts(c)
		// Bland's rule: smallest-index entering column with positive
		// reduced cost.
		col := -1
		for j := 0; j < allowed; j++ {
			if rc[j] > eps {
				col = j
				break
			}
		}
		if col < 0 {
			return Optimal
		}
		// Ratio test, Bland tie-break on smallest basis index.
		row := -1
		best := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][col] > eps {
				r := t.rhs[i] / t.a[i][col]
				if r < best-eps || (r < best+eps && (row < 0 || t.basis[i] < t.basis[row])) {
					best = r
					row = i
				}
			}
		}
		if row < 0 {
			return Unbounded
		}
		t.pivot(row, col)
	}
	return Optimal // practically unreachable with Bland's rule
}

// phase1 drives artificial variables to zero; reports feasibility.
func (t *tableau) phase1() bool {
	// Minimise sum of artificials == maximise -sum.
	c := make([]float64, t.cols)
	for j := t.n + t.m; j < t.cols; j++ {
		c[j] = -1
	}
	t.iterate(c, t.cols)
	// Feasible iff the artificial objective reached ~0.
	var sum float64
	for i, bv := range t.basis {
		if bv >= t.n+t.m {
			sum += t.rhs[i]
		}
	}
	if sum > 1e-7 {
		return false
	}
	// Pivot any artificial still in the basis (degenerate, value 0) out.
	for i, bv := range t.basis {
		if bv < t.n+t.m {
			continue
		}
		for j := 0; j < t.n+t.m; j++ {
			if math.Abs(t.a[i][j]) > eps {
				t.pivot(i, j)
				break
			}
		}
	}
	return true
}

// phase2 maximises the real objective over structural and slack columns.
func (t *tableau) phase2() Status {
	c := make([]float64, t.cols)
	copy(c, t.obj)
	return t.iterate(c, t.n+t.m)
}
