package stats

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"mptcpsim/internal/trace"
)

func mk(step time.Duration, v ...float64) *trace.Series {
	return &trace.Series{Name: "s", Step: step, Mbps: v}
}

func TestConvergenceTime(t *testing.T) {
	// Ramp: 50, 70, 86, 88, 89, 90, 88, 89 with target 90 tol 5% (>=85.5).
	s := mk(time.Second, 50, 70, 86, 88, 89, 90, 88, 89)
	at, ok := ConvergenceTime(s, 90, 0.05, 3*time.Second)
	if !ok {
		t.Fatal("should converge")
	}
	if at != 2*time.Second {
		t.Fatalf("converged at %v, want 2s", at)
	}
}

func TestConvergenceRequiresHold(t *testing.T) {
	// Spikes above the band but never holds 3 bins.
	s := mk(time.Second, 90, 10, 90, 10, 90, 10)
	if _, ok := ConvergenceTime(s, 90, 0.05, 3*time.Second); ok {
		t.Fatal("flapping series reported converged")
	}
	// Hold of 1 bin accepts the first spike.
	at, ok := ConvergenceTime(s, 90, 0.05, time.Second)
	if !ok || at != 0 {
		t.Fatalf("1-bin hold: %v %v", at, ok)
	}
}

func TestConvergenceNever(t *testing.T) {
	s := mk(time.Second, 50, 60, 70)
	if _, ok := ConvergenceTime(s, 90, 0.05, time.Second); ok {
		t.Fatal("sub-band series converged")
	}
	if _, ok := ConvergenceTime(&trace.Series{}, 90, 0.05, time.Second); ok {
		t.Fatal("empty series converged")
	}
}

func TestOptimalityGap(t *testing.T) {
	s := mk(time.Second, 45, 45, 45, 45)
	if g := OptimalityGap(s, 90, 0, 4*time.Second); math.Abs(g-0.5) > 1e-9 {
		t.Fatalf("gap = %v, want 0.5", g)
	}
	if g := OptimalityGap(s, 0, 0, time.Second); g != 0 {
		t.Fatal("zero target must give 0")
	}
}

func TestCoV(t *testing.T) {
	flat := mk(time.Second, 10, 10, 10, 10)
	if c := CoV(flat, 0, 4*time.Second); c != 0 {
		t.Fatalf("flat CoV = %v", c)
	}
	noisy := mk(time.Second, 5, 15, 5, 15)
	if c := CoV(noisy, 0, 4*time.Second); c <= 0.4 {
		t.Fatalf("noisy CoV = %v, want > 0.4", c)
	}
}

func TestSummarize(t *testing.T) {
	total := mk(100 * time.Millisecond)
	for i := 0; i < 40; i++ {
		v := 90.0
		if i < 10 {
			v = float64(i) * 9
		}
		total.Mbps = append(total.Mbps, v)
	}
	p1 := mk(100 * time.Millisecond)
	p2 := mk(100 * time.Millisecond)
	for i := 0; i < 40; i++ {
		p1.Mbps = append(p1.Mbps, 30)
		p2.Mbps = append(p2.Mbps, 60)
	}
	s := Summarize("cubic", total, []*trace.Series{p1, p2}, 90, 60, 0.05, 500*time.Millisecond)
	if s.Algorithm != "cubic" {
		t.Fatal("name lost")
	}
	if !s.Converged {
		t.Fatal("should converge")
	}
	if s.ConvergedAt != time.Second {
		t.Fatalf("converged at %v, want 1s", s.ConvergedAt)
	}
	if s.PostCoV != 0 {
		t.Fatalf("post CoV = %v, want 0 (flat tail)", s.PostCoV)
	}
	if len(s.PathMeans) != 2 || s.PathMeans[0] != 30 || s.PathMeans[1] != 60 {
		t.Fatalf("path means = %v", s.PathMeans)
	}
	if s.Gap < 0 || s.Gap > 0.15 {
		t.Fatalf("gap = %v", s.Gap)
	}
	// The greedy/Pareto level (60) is crossed during the ramp, before the
	// optimum band.
	if !s.ReachedPareto {
		t.Fatal("Pareto level not detected")
	}
	if s.ParetoAt > s.ConvergedAt {
		t.Fatalf("ParetoAt %v after ConvergedAt %v", s.ParetoAt, s.ConvergedAt)
	}
}

// Property: convergence time is monotone in the tolerance — a looser band
// never converges later.
func TestQuickConvergenceMonotoneInTol(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		s := mk(time.Second)
		for _, r := range raw {
			s.Mbps = append(s.Mbps, float64(r))
		}
		tight, okT := ConvergenceTime(s, 200, 0.1, 2*time.Second)
		loose, okL := ConvergenceTime(s, 200, 0.5, 2*time.Second)
		if okT && !okL {
			return false
		}
		if okT && okL && loose > tight {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAggregate(t *testing.T) {
	a := Aggregate([]float64{4, 1, 3, 2})
	if a.N != 4 || a.Mean != 2.5 || a.Min != 1 || a.Max != 4 || a.Median != 2.5 {
		t.Fatalf("Aggregate = %+v", a)
	}
	if math.Abs(a.Std-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("std = %v", a.Std)
	}

	odd := Aggregate([]float64{9, 1, 5})
	if odd.Median != 5 {
		t.Fatalf("odd median = %v", odd.Median)
	}

	one := Aggregate([]float64{7})
	if one.N != 1 || one.Mean != 7 || one.Std != 0 || one.Median != 7 || one.Min != 7 || one.Max != 7 {
		t.Fatalf("singleton = %+v", one)
	}

	if z := Aggregate(nil); z != (Agg{}) {
		t.Fatalf("empty = %+v", z)
	}
	if z := Aggregate([]float64{math.NaN()}); z != (Agg{}) {
		t.Fatalf("all-NaN = %+v", z)
	}
	mixed := Aggregate([]float64{math.NaN(), 2, 4})
	if mixed.N != 2 || mixed.Mean != 3 {
		t.Fatalf("NaN not excluded: %+v", mixed)
	}
}

func TestAggregateDoesNotReorderInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Aggregate(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input reordered: %v", in)
	}
}

func TestAggregateExcludesInf(t *testing.T) {
	a := Aggregate([]float64{math.Inf(1), 1, 3, math.Inf(-1)})
	if a.N != 2 || a.Mean != 2 || math.IsNaN(a.Std) {
		t.Fatalf("Inf not excluded: %+v", a)
	}
}

func TestSummarizeEpoch(t *testing.T) {
	// 20 bins of 100ms: 50 Mbps for the first second, 10 after — an outage
	// at t=1s with a 10 Mbps surviving path.
	s := &trace.Series{Name: "Total", Step: 100 * time.Millisecond}
	for i := 0; i < 20; i++ {
		if i < 10 {
			s.Mbps = append(s.Mbps, 50)
		} else {
			s.Mbps = append(s.Mbps, 10)
		}
	}
	pre := SummarizeEpoch(s, nil, 0, time.Second, 60, 0.08, 300*time.Millisecond)
	if pre.TotalMean != 50 {
		t.Fatalf("pre mean = %v, want 50", pre.TotalMean)
	}
	if math.Abs(pre.Gap-(1-50.0/60)) > 1e-9 {
		t.Fatalf("pre gap = %v", pre.Gap)
	}
	if pre.Converged {
		t.Fatal("50 of 60 should not be in an 8% band")
	}
	post := SummarizeEpoch(s, nil, time.Second, 2*time.Second, 10, 0.08, 300*time.Millisecond)
	if post.TotalMean != 10 || math.Abs(post.Gap) > 1e-9 {
		t.Fatalf("post epoch = %+v", post)
	}
	if !post.Converged || post.ConvergedAt != time.Second {
		t.Fatalf("post epoch not converged at its start: %+v", post)
	}
	// Convergence is judged on the clipped window: the pre-epoch plateau
	// cannot satisfy the post epoch, and per-path means are clipped too.
	p := &trace.Series{Name: "p", Step: 100 * time.Millisecond, Mbps: s.Mbps}
	withPath := SummarizeEpoch(s, []*trace.Series{p}, time.Second, 2*time.Second, 10, 0.08, 300*time.Millisecond)
	if len(withPath.PathMeans) != 1 || withPath.PathMeans[0] != 10 {
		t.Fatalf("path means = %v", withPath.PathMeans)
	}
	// A hold longer than the epoch clamps to the epoch length instead of
	// never converging.
	short := SummarizeEpoch(s, nil, time.Second, 2*time.Second, 10, 0.08, time.Hour)
	if !short.Converged {
		t.Fatal("hold clamp missing: epoch-long plateau did not converge")
	}
}

func TestSummarizeEpochSubBinFallback(t *testing.T) {
	// 100 ms bins; a 50 ms epoch between samples must fall back to the
	// covering bin instead of reporting 0 Mbps / 100% gap.
	s := &trace.Series{Name: "Total", Step: 100 * time.Millisecond}
	for i := 0; i < 10; i++ {
		s.Mbps = append(s.Mbps, 42)
	}
	p := &trace.Series{Name: "p", Step: 100 * time.Millisecond, Mbps: s.Mbps}
	e := SummarizeEpoch(s, []*trace.Series{p}, 200*time.Millisecond, 250*time.Millisecond, 60, 0.08, 300*time.Millisecond)
	if e.TotalMean != 42 {
		t.Fatalf("sub-bin epoch mean = %v, want 42 (covering bin)", e.TotalMean)
	}
	if math.Abs(e.Gap-(1-42.0/60)) > 1e-9 {
		t.Fatalf("sub-bin epoch gap = %v", e.Gap)
	}
	if len(e.PathMeans) != 1 || e.PathMeans[0] != 42 {
		t.Fatalf("sub-bin path means = %v", e.PathMeans)
	}
	if e.Converged {
		t.Fatal("sub-bin epoch cannot establish convergence")
	}
}
