// Package stats computes the summary metrics behind the paper's §3
// narrative: whether and when a congestion-control algorithm reaches the
// optimal total throughput, how stable it is after convergence, and how
// the achieved allocation compares to the LP optimum.
package stats

import (
	"math"
	"sort"
	"time"

	"mptcpsim/internal/trace"
)

// Agg summarises a sample of scalar values — the cross-run aggregation a
// parameter sweep needs (e.g. the optimality gap over seeds or subflow
// orderings). The zero value describes an empty sample.
type Agg struct {
	// N is the sample size.
	N int `json:"n"`
	// Mean and Std are the sample mean and (population) standard deviation.
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	// Min, Max and Median bound and centre the sample.
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
}

// Aggregate computes an Agg over the values. Non-finite values (NaN, ±Inf)
// are excluded — one Inf would otherwise poison Mean and make Std NaN; an
// empty (or all-non-finite) input yields the zero Agg.
func Aggregate(vals []float64) Agg {
	clean := make([]float64, 0, len(vals))
	for _, v := range vals {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			clean = append(clean, v)
		}
	}
	if len(clean) == 0 {
		return Agg{}
	}
	sort.Float64s(clean)
	a := Agg{N: len(clean), Min: clean[0], Max: clean[len(clean)-1]}
	var sum float64
	for _, v := range clean {
		sum += v
	}
	a.Mean = sum / float64(a.N)
	var sq float64
	for _, v := range clean {
		d := v - a.Mean
		sq += float64(d * d)
	}
	a.Std = math.Sqrt(sq / float64(a.N))
	if a.N%2 == 1 {
		a.Median = clean[a.N/2]
	} else {
		a.Median = (clean[a.N/2-1] + clean[a.N/2]) / 2
	}
	return a
}

// MeasureWindow returns a run's measurement window [from, horizon): the
// horizon is the end of the last full capture bin, and from skips the
// slow-start transient (10% of the horizon) rounded up to a whole bin.
// Every consumer of the window — the measured mean (Summarize), the
// piecewise target weighting (mptcpsim.Run) and the gap invariant's drain
// allowance — must integrate over this same interval; the "measured never
// beats the optimum" invariant is only sound when they agree.
func MeasureWindow(duration, step time.Duration) (from, horizon time.Duration) {
	if step <= 0 {
		return duration / 10, duration
	}
	horizon = duration / step * step
	from = (horizon/10 + step - 1) / step * step
	return from, horizon
}

// EpochWindow returns the whole-bin window inside [from, to) — the
// largest interval an epoch can be measured over without boundary bins
// mixing in the neighbouring epochs' traffic. The result is empty
// (second ≤ first) for epochs shorter than one aligned bin.
func EpochWindow(from, to, step time.Duration) (time.Duration, time.Duration) {
	if step <= 0 {
		return from, to
	}
	return (from + step - 1) / step * step, to / step * step
}

// ConvergenceTime returns the first time at which the series enters the
// band [target*(1-tol), inf) and stays there for the hold duration.
func ConvergenceTime(s *trace.Series, target, tol float64, hold time.Duration) (time.Duration, bool) {
	if s.Step <= 0 || len(s.Mbps) == 0 {
		return 0, false
	}
	need := int(hold / s.Step)
	if need < 1 {
		need = 1
	}
	floor := target * (1 - tol)
	run := 0
	for i, v := range s.Mbps {
		if v >= floor {
			run++
			if run >= need {
				start := i - run + 1
				return s.Start + time.Duration(start)*s.Step, true
			}
		} else {
			run = 0
		}
	}
	return 0, false
}

// OptimalityGap returns 1 - mean/target over [from, to): 0 means the
// series averages the target, 0.25 means it runs 25% below.
func OptimalityGap(s *trace.Series, target float64, from, to time.Duration) float64 {
	mean, _, _, _ := s.Stats(from, to)
	if target <= 0 {
		return 0
	}
	return 1 - mean/target
}

// CoV returns the coefficient of variation (stddev/mean) over [from, to),
// the stability measure: CUBIC converges but stays noisy, OLIA converges
// slowly but then sits still.
func CoV(s *trace.Series, from, to time.Duration) float64 {
	mean, _, _, std := s.Stats(from, to)
	if mean == 0 {
		return 0
	}
	return std / mean
}

// Summary aggregates one run's metrics.
type Summary struct {
	// Algorithm names the congestion control.
	Algorithm string
	// TotalMean is the mean total throughput over the measurement window.
	TotalMean float64
	// Target is the optimality target Gap was computed against: the LP
	// total for a static run, the time-weighted piecewise optimum for a
	// dynamic one.
	Target float64
	// Gap is the optimality gap versus Target.
	Gap float64
	// Converged reports whether the total entered the optimum band.
	Converged bool
	// ConvergedAt is the convergence time (valid if Converged).
	ConvergedAt time.Duration
	// PostCoV is the coefficient of variation after convergence (or over
	// the last half of the run when not converged).
	PostCoV float64
	// PathMeans are the per-path mean rates over the measurement window.
	PathMeans []float64
	// ReachedPareto reports whether the total reached the greedy/Pareto
	// level (the paper's suboptimal trap), and ParetoAt when. The gap
	// between ParetoAt and ConvergedAt is the duration of the "shake-down"
	// search the paper describes.
	ReachedPareto bool
	ParetoAt      time.Duration
}

// EpochStats summarises one capacity epoch of a dynamic run against the
// epoch's own LP optimum — the piecewise view of a time-varying network.
type EpochStats struct {
	// TotalMean is the mean total throughput inside the epoch.
	TotalMean float64
	// Gap is the optimality gap versus the epoch's target over the epoch.
	Gap float64
	// PathMeans are the per-path means inside the epoch.
	PathMeans []float64
	// Converged reports whether the total entered the epoch target's band
	// within the epoch, and ConvergedAt when (absolute run time).
	Converged   bool
	ConvergedAt time.Duration
}

// SummarizeEpoch computes the per-epoch metrics for [from, to) against the
// epoch's own target. Convergence is detected on the clipped window so an
// earlier epoch's plateau cannot satisfy a later epoch's band. An epoch
// shorter than one trace bin falls back to the bin covering its start —
// a 50 ms outage between 100 ms samples carried traffic and must not read
// as zero throughput with a 100% gap.
func SummarizeEpoch(total *trace.Series, paths []*trace.Series,
	from, to time.Duration, target, tol float64, hold time.Duration) EpochStats {
	var e EpochStats
	// Measure over whole bins strictly inside the epoch: a bin straddling
	// a boundary mixes in the neighbouring epoch's traffic (a capacity cut
	// mid-bin would otherwise credit the slow epoch with pre-cut bytes and
	// make it appear to beat its own optimum).
	cf, ct := EpochWindow(from, to, total.Step)
	clipped := total.Clip(cf, ct)
	if clipped.Len() == 0 {
		e.TotalMean = total.At(from)
		if target > 0 {
			e.Gap = 1 - e.TotalMean/target
		}
		for _, p := range paths {
			e.PathMeans = append(e.PathMeans, p.At(from))
		}
		return e
	}
	e.TotalMean, _, _, _ = clipped.Stats(0, 0)
	e.Gap = OptimalityGap(&clipped, target, 0, 0)
	if hold > ct-cf {
		hold = ct - cf
	}
	e.ConvergedAt, e.Converged = ConvergenceTime(&clipped, target, tol, hold)
	for _, p := range paths {
		pc := p.Clip(cf, ct)
		m, _, _, _ := pc.Stats(0, 0)
		e.PathMeans = append(e.PathMeans, m)
	}
	return e
}

// Summarize computes a Summary for a run: total and per-path series, the
// LP target, the greedy/Pareto level, and the convergence parameters.
func Summarize(algorithm string, total *trace.Series, paths []*trace.Series,
	target, pareto, tol float64, hold time.Duration) Summary {
	dur := time.Duration(total.Len()) * total.Step
	s := Summary{Algorithm: algorithm, Target: target}
	// Skip the first 10% (slow-start transient) for the window mean,
	// rounded up to a whole bin — see MeasureWindow for why the window
	// must be exactly the bins it covers.
	from, _ := MeasureWindow(dur, total.Step)
	s.TotalMean, _, _, _ = total.Stats(from, dur)
	s.Gap = OptimalityGap(total, target, from, dur)
	s.ConvergedAt, s.Converged = ConvergenceTime(total, target, tol, hold)
	if pareto > 0 {
		s.ParetoAt, s.ReachedPareto = ConvergenceTime(total, pareto, tol, hold/2)
	}
	covFrom := dur / 2
	if s.Converged && s.ConvergedAt > covFrom {
		covFrom = s.ConvergedAt
	}
	s.PostCoV = CoV(total, covFrom, dur)
	for _, p := range paths {
		m, _, _, _ := p.Stats(from, dur)
		s.PathMeans = append(s.PathMeans, m)
	}
	return s
}
