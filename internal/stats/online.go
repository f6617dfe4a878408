package stats

import (
	"encoding/json"
	"math"
)

// Online is a streaming aggregate over a sample of scalar values: Welford's
// recurrence for mean and variance, plus the extrema, without retaining the
// sample. No production code uses it — every cell statistic comes from
// Aggregate over the retained sample — and it stays only because the
// benchmark's stats.ns_per_online_add layer metric times Add. Like
// Aggregate, non-finite values are excluded; the zero value describes an
// empty sample.
type Online struct {
	// N is the sample size.
	N int
	// Mean is the running sample mean; M2 the sum of squared deviations
	// from it, from which Std derives.
	Mean float64
	M2   float64
	// Min and Max bound the sample (0 when empty).
	Min float64
	Max float64
}

// Add folds one value into the accumulator. Non-finite values (NaN, ±Inf)
// are excluded, mirroring Aggregate.
func (o *Online) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	o.N++
	if o.N == 1 {
		o.Min, o.Max = v, v
	} else {
		if v < o.Min {
			o.Min = v
		}
		if v > o.Max {
			o.Max = v
		}
	}
	d := v - o.Mean
	o.Mean += d / float64(o.N)
	o.M2 += float64(d * (v - o.Mean))
}

// Std is the population standard deviation, matching Aggregate's Std.
func (o Online) Std() float64 {
	if o.N == 0 {
		return 0
	}
	return math.Sqrt(o.M2 / float64(o.N))
}

// MarshalJSON emits the Agg-style summary shape (n/mean/std/min/max, no
// median); M2 is an implementation detail and is not serialised.
func (o Online) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		N    int     `json:"n"`
		Mean float64 `json:"mean"`
		Std  float64 `json:"std"`
		Min  float64 `json:"min"`
		Max  float64 `json:"max"`
	}{o.N, o.Mean, o.Std(), o.Min, o.Max})
}
