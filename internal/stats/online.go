package stats

import (
	"encoding/json"
	"math"
)

// Online is a streaming aggregate over a sample of scalar values — the
// flat-memory counterpart of Aggregate for consumers that cannot hold the
// sample (mega-sweep streaming sinks, shard leases folding progress).
// Mean and variance use Welford's recurrence; Merge composes two
// accumulators (Chan et al.'s parallel form), so partial aggregates from
// shards combine into exactly the accumulator one pass would have built.
// Medians need the full sample and are deliberately absent: report them
// from a run-log second pass (Aggregate), never from Online. Like
// Aggregate, non-finite values are excluded; the zero value describes an
// empty sample.
type Online struct {
	// N is the sample size.
	N int
	// Mean is the running sample mean; M2 the sum of squared deviations
	// from it (Std derives from M2, which is what Merge needs).
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

// Merge folds another accumulator into this one, as if every value it saw
// had been Added here.
func (o *Online) Merge(p Online) {
	if p.N == 0 {
		return
	}
	if o.N == 0 {
		*o = p
		return
	}
	if p.Min < o.Min {
		o.Min = p.Min
	}
	if p.Max > o.Max {
		o.Max = p.Max
	}
	n := float64(o.N + p.N)
	d := p.Mean - o.Mean
	o.Mean += d * float64(p.N) / n
	o.M2 += p.M2 + d*d*float64(o.N)*float64(p.N)/n
	o.N += p.N
}

// Std is the population standard deviation, matching Aggregate's Std.
func (o Online) Std() float64 {
	if o.N == 0 {
		return 0
	}
	return math.Sqrt(o.M2 / float64(o.N))
}

// MarshalJSON emits the Agg-style summary shape (n/mean/std/min/max, no
// median) so progress streams stay readable; M2 is an implementation
// detail and is not serialised.
func (o Online) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		N    int     `json:"n"`
		Mean float64 `json:"mean"`
		Std  float64 `json:"std"`
		Min  float64 `json:"min"`
		Max  float64 `json:"max"`
	}{o.N, o.Mean, o.Std(), o.Min, o.Max})
}
