package stats

import (
	"encoding/json"
	"math"
	"testing"
)

// onlineClose is the agreement tolerance between the streaming recurrence
// and the two-pass Aggregate: floating-point noise only.
func onlineClose(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}

// onlineSample is a deliberately awkward sample: mixed signs, repeated
// values, a large offset (catastrophic cancellation territory for naive
// sum-of-squares), and non-finite values that both sides must exclude.
func onlineSample() []float64 {
	vals := []float64{3.5, -2, 0, 0, 7.25, 1e6, 1e6 + 0.5, -13.75, 4, 4}
	return append(vals, math.NaN(), math.Inf(1), math.Inf(-1))
}

func TestOnlineMatchesAggregate(t *testing.T) {
	vals := onlineSample()
	want := Aggregate(vals)
	var o Online
	for _, v := range vals {
		o.Add(v)
	}
	if o.N != want.N {
		t.Fatalf("online N=%d, aggregate N=%d (non-finite filtering differs)", o.N, want.N)
	}
	if !onlineClose(o.Mean, want.Mean) || !onlineClose(o.Std(), want.Std) {
		t.Fatalf("online mean/std %v/%v, aggregate %v/%v", o.Mean, o.Std(), want.Mean, want.Std)
	}
	if o.Min != want.Min || o.Max != want.Max {
		t.Fatalf("online min/max %v/%v, aggregate %v/%v", o.Min, o.Max, want.Min, want.Max)
	}
}

func TestOnlineEmpty(t *testing.T) {
	var o Online
	if o.N != 0 || o.Mean != 0 || o.Std() != 0 || o.Min != 0 || o.Max != 0 {
		t.Fatalf("zero Online is not the empty aggregate: %+v", o)
	}
}

// TestOnlineMarshalJSON pins the serialised shape: the Agg-style summary
// fields, std precomputed, M2 absent.
func TestOnlineMarshalJSON(t *testing.T) {
	var o Online
	o.Add(1)
	o.Add(3)
	raw, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]float64
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"n", "mean", "std", "min", "max"} {
		if _, ok := fields[key]; !ok {
			t.Fatalf("serialised Online lost %q: %s", key, raw)
		}
	}
	if _, leaked := fields["M2"]; leaked || len(fields) != 5 {
		t.Fatalf("serialised Online has unexpected fields: %s", raw)
	}
	if fields["mean"] != 2 || fields["std"] != 1 {
		t.Fatalf("mean/std = %v/%v, want 2/1: %s", fields["mean"], fields["std"], raw)
	}
}
