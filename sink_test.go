package mptcpsim

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"mptcpsim/internal/stats"
)

// TestAggSinkMatchesSweepGroups checks the online aggregation sink against
// the retained-sample aggregation: same cells in the same order, equal
// counts, and means/deviations/extrema matching to floating-point noise
// (Welford sums in completion order, so bit-identity is not promised —
// nor are medians, which need the full sample).
func TestAggSinkMatchesSweepGroups(t *testing.T) {
	grid := func() *Grid {
		g := sweepGrid()
		g.Perturbations = []Perturbation{{Name: "base"}, {Name: "lossy", Loss: 0.005}}
		return g
	}
	res, err := (&Sweep{Workers: 4}).Run(grid())
	if err != nil {
		t.Fatal(err)
	}

	agg := &AggSink{}
	if err := (&Sweep{Workers: 4}).Stream(grid(), StreamSpec{}, agg); err != nil {
		t.Fatal(err)
	}

	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	if agg.Runs+agg.Errors != len(res.Runs) || agg.Errors != res.Errs() {
		t.Fatalf("agg counted %d runs / %d errors, sweep has %d / %d",
			agg.Runs, agg.Errors, len(res.Runs), res.Errs())
	}
	if !close(agg.Gap.Mean, res.Gap.Mean) || !close(agg.Gap.Std(), res.Gap.Std) {
		t.Fatalf("overall gap: online mean/std %v/%v vs aggregate %v/%v",
			agg.Gap.Mean, agg.Gap.Std(), res.Gap.Mean, res.Gap.Std)
	}

	groups := agg.Groups()
	if len(groups) != len(res.Groups) {
		t.Fatalf("agg has %d groups, sweep has %d", len(groups), len(res.Groups))
	}
	for i, g := range groups {
		w := res.Groups[i]
		if g.Scenario != w.Scenario || g.Perturbation != w.Perturbation ||
			g.Events != w.Events || g.CC != w.CC || g.Scheduler != w.Scheduler {
			t.Fatalf("group %d is cell %s/%s/%s/%s, sweep ordered %s/%s/%s/%s here",
				i, g.Perturbation, g.Events, g.CC, g.Scheduler,
				w.Perturbation, w.Events, w.CC, w.Scheduler)
		}
		if g.Runs != w.Runs || g.Errors != w.Errors || g.Converged != w.Converged {
			t.Fatalf("group %d counts %d/%d/%d, want %d/%d/%d",
				i, g.Runs, g.Errors, g.Converged, w.Runs, w.Errors, w.Converged)
		}
		for _, m := range []struct {
			name string
			on   stats.Online
			agg  stats.Agg
		}{
			{"gap", g.Gap, w.Gap},
			{"total_mbps", g.TotalMbps, w.TotalMbps},
			{"converged_at_s", g.ConvergedAtS, w.ConvergedAtS},
		} {
			if !close(m.on.Mean, m.agg.Mean) || !close(m.on.Std(), m.agg.Std) ||
				m.on.Min != m.agg.Min || m.on.Max != m.agg.Max {
				t.Fatalf("group %d %s: online {mean %v std %v min %v max %v} vs aggregate {%v %v %v %v}",
					i, m.name, m.on.Mean, m.on.Std(), m.on.Min, m.on.Max,
					m.agg.Mean, m.agg.Std, m.agg.Min, m.agg.Max)
			}
		}
	}
}

// checkingSink asserts the RunSink contract from inside: serialised
// Accepts, done increasing by exactly one, exactly-once index coverage.
type checkingSink struct {
	t        *testing.T
	inAccept int32
	prevDone int
	seen     map[int]bool
	closed   int
}

func (c *checkingSink) Accept(done, total int, s RunSummary, full *Result) error {
	if !atomic.CompareAndSwapInt32(&c.inAccept, 0, 1) {
		c.t.Error("Accept ran concurrently with another Accept")
	}
	if done != c.prevDone+1 {
		c.t.Errorf("done jumped from %d to %d", c.prevDone, done)
	}
	c.prevDone = done
	if c.seen == nil {
		c.seen = make(map[int]bool)
	}
	if c.seen[s.Index] {
		c.t.Errorf("run %d delivered twice", s.Index)
	}
	c.seen[s.Index] = true
	atomic.StoreInt32(&c.inAccept, 0)
	return nil
}

func (c *checkingSink) Flush() error { return nil }
func (c *checkingSink) Close() error { c.closed++; return nil }

// sinkFunc adapts a function to a RunSink, for tests that only watch
// Accepts go by.
type sinkFunc func(done, total int, s RunSummary, full *Result)

func (f sinkFunc) Accept(done, total int, s RunSummary, full *Result) error {
	f(done, total, s, full)
	return nil
}
func (f sinkFunc) Flush() error { return nil }
func (f sinkFunc) Close() error { return nil }

// TestStreamSinkContract drives a caller sink through Stream and checks it
// sees the full serialised, exactly-once, done-monotone delivery, then
// exactly one Close — also when Stream refuses before the first run.
func TestStreamSinkContract(t *testing.T) {
	unknownCC := sweepGrid()
	unknownCC.CCs = []string{"nope"}
	for _, tc := range []struct {
		name    string
		grid    *Grid
		spec    StreamSpec
		runs    int
		wantErr bool
	}{
		{"whole grid", sweepGrid(), StreamSpec{}, 4, false},
		{"invalid shard", sweepGrid(), StreamSpec{Shard: Shard{K: 2, N: 2}}, 0, true},
		{"unknown cc", unknownCC, StreamSpec{}, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			check := &checkingSink{t: t}
			if err := (&Sweep{Workers: 8}).Stream(tc.grid, tc.spec, check); (err != nil) != tc.wantErr {
				t.Fatalf("Stream returned %v, want an error: %t", err, tc.wantErr)
			}
			if check.prevDone != tc.runs || len(check.seen) != tc.runs {
				t.Fatalf("sink saw %d completions over %d runs, want %d/%d",
					check.prevDone, len(check.seen), tc.runs, tc.runs)
			}
			if check.closed != 1 {
				t.Fatalf("Stream closed the sink %d times, want exactly once", check.closed)
			}
		})
	}
}

// TestAggSinkMerge folds two per-shard aggregates into one and checks the
// fold equals a single sink that saw every run — counts and group order
// exactly, moments to floating-point noise — which is what lets the fleet
// coordinator serve live fleet-wide aggregates from per-shard sinks.
func TestAggSinkMerge(t *testing.T) {
	grid := func() *Grid {
		g := sweepGrid()
		g.Perturbations = []Perturbation{{Name: "base"}, {Name: "lossy", Loss: 0.005}}
		return g
	}
	whole := &AggSink{}
	if err := (&Sweep{Workers: 2}).Stream(grid(), StreamSpec{}, whole); err != nil {
		t.Fatal(err)
	}

	folded := &AggSink{}
	for k := 0; k < 2; k++ {
		part := &AggSink{}
		spec := StreamSpec{Shard: Shard{K: k, N: 2}}
		if err := (&Sweep{Workers: 2}).Stream(grid(), spec, part); err != nil {
			t.Fatal(err)
		}
		folded.Merge(part)
	}

	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*(1+math.Abs(b)) }
	if folded.Runs != whole.Runs || folded.Errors != whole.Errors {
		t.Fatalf("folded %d runs / %d errors, whole sink saw %d / %d",
			folded.Runs, folded.Errors, whole.Runs, whole.Errors)
	}
	if !close(folded.Gap.Mean, whole.Gap.Mean) || !close(folded.Gap.Std(), whole.Gap.Std()) {
		t.Fatalf("folded gap mean/std %v/%v vs whole %v/%v",
			folded.Gap.Mean, folded.Gap.Std(), whole.Gap.Mean, whole.Gap.Std())
	}
	fg, wg := folded.Groups(), whole.Groups()
	if len(fg) != len(wg) {
		t.Fatalf("folded %d groups, whole sink has %d", len(fg), len(wg))
	}
	for i := range fg {
		f, w := fg[i], wg[i]
		if f.Scenario != w.Scenario || f.Perturbation != w.Perturbation ||
			f.Events != w.Events || f.CC != w.CC || f.Scheduler != w.Scheduler {
			t.Fatalf("group %d: folded cell %s/%s/%s/%s out of order vs whole %s/%s/%s/%s",
				i, f.Perturbation, f.Events, f.CC, f.Scheduler,
				w.Perturbation, w.Events, w.CC, w.Scheduler)
		}
		if f.Runs != w.Runs || f.Errors != w.Errors || f.Converged != w.Converged {
			t.Fatalf("group %d counts %d/%d/%d, want %d/%d/%d",
				i, f.Runs, f.Errors, f.Converged, w.Runs, w.Errors, w.Converged)
		}
		if !close(f.Gap.Mean, w.Gap.Mean) || !close(f.Gap.Std(), w.Gap.Std()) ||
			f.Gap.Min != w.Gap.Min || f.Gap.Max != w.Gap.Max {
			t.Fatalf("group %d gap: folded {%v %v %v %v} vs whole {%v %v %v %v}",
				i, f.Gap.Mean, f.Gap.Std(), f.Gap.Min, f.Gap.Max,
				w.Gap.Mean, w.Gap.Std(), w.Gap.Min, w.Gap.Max)
		}
	}
}

// TestSinkCloseContract pins the closed-state edge of the sink contract
// for every sink with externally visible finalisation: after Close,
// Accept refuses with ErrSinkClosed instead of silently mutating state
// past the end, and a second Close is detected rather than repeated.
func TestSinkCloseContract(t *testing.T) {
	sinks := map[string]func(t *testing.T) RunSink{
		"LogSink": func(t *testing.T) RunSink {
			s, err := NewLogSink(io.Discard, RunLogHeader{N: 1, Total: 4}, LogOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"AggSink":   func(t *testing.T) RunSink { return &AggSink{} },
		"MultiSink": func(t *testing.T) RunSink { return MultiSink(&AggSink{}) },
	}
	for name, mk := range sinks {
		t.Run(name, func(t *testing.T) {
			sink := mk(t)
			if err := sink.Accept(1, 4, RunSummary{Index: 0}, nil); err != nil {
				t.Fatalf("Accept on an open sink: %v", err)
			}
			if err := sink.Close(); err != nil {
				t.Fatalf("first Close: %v", err)
			}
			if err := sink.Accept(2, 4, RunSummary{Index: 1}, nil); !errors.Is(err, ErrSinkClosed) {
				t.Fatalf("Accept after Close: err = %v, want ErrSinkClosed", err)
			}
			if err := sink.Close(); !errors.Is(err, ErrSinkClosed) {
				t.Fatalf("double Close: err = %v, want ErrSinkClosed", err)
			}
		})
	}

	// The LogSink specifics: a refused post-Close Accept must leave the
	// bytes on disk untouched (nothing may land past the commit mark), and
	// a closed MultiSink must not forward the refused call to its children.
	t.Run("LogSink stops writing", func(t *testing.T) {
		var buf bytes.Buffer
		s, err := NewLogSink(&buf, RunLogHeader{N: 1, Total: 4}, LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Accept(1, 4, RunSummary{Index: 0}, nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		committed := buf.Len()
		s.Accept(2, 4, RunSummary{Index: 1}, nil)
		if buf.Len() != committed {
			t.Fatalf("post-Close Accept grew the log from %d to %d bytes", committed, buf.Len())
		}
		if err := s.Flush(); !errors.Is(err, ErrSinkClosed) {
			t.Fatalf("Flush after Close: err = %v, want ErrSinkClosed", err)
		}
	})
	t.Run("MultiSink stops forwarding", func(t *testing.T) {
		inner := &failingSink{failAt: 100}
		m := MultiSink(inner)
		if err := m.Accept(1, 4, RunSummary{Index: 0}, nil); err != nil {
			t.Fatal(err)
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		m.Accept(2, 4, RunSummary{Index: 1}, nil)
		m.Close()
		if inner.accepts != 1 {
			t.Fatalf("closed fan-out forwarded Accept; inner saw %d, want 1", inner.accepts)
		}
	})
}

// heapSampler measures peak live heap across a sweep by forcing a collection
// at every delivery — expensive, so test-only.
type heapSampler struct {
	peak uint64
}

func (h *heapSampler) Accept(done, total int, s RunSummary, full *Result) error {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > h.peak {
		h.peak = ms.HeapAlloc
	}
	return nil
}

func (h *heapSampler) Flush() error { return nil }
func (h *heapSampler) Close() error { return nil }

// TestStreamFlatMemory is the flat-memory claim under measurement: a
// streamed sweep over a 10x larger grid may not grow peak live heap more
// than 2x. (An in-memory sweep retains every summary, so its peak grows
// linearly; the streamed path retains nothing per run.)
func TestStreamFlatMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement forces a GC per run")
	}
	peak := func(seeds int) uint64 {
		g := &Grid{
			CCs:        []string{"cubic"},
			Orders:     [][]int{{2, 1, 3}},
			DurationMs: 100,
		}
		for s := 1; s <= seeds; s++ {
			g.Seeds = append(g.Seeds, int64(s))
		}
		sw := &Sweep{Workers: 2}
		digest, total, err := sw.Describe(g)
		if err != nil {
			t.Fatal(err)
		}
		logSink, err := NewLogSink(io.Discard, RunLogHeader{GridDigest: digest, N: 1, Total: total}, LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sampler := &heapSampler{}
		if err := sw.Stream(g, StreamSpec{}, MultiSink(logSink, sampler)); err != nil {
			t.Fatal(err)
		}
		return sampler.peak
	}
	small := peak(4)
	big := peak(40)
	t.Logf("peak live heap: %d bytes over 4 runs, %d over 40", small, big)
	if big > 2*small {
		t.Fatalf("10x grid grew peak live heap %dx (%d -> %d bytes); streaming is supposed to be flat",
			(big+small-1)/small, small, big)
	}
}
