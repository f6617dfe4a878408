package mptcpsim

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"sync/atomic"
	"testing"
)

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

// TestSinkCloseContract pins the closed-state edge of the sink contract
// for every sink with externally visible finalisation: after Close,
// Accept refuses with ErrSinkClosed instead of silently mutating state
// past the end, and a second Close is detected rather than repeated.
func TestSinkCloseContract(t *testing.T) {
	logSink := func(t *testing.T) RunSink {
		s, err := NewLogSink(io.Discard, RunLogHeader{N: 1, Total: 4}, LogOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sinks := map[string]func(t *testing.T) RunSink{
		"LogSink":   logSink,
		"MultiSink": func(t *testing.T) RunSink { return MultiSink(logSink(t)) },
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
