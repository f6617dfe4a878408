package mptcpsim

import (
	"errors"
	"fmt"
	"sort"

	"mptcpsim/internal/telemetry"
)

// ErrSinkClosed is returned (wrapped) by sinks whose Accept — or a second
// Close — arrives after Close. The sink contract promises exactly one
// Close after the last Accept; sinks with externally visible finalisation
// (a run-log's commit mark, a fan-out's children) enforce it rather than
// silently accepting records past the end.
var ErrSinkClosed = errors.New("sink already closed")

// RunSink is the single results surface of a sweep: Sweep.Stream feeds
// exactly one sink chain, and everything else — the in-memory SweepResult,
// NDJSON run-logs, progress lines, heartbeats and flight dumps
// (internal/cli) — is a sink over that path.
//
// Accept is called exactly once per executed run, serialised under the
// sweep's completion lock: implementations need no locking of their own,
// done increases by exactly one per call, and done == total exactly when
// the last run lands. Runs arrive in completion order, not index order;
// sinks that need expansion order sort by RunSummary.Index. full is the
// run's complete Result when one exists (always for completed runs; for
// failed runs only when telemetry captured a partial result) and is
// released to the garbage collector as soon as Accept returns — a sink
// must copy what it needs and must not retain full unless retention is
// its purpose, or sweep memory stops being flat in grid size. s arrives
// without its Derived record, which MemorySink and LogSink fill from full.
//
// The first Accept error ends the sweep: no further run is started, the
// runs in flight at that moment finish but are not delivered, and the
// error is returned from the sweep entry point.
type RunSink interface {
	Accept(done, total int, s RunSummary, full *Result) error
	// Close finalises the sink after the last Accept, forcing any buffered
	// state through to its destination (for durable sinks, onto the disk).
	// The sweep entry point that was handed the sink calls Close exactly
	// once, even when a run or an Accept failed.
	Close() error
}

// MultiSink fans every Accept and Close out to each sink in order.
// All sinks see every call even when an earlier one errors; the first
// error is returned. Once closed, the fan-out refuses further Accepts
// (and a second Close) with ErrSinkClosed instead of forwarding them.
func MultiSink(sinks ...RunSink) RunSink { return &multiSink{sinks: sinks} }

type multiSink struct {
	sinks  []RunSink
	closed bool
}

func (m *multiSink) Accept(done, total int, s RunSummary, full *Result) error {
	if m.closed {
		return fmt.Errorf("multi sink: %w", ErrSinkClosed)
	}
	var first error
	for _, sink := range m.sinks {
		if err := sink.Accept(done, total, s, full); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (m *multiSink) Close() error {
	if m.closed {
		return fmt.Errorf("multi sink: %w", ErrSinkClosed)
	}
	m.closed = true
	var first error
	for _, sink := range m.sinks {
		if err := sink.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MemorySink accumulates every RunSummary and assembles them into the
// classic SweepResult — the sink behind Sweep.Run, and the memory ceiling
// streaming sweeps exist to avoid. Peak memory is linear in grid size.
type MemorySink struct {
	runs []RunSummary
}

func (m *MemorySink) Accept(done, total int, s RunSummary, full *Result) error {
	m.runs = append(m.runs, derive(s, full))
	return nil
}

func (m *MemorySink) Close() error { return nil }

// Result assembles the accumulated runs into a SweepResult: runs sorted
// from completion order into expansion order (indices are unique per
// sweep, so the result is deterministic for any worker count), groups and
// the overall gap recomputed from the full run list.
func (m *MemorySink) Result() *SweepResult {
	sort.Slice(m.runs, func(a, b int) bool { return m.runs[a].Index < m.runs[b].Index })
	res := &SweepResult{Runs: m.runs}
	res.aggregate(false)
	return res
}

// RollupSink merges each telemetry-enabled run's rollup into a sweep-wide
// one. Sums and maxima commute, so the result is identical for any worker
// count; runs without telemetry (off, or aborted before collecting it) are
// skipped.
type RollupSink struct {
	Rollup telemetry.Rollup
}

func (r *RollupSink) Accept(done, total int, s RunSummary, full *Result) error {
	if full != nil {
		r.Rollup.Merge(full.Telemetry)
	}
	return nil
}

func (r *RollupSink) Close() error { return nil }
