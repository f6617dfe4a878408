package mptcpsim

import (
	"errors"
	"fmt"
	"sort"

	"mptcpsim/internal/stats"
	"mptcpsim/internal/telemetry"
)

// ErrSinkClosed is returned (wrapped) by sinks whose Accept — or a second
// Close — arrives after Close. The sink contract promises exactly one
// Close after the last Accept; sinks with externally visible finalisation
// (a run-log's commit mark, an aggregate snapshot handed to a merge)
// enforce it rather than silently accepting records past the end.
var ErrSinkClosed = errors.New("sink already closed")

// RunSink is the single results surface of a sweep: Sweep.Stream feeds
// exactly one sink chain, and everything else — the in-memory SweepResult,
// NDJSON run-logs, online aggregation, progress lines, heartbeats and
// flight dumps (internal/cli) — is a sink over that path.
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
// its purpose, or sweep memory stops being flat in grid size.
//
// The first Accept error ends the sweep: no further run is started, the
// runs in flight at that moment finish but are not delivered, and the
// error is returned from the sweep entry point.
type RunSink interface {
	Accept(done, total int, s RunSummary, full *Result) error
	// Flush forces any buffered state through to its destination (for
	// durable sinks, onto the disk).
	Flush() error
	// Close finalises the sink after the last Accept; Close implies Flush.
	// The sweep entry point that was handed the sink calls Close exactly
	// once, even when a run or an Accept failed.
	Close() error
}

// MultiSink fans every Accept, Flush and Close out to each sink in order.
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

func (m *multiSink) Flush() error {
	var first error
	for _, sink := range m.sinks {
		if err := sink.Flush(); err != nil && first == nil {
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
	m.runs = append(m.runs, s)
	return nil
}

func (m *MemorySink) Flush() error { return nil }
func (m *MemorySink) Close() error { return nil }

// Result assembles the accumulated runs into a SweepResult: runs sorted
// from completion order into expansion order (indices are unique per
// sweep, so the result is deterministic for any worker count), groups and
// the overall gap recomputed from the full run list.
func (m *MemorySink) Result() *SweepResult {
	sort.Slice(m.runs, func(a, b int) bool { return m.runs[a].Index < m.runs[b].Index })
	res := &SweepResult{Runs: m.runs}
	res.aggregate()
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

func (r *RollupSink) Flush() error { return nil }
func (r *RollupSink) Close() error { return nil }

// GroupAgg is one (scenario, perturbation, events, cc, scheduler) cell of
// an AggSink: the online counterpart of GroupStats, summarising the cell
// with streaming accumulators instead of retained samples.
type GroupAgg struct {
	Scenario     string `json:"scenario"`
	Perturbation string `json:"perturbation"`
	Events       string `json:"events,omitempty"`
	CC           string `json:"cc"`
	Scheduler    string `json:"scheduler"`
	// Runs counts completed runs in the cell, Errors failed ones,
	// Converged the runs that reached the optimum band.
	Runs      int `json:"runs"`
	Errors    int `json:"errors,omitempty"`
	Converged int `json:"converged"`
	// Gap, TotalMbps and ConvergedAtS summarise the per-run metrics
	// (ConvergedAtS over converged runs only).
	Gap          stats.Online `json:"gap"`
	TotalMbps    stats.Online `json:"total_mbps"`
	ConvergedAtS stats.Online `json:"converged_at_s"`

	// minIndex is the cell's smallest run index — the deterministic sort
	// key that reproduces first-appearance-in-expansion-order grouping no
	// matter the completion order.
	minIndex int
}

// AggSink folds runs into per-group online aggregates as they complete —
// the flat-memory counterpart of SweepResult.Groups for live monitoring
// of sweeps too large to hold. Means, deviations and extrema match the
// end-of-sweep aggregation numerically (not bit-for-bit: Welford sums in
// completion order); medians need the full sample and come from the
// run-log second pass instead.
type AggSink struct {
	// Runs and Errors count completed and failed runs across the sweep.
	Runs, Errors int
	// Gap aggregates the optimality gap over every completed run.
	Gap stats.Online

	groups map[groupKey]*GroupAgg
	closed bool
}

type groupKey struct{ scenario, pert, events, cc, sched string }

func (a *AggSink) Accept(done, total int, s RunSummary, full *Result) error {
	if a.closed {
		return fmt.Errorf("aggregation sink: %w", ErrSinkClosed)
	}
	if a.groups == nil {
		a.groups = make(map[groupKey]*GroupAgg)
	}
	k := groupKey{s.Scenario, s.Perturbation, s.Events, s.CC, s.Scheduler}
	g, ok := a.groups[k]
	if !ok {
		g = &GroupAgg{Scenario: s.Scenario, Perturbation: s.Perturbation,
			Events: s.Events, CC: s.CC, Scheduler: s.Scheduler, minIndex: s.Index}
		a.groups[k] = g
	}
	if s.Index < g.minIndex {
		g.minIndex = s.Index
	}
	if s.Err != "" {
		a.Errors++
		g.Errors++
		return nil
	}
	a.Runs++
	g.Runs++
	if s.Converged {
		g.Converged++
		g.ConvergedAtS.Add(s.ConvergedAtS)
	}
	g.Gap.Add(s.Gap)
	g.TotalMbps.Add(s.TotalMbps)
	a.Gap.Add(s.Gap)
	return nil
}

func (a *AggSink) Flush() error { return nil }

// Close freezes the aggregate: once closed, further Accepts (and a second
// Close) return ErrSinkClosed, so a snapshot taken after Close — e.g. one
// handed to a fleet-level Merge — cannot drift.
func (a *AggSink) Close() error {
	if a.closed {
		return fmt.Errorf("aggregation sink: %w", ErrSinkClosed)
	}
	a.closed = true
	return nil
}

// Merge folds another sink's aggregate state into a — the fleet
// coordinator's fold across per-shard aggregates. Cells merge by group key
// with online accumulator merging (stats.Online.Merge), so the fold equals
// a single sink having seen every run, up to floating-point association.
// The closed states are independent: merging does not reopen a.
func (a *AggSink) Merge(b *AggSink) {
	a.Runs += b.Runs
	a.Errors += b.Errors
	a.Gap.Merge(b.Gap)
	for k, g := range b.groups {
		if a.groups == nil {
			a.groups = make(map[groupKey]*GroupAgg)
		}
		dst, ok := a.groups[k]
		if !ok {
			cp := *g
			a.groups[k] = &cp
			continue
		}
		if g.minIndex < dst.minIndex {
			dst.minIndex = g.minIndex
		}
		dst.Runs += g.Runs
		dst.Errors += g.Errors
		dst.Converged += g.Converged
		dst.Gap.Merge(g.Gap)
		dst.TotalMbps.Merge(g.TotalMbps)
		dst.ConvergedAtS.Merge(g.ConvergedAtS)
	}
}

// Groups snapshots the cells in first-appearance-in-expansion order (the
// order SweepResult.Groups uses), deterministic for any worker count.
func (a *AggSink) Groups() []GroupAgg {
	out := make([]GroupAgg, 0, len(a.groups))
	for _, g := range a.groups {
		out = append(out, *g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].minIndex < out[j].minIndex })
	return out
}
