package mptcpsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"maps"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"mptcpsim/internal/capture"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/telemetry"
	"mptcpsim/internal/trace"
)

// Series is a throughput time series in Mbps with fixed-width bins.
type Series = trace.Series

// Allocation is a per-path rate vector in Mbps.
type Allocation struct {
	PerPath []float64
	Total   float64
}

// SubflowReport summarises one subflow's transport behaviour.
type SubflowReport struct {
	// Path is the 1-based path number (= tag); Label its display name.
	Path  int
	Label string

	SentSegments   uint64
	SentBytes      uint64
	Retransmits    uint64
	RTOs           uint64
	FastRecoveries uint64
	SRTT           time.Duration
	FinalCwndBytes int
}

// EpochReport is the piecewise view of one capacity epoch of a run: the
// window between two capacity-affecting events (or the run boundaries),
// with the LP optimum of the topology actually in force and the measured
// performance against it. Static runs have exactly one epoch spanning the
// whole run.
type EpochReport struct {
	// Start and End bound the epoch in virtual time.
	Start, End time.Duration
	// Optimum is the LP solution for the epoch's effective capacities.
	Optimum Allocation
	// TotalMean is the measured mean total throughput inside the epoch.
	TotalMean float64
	// Gap is the optimality gap versus the epoch's own optimum.
	Gap float64
	// PathMeans are the measured per-path means inside the epoch.
	PathMeans []float64
	// Converged reports whether the total entered the epoch optimum's band
	// within the epoch, and ConvergedAt when (absolute run time) — the
	// re-convergence measure after a handover or failure.
	Converged   bool
	ConvergedAt time.Duration
}

// Result holds everything one run produces.
type Result struct {
	// Options echoes the effective options (defaults filled).
	Options Options
	// Paths holds the per-path throughput series, in path order.
	Paths []Series
	// Cross holds the competing single-path TCP flows' series, in
	// Options.CrossTCP order.
	Cross []Series
	// Total is the sum across paths — the paper's headline curve.
	Total Series
	// Optimum is the LP solution (the paper's max x1+x2+x3).
	Optimum Allocation
	// Problem is the LP in human-readable form (Fig. 1c).
	Problem string
	// MaxMin and Greedy are the analytic reference allocations.
	MaxMin, Greedy []float64
	// Epochs is the piecewise LP view: one entry per capacity epoch, each
	// measured against the optimum of the topology in force during it.
	// Static runs have a single epoch; dynamic runs (scenario events) get
	// one per LinkDown/LinkUp/SetRate boundary. Summary.Gap is computed
	// against the time-weighted optimum across these epochs, and
	// Summary.Converged/ConvergedAt against the final epoch's band (the
	// topology actually in force at the end of the run).
	Epochs []EpochReport
	// Events echoes the scenario's dynamic events in firing order (empty
	// for static runs).
	Events []ScenarioEvent
	// Summary holds convergence/stability metrics.
	Summary stats.Summary
	// Subflows reports per-subflow transport counters, in subflow order.
	Subflows []SubflowReport
	// Drops counts dropped packets per link.
	Drops map[string]uint64
	// Utilisation is the busy fraction of each link that carried at least
	// 5% load — the paper's bottleneck-saturation picture.
	Utilisation map[string]float64
	// Packets is the number of data packets captured at the receiver.
	Packets uint64
	// DeliveredBytes is connection-level in-order goodput;
	// DuplicateBytes counts data-level duplicates (redundant scheduler).
	DeliveredBytes, DuplicateBytes uint64
	// LoopEvents is the number of simulation events the run executed. It
	// counts engine work, not simulated behaviour, so Hash leaves it out (an
	// engine needing fewer events for the same run hashes the same); replay
	// checks compare it beside the hash: two runs of one engine agreeing on
	// every series but not on LoopEvents did not take the same path.
	LoopEvents uint64
	// Invariants lists the correctness invariants the run violated
	// (Options.ValidateInvariants); empty means every audited property
	// held. See Options.ValidateInvariants for the list.
	Invariants []string
	// Telemetry is the run's engine counters as a one-run rollup
	// (Options.Telemetry). Observation-only and excluded from Hash: a run
	// with telemetry enabled hashes identically to one without.
	Telemetry *telemetry.Rollup

	records []capture.Record
	flight  *telemetry.Recorder
}

// Hash returns a canonical SHA-256 fingerprint of the run: EngineHash's
// stream, then the references the packets are compared to (the LP optimum
// and its text, max-min, greedy, each epoch's optimum, gap and convergence
// verdict, and the summary). The same scenario and seed must reproduce it:
// the replay-determinism invariant cmd/simcheck asserts. Observation-only
// knobs (RetainPackets, ValidateInvariants, Telemetry, EventLimit), what
// they produce (Invariants, the Telemetry rollup) and LoopEvents, a count
// of engine work, are left out, so an instrumented run hashes like a plain one.
func (r *Result) Hash() string {
	e := &runEncoder{h: sha256.New()}
	e.writeEngine(r)
	e.writeReferences(r)
	return e.sum()
}

// EngineHash returns the SHA-256 of what the packets did, and nothing
// computed from the topology alone: the behaviour-defining options, every
// measured series, the subflow counters, per-link drops and utilisation,
// the receiver's packet and byte counts, the dynamic events, and each
// epoch's window and measured means. It is Hash without the references, so
// a change to a reference moves Hash but not EngineHash.
func (r *Result) EngineHash() string {
	e := &runEncoder{h: sha256.New()}
	e.writeEngine(r)
	return e.sum()
}

// runEncoder writes a Result into a SHA-256 stream in the one canonical
// encoding Hash and EngineHash share: integers as 8 little-endian bytes,
// floats by their bits, strings, slices and maps behind their length.
type runEncoder struct {
	h   hash.Hash
	buf [8]byte
}

func (e *runEncoder) sum() string { return hex.EncodeToString(e.h.Sum(nil)) }

func (e *runEncoder) u64(v uint64) {
	binary.LittleEndian.PutUint64(e.buf[:], v)
	e.h.Write(e.buf[:])
}

func (e *runEncoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *runEncoder) str(s string) {
	e.u64(uint64(len(s)))
	io.WriteString(e.h, s)
}

func (e *runEncoder) boolean(b bool) {
	if b {
		e.u64(1)
	} else {
		e.u64(0)
	}
}

func (e *runEncoder) ints(x []int) {
	e.u64(uint64(len(x)))
	for _, v := range x {
		e.u64(uint64(v))
	}
}

func (e *runEncoder) floats(x []float64) {
	e.u64(uint64(len(x)))
	for _, v := range x {
		e.f64(v)
	}
}

// series writes no Start: a run's series all start at the run's start.
func (e *runEncoder) series(s Series) {
	e.str(s.Name)
	e.u64(uint64(s.Step))
	e.floats(s.Mbps)
}

func (e *runEncoder) alloc(a Allocation) {
	e.f64(a.Total)
	e.floats(a.PerPath)
}

// writeEngine writes what the packets did: the options they depend on, as
// Run resolved them (so a default and its name encode alike), the series, the subflow and link counters, the receiver's counts, the
// dynamic events and each epoch's window and measured means.
func (e *runEncoder) writeEngine(r *Result) {
	o := r.Options
	e.str(o.CC)
	e.str(o.Scheduler)
	e.u64(uint64(o.Duration))
	e.u64(uint64(o.SampleInterval))
	e.u64(uint64(o.Seed))
	e.ints(o.SubflowPaths)
	e.f64(o.QueueScale)
	e.boolean(o.DisableSACK)
	e.boolean(o.Timestamps)
	e.ints(o.CrossTCP)

	e.u64(uint64(len(r.Paths)))
	for _, s := range r.Paths {
		e.series(s)
	}
	e.u64(uint64(len(r.Cross)))
	for _, s := range r.Cross {
		e.series(s)
	}
	e.series(r.Total)

	e.u64(uint64(len(r.Subflows)))
	for _, sf := range r.Subflows {
		e.u64(uint64(sf.Path))
		e.str(sf.Label)
		e.u64(sf.SentSegments)
		e.u64(sf.SentBytes)
		e.u64(sf.Retransmits)
		e.u64(sf.RTOs)
		e.u64(sf.FastRecoveries)
		e.u64(uint64(sf.SRTT))
		e.u64(uint64(sf.FinalCwndBytes))
	}
	e.u64(uint64(len(r.Drops)))
	for _, name := range slices.Sorted(maps.Keys(r.Drops)) {
		e.str(name)
		e.u64(r.Drops[name])
	}
	e.u64(uint64(len(r.Utilisation)))
	for _, name := range slices.Sorted(maps.Keys(r.Utilisation)) {
		e.str(name)
		e.f64(r.Utilisation[name])
	}
	e.u64(r.Packets)
	e.u64(r.DeliveredBytes)
	e.u64(r.DuplicateBytes)

	e.u64(uint64(len(r.Events)))
	for _, ev := range r.Events {
		e.str(ev.String())
	}
	e.u64(uint64(len(r.Epochs)))
	for _, ep := range r.Epochs {
		e.u64(uint64(ep.Start))
		e.u64(uint64(ep.End))
		e.f64(ep.TotalMean)
		e.floats(ep.PathMeans)
	}
}

// writeReferences writes what the packets are compared to, and everything
// derived from it: the optimum, the LP text, max-min and greedy, each
// epoch's optimum, gap and convergence, and the summary. The epoch count
// is the engine stream's.
func (e *runEncoder) writeReferences(r *Result) {
	e.alloc(r.Optimum)
	e.str(r.Problem)
	e.floats(r.MaxMin)
	e.floats(r.Greedy)
	for _, ep := range r.Epochs {
		e.alloc(ep.Optimum)
		e.f64(ep.Gap)
		e.boolean(ep.Converged)
		e.u64(uint64(ep.ConvergedAt))
	}

	s := r.Summary
	e.str(s.Algorithm)
	e.f64(s.TotalMean)
	e.f64(s.Target)
	e.f64(s.Gap)
	e.boolean(s.Converged)
	e.u64(uint64(s.ConvergedAt))
	e.f64(s.PostCoV)
	e.floats(s.PathMeans)
	e.boolean(s.ReachedPareto)
	e.u64(uint64(s.ParetoAt))
}

// series lists the per-path series, then the total.
func (r *Result) series() []*trace.Series {
	series := make([]*trace.Series, 0, len(r.Paths)+1)
	for i := range r.Paths {
		series = append(series, &r.Paths[i])
	}
	return append(series, &r.Total)
}

// WriteCSV emits the per-path and total series as CSV.
func (r *Result) WriteCSV(w io.Writer) error {
	return trace.WriteCSV(w, r.series()...)
}

// Chart renders the run as an ASCII plot with the LP optimum as a
// reference line — the terminal version of Fig. 2.
func (r *Result) Chart(w io.Writer, title string) error {
	opts := trace.ChartOptions{
		Title:  title,
		HLines: []float64{r.Optimum.Total},
	}
	// Dynamic runs: mark every event and reference each distinct epoch
	// optimum (the static optimum is already drawn above).
	for _, e := range r.Events {
		opts.VLines = append(opts.VLines, millis(e.AtMs).Seconds())
	}
	seen := map[float64]bool{r.Optimum.Total: true}
	for _, ep := range r.Epochs {
		if !seen[ep.Optimum.Total] {
			seen[ep.Optimum.Total] = true
			opts.HLines = append(opts.HLines, ep.Optimum.Total)
		}
	}
	return trace.Chart(w, opts, r.series()...)
}

// WriteFlightRecorder dumps the flight recorder's retained event tail as
// NDJSON, oldest event first (requires Options.Telemetry). On a failed or
// invariant-violating run the tail names the links and packets involved
// in the failure — see the README's Observability section for the line
// schema.
func (r *Result) WriteFlightRecorder(w io.Writer) error {
	if r.flight == nil {
		return fmt.Errorf("mptcpsim: no flight recorder; set Options.Telemetry")
	}
	return r.flight.WriteNDJSON(w)
}

// FlightEvents returns the number of engine events the flight recorder
// retained (0 without Options.Telemetry).
func (r *Result) FlightEvents() int {
	if r.flight == nil {
		return 0
	}
	return r.flight.Len()
}

// WritePCAP exports the retained capture as a pcap file (requires
// Options.RetainPackets).
func (r *Result) WritePCAP(w io.Writer) error {
	if r.records == nil {
		return fmt.Errorf("mptcpsim: no packets retained; set Options.RetainPackets")
	}
	return capture.WritePCAP(w, r.records)
}

// Report renders a human-readable run summary.
func (r *Result) Report(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "algorithm:  %s (scheduler %s, seed %d)\n",
		r.Options.CC, r.Options.Scheduler, r.Options.Seed)
	fmt.Fprintf(&sb, "optimum:    %.1f Mbps at %s\n", r.Optimum.Total, fmtAlloc(r.Optimum.PerPath))
	fmt.Fprintf(&sb, "greedy:     %.1f Mbps at %s\n", total(r.Greedy), fmtAlloc(r.Greedy))
	fmt.Fprintf(&sb, "max-min:    %.1f Mbps at %s\n", total(r.MaxMin), fmtAlloc(r.MaxMin))
	fmt.Fprintf(&sb, "measured:   %.1f Mbps at %s (gap %.1f%%)\n",
		r.Summary.TotalMean, fmtAlloc(r.Summary.PathMeans), r.Summary.Gap*100)
	if r.Summary.ReachedPareto {
		fmt.Fprintf(&sb, "pareto:     greedy level (%.0f Mbps) reached at %.2fs\n",
			total(r.Greedy), r.Summary.ParetoAt.Seconds())
	}
	if r.Summary.Converged {
		fmt.Fprintf(&sb, "converged:  yes, at %.2fs (CoV after: %.3f)\n",
			r.Summary.ConvergedAt.Seconds(), r.Summary.PostCoV)
	} else {
		fmt.Fprintf(&sb, "converged:  no (CoV last half: %.3f)\n", r.Summary.PostCoV)
	}
	for _, e := range r.Events {
		fmt.Fprintf(&sb, "event:      %s\n", e)
	}
	if len(r.Epochs) > 1 {
		for i, ep := range r.Epochs {
			conv := ""
			if ep.Converged {
				conv = fmt.Sprintf(", converged at %.2fs", ep.ConvergedAt.Seconds())
			}
			fmt.Fprintf(&sb, "epoch %d:    [%.2fs, %.2fs) optimum %.1f at %s, measured %.1f (gap %.1f%%)%s\n",
				i+1, ep.Start.Seconds(), ep.End.Seconds(), ep.Optimum.Total,
				fmtAlloc(ep.Optimum.PerPath), ep.TotalMean, ep.Gap*100, conv)
		}
	}
	for _, sf := range r.Subflows {
		fmt.Fprintf(&sb, "subflow %-8s sent=%-6d rtx=%-5d rto=%-3d fastrec=%-3d srtt=%s\n",
			sf.Label+":", sf.SentSegments, sf.Retransmits, sf.RTOs, sf.FastRecoveries,
			sf.SRTT.Round(100*time.Microsecond))
	}
	if len(r.Drops) > 0 {
		keys := make([]string, 0, len(r.Drops))
		for k := range r.Drops {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&sb, "drops:     ")
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s=%d", k, r.Drops[k])
		}
		fmt.Fprintln(&sb)
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func fmtAlloc(x []float64) string {
	parts := make([]string, len(x))
	for i, v := range x {
		parts[i] = fmt.Sprintf("x%d=%.1f", i+1, v)
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

func total(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}
