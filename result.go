package mptcpsim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"mptcpsim/internal/capture"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/telemetry"
	"mptcpsim/internal/trace"
)

// Series is a throughput time series in Mbps with fixed-width bins.
type Series struct {
	// Name labels the series ("Path 1", "Total").
	Name string
	// Step is the bin width.
	Step time.Duration
	// Mbps holds one value per bin.
	Mbps []float64
}

// Mean returns the average over the bins in [from, to) (whole series when
// to <= from).
func (s Series) Mean(from, to time.Duration) float64 {
	m, _, _, _ := s.trace().Stats(from, to)
	return m
}

func (s Series) trace() *trace.Series {
	return &trace.Series{Name: s.Name, Step: s.Step, V: s.Mbps}
}

func fromTrace(t *trace.Series) Series {
	return Series{Name: t.Name, Step: t.Step, Mbps: t.V}
}

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
	// MaxMin, PropFair and Greedy are the analytic reference allocations.
	MaxMin, PropFair, Greedy []float64
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

// Hash returns a canonical SHA-256 fingerprint of everything the run
// measured: every series value bit-for-bit, the analytic baselines, the
// epoch reports, the summary and the per-subflow and per-link counters.
// Two runs of the same scenario with the same seed must produce identical
// hashes — the replay-determinism invariant cmd/simcheck asserts.
// Observation-only knobs (RetainPackets, ValidateInvariants and the
// Invariants list itself) and LoopEvents, a count of engine work, are
// excluded, so a validated run hashes identically to an unvalidated one.
func (r *Result) Hash() string {
	h := sha256.New()
	var buf [8]byte
	wU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wF64 := func(v float64) { wU64(math.Float64bits(v)) }
	wStr := func(s string) {
		wU64(uint64(len(s)))
		io.WriteString(h, s)
	}
	wBool := func(b bool) {
		if b {
			wU64(1)
		} else {
			wU64(0)
		}
	}
	wSeries := func(s Series) {
		wStr(s.Name)
		wU64(uint64(s.Step))
		wU64(uint64(len(s.Mbps)))
		for _, v := range s.Mbps {
			wF64(v)
		}
	}
	wAlloc := func(a Allocation) {
		wF64(a.Total)
		wU64(uint64(len(a.PerPath)))
		for _, v := range a.PerPath {
			wF64(v)
		}
	}
	wVec := func(x []float64) {
		wU64(uint64(len(x)))
		for _, v := range x {
			wF64(v)
		}
	}

	o := r.Options
	wStr(o.CC)
	wStr(o.Scheduler)
	wU64(uint64(o.Duration))
	wU64(uint64(o.SampleInterval))
	wU64(uint64(o.Seed))
	wU64(uint64(len(o.SubflowPaths)))
	for _, p := range o.SubflowPaths {
		wU64(uint64(p))
	}
	wU64(0) // the retired transfer size: every recorded run streamed
	wF64(o.QueueScale)
	wBool(o.DisableSACK)
	wBool(o.Timestamps)
	// Four options no caller ever set are constants now; the stream keeps
	// their places and the values they always held (delayed-ACK count 0,
	// the band, the hold, cross CC ""), so recorded hashes still compare.
	wU64(0)
	wF64(convergenceTol)
	wU64(uint64(convergenceHold))
	wU64(uint64(len(o.CrossTCP)))
	for _, p := range o.CrossTCP {
		wU64(uint64(p))
	}
	wStr("")

	wU64(uint64(len(r.Paths)))
	for _, s := range r.Paths {
		wSeries(s)
	}
	wU64(uint64(len(r.Cross)))
	for _, s := range r.Cross {
		wSeries(s)
	}
	wSeries(r.Total)
	wAlloc(r.Optimum)
	wStr(r.Problem)
	wVec(r.MaxMin)
	wVec(r.PropFair)
	wVec(r.Greedy)

	wU64(uint64(len(r.Epochs)))
	for _, ep := range r.Epochs {
		wU64(uint64(ep.Start))
		wU64(uint64(ep.End))
		wAlloc(ep.Optimum)
		wF64(ep.TotalMean)
		wF64(ep.Gap)
		wVec(ep.PathMeans)
		wBool(ep.Converged)
		wU64(uint64(ep.ConvergedAt))
	}
	wU64(uint64(len(r.Events)))
	for _, e := range r.Events {
		wStr(e.String())
	}

	s := r.Summary
	wStr(s.Algorithm)
	wF64(s.TotalMean)
	wF64(s.Target)
	wF64(s.Gap)
	wBool(s.Converged)
	wU64(uint64(s.ConvergedAt))
	wF64(s.PostCoV)
	wVec(s.PathMeans)
	wBool(s.ReachedPareto)
	wU64(uint64(s.ParetoAt))

	wU64(uint64(len(r.Subflows)))
	for _, sf := range r.Subflows {
		wU64(uint64(sf.Path))
		wStr(sf.Label)
		wU64(sf.SentSegments)
		wU64(sf.SentBytes)
		wU64(sf.Retransmits)
		wU64(sf.RTOs)
		wU64(sf.FastRecoveries)
		wU64(uint64(sf.SRTT))
		wU64(uint64(sf.FinalCwndBytes))
	}

	keys := make([]string, 0, len(r.Drops))
	for k := range r.Drops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wU64(uint64(len(keys)))
	for _, k := range keys {
		wStr(k)
		wU64(r.Drops[k])
	}
	keys = keys[:0]
	for k := range r.Utilisation {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	wU64(uint64(len(keys)))
	for _, k := range keys {
		wStr(k)
		wF64(r.Utilisation[k])
	}

	wU64(r.Packets)
	wU64(r.DeliveredBytes)
	wU64(r.DuplicateBytes)
	wU64(0) // and so never completed a sized transfer

	return fmt.Sprintf("%x", h.Sum(nil))
}

// WriteCSV emits the per-path and total series as CSV.
func (r *Result) WriteCSV(w io.Writer) error {
	series := make([]*trace.Series, 0, len(r.Paths)+1)
	for _, p := range r.Paths {
		series = append(series, p.trace())
	}
	series = append(series, r.Total.trace())
	return trace.WriteCSV(w, series...)
}

// Chart renders the run as an ASCII plot with the LP optimum as a
// reference line — the terminal version of Fig. 2.
func (r *Result) Chart(w io.Writer, title string) error {
	series := make([]*trace.Series, 0, len(r.Paths)+1)
	for _, p := range r.Paths {
		series = append(series, p.trace())
	}
	series = append(series, r.Total.trace())
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
	return trace.Chart(w, opts, series...)
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
		r.Options.CC, schedName(r.Options.Scheduler), r.Options.Seed)
	fmt.Fprintf(&sb, "optimum:    %.1f Mbps at %s\n", r.Optimum.Total, fmtAlloc(r.Optimum.PerPath))
	fmt.Fprintf(&sb, "greedy:     %.1f Mbps at %s\n", total(r.Greedy), fmtAlloc(r.Greedy))
	fmt.Fprintf(&sb, "max-min:    %.1f Mbps at %s\n", total(r.MaxMin), fmtAlloc(r.MaxMin))
	fmt.Fprintf(&sb, "prop-fair:  %.1f Mbps at %s\n", total(r.PropFair), fmtAlloc(r.PropFair))
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

func schedName(s string) string {
	if s == "" {
		return "minrtt"
	}
	return s
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
