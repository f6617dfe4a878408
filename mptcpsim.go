// Package mptcpsim reproduces "The Performance of Multi-Path TCP with
// Overlapping Paths" (Zongor, Heszberger, Pašić, Tapolcai; SIGCOMM Posters
// and Demos 2019) as a self-contained, deterministic packet-level
// simulation library.
//
// The paper pins an MPTCP connection onto three partially overlapping
// paths of a small network using packet tags, and asks whether the
// congestion-control algorithm can find the optimal total throughput —
// the solution of a linear program over the shared bottleneck capacities —
// rather than the suboptimal operating point greedy per-path filling
// reaches. This package rebuilds that entire experiment in Go: the
// discrete-event network, the tag-routed forwarding plane, a userspace TCP
// with SACK, the MPTCP layer with coupled congestion control (LIA, OLIA,
// BALIA) and uncoupled CUBIC/Reno, the tshark-style receiver capture at 10
// and 100 ms bins, and the LP, max-min and greedy-trap baselines.
//
// Quick start:
//
//	res, err := mptcpsim.RunPaper(mptcpsim.Options{CC: "cubic"})
//	if err != nil { ... }
//	fmt.Printf("total %.1f Mbps of optimum %.0f\n",
//		res.Summary.TotalMean, res.Optimum.Total)
//	res.Chart(os.Stdout, "Fig 2a")
//
// Custom topologies are described as a ScenarioFile — a Go literal or JSON
// on disk — built into a Network with ScenarioFile.Build (or LoadNetwork)
// and executed with Run. Everything is stdlib-only and runs in virtual
// time: a 4-second experiment takes milliseconds of wall clock.
//
// Batch experimentation is built in: a Grid declares the cross product of
// scenarios, link perturbations, congestion-control algorithms,
// schedulers, subflow orderings and seeds, and Sweep executes it across a
// worker pool — each run an independent virtual-time simulation — then
// aggregates per-run optimality gaps against the LP baseline into a
// SweepResult:
//
//	grid := &mptcpsim.Grid{CCs: []string{"cubic", "olia"},
//		Orders: [][]int{{2, 1, 3}, {1, 2, 3}}, Seeds: []int64{1, 2, 3}}
//	sr, err := (&mptcpsim.Sweep{}).Run(grid)
//	if err != nil { ... }
//	sr.Report(os.Stdout)
//
// Sweep output is deterministic for a given grid regardless of worker
// count.
package mptcpsim

import (
	"fmt"
	"time"
)

// Default experiment parameters, mirroring the paper's measurement setup.
const (
	// DefaultDuration matches Fig. 2a/2b (4 seconds of traffic).
	DefaultDuration = 4 * time.Second
	// DefaultSampleInterval matches the coarse tshark binning (100 ms);
	// Fig. 2c uses 10 ms.
	DefaultSampleInterval = 100 * time.Millisecond
	// ServerPort is the iperf-style destination port.
	ServerPort = 5001
)

// Options parameterises one experiment run. The zero value of every field
// selects a sensible default. What no run varies is not here: a run counts
// as converged once its total has stayed within 8 % of the LP optimum for
// 500 ms, cross flows run CUBIC, and TCP keeps the defaults of internal/tcp
// (initial window 10, an ACK every second segment or after 40 ms, RTO
// between 200 ms and 60 s).
type Options struct {
	// CC is the congestion-control algorithm, by its exact name: "cubic"
	// (paper default), "reno", "lia", "olia", "balia", "wvegas"
	// (delay-based coupled control).
	CC string
	// Scheduler is the MPTCP segment scheduler, by its exact name: "minrtt"
	// (default) or "redundant". "roundrobin" is an accepted alias of
	// "minrtt" that nothing shipped draws: it grants identically, so its
	// results are minrtt's.
	Scheduler string
	// Duration is the traffic duration (default 4 s).
	Duration time.Duration
	// SampleInterval is the capture bin width (default 100 ms). Every
	// series holds Duration/SampleInterval bins; a run asking for more
	// than 1<<20 of them is rejected. A bin wider than Duration is
	// accepted, but such a run has no full bin to measure: it reports
	// 0 Mbps and a 100 % gap.
	SampleInterval time.Duration
	// Seed drives all randomness; identical seeds reproduce identical
	// runs bit-for-bit.
	Seed int64
	// SubflowPaths lists path numbers (1-based, in the scenario's path
	// order) in subflow order; the first is the default path. Empty means
	// all paths in that order. RunPaper defaults to [2, 1, 3] — Path 2 is
	// the paper's default shortest path.
	SubflowPaths []int
	// QueueScale multiplies every link's buffer (1.0 default) — the
	// paper's shake-down depends on drop timing, so this is the main
	// ablation knob. The scale is applied to the run's own emulated links
	// (floor: two full-size packets), never to the Network.
	QueueScale float64
	// DisableSACK degrades loss recovery to classic NewReno.
	DisableSACK bool
	// Timestamps enables RFC 7323 TCP timestamps on all flows (one RTT
	// sample per ACK; SACK blocks yield option space to the timestamp).
	Timestamps bool
	// RetainPackets keeps every captured frame for pcap export (memory
	// heavy on long runs).
	RetainPackets bool
	// CrossTCP starts one competing single-path TCP bulk flow per listed
	// path number (1-based, in the scenario's path order), alongside the
	// MPTCP connection. Cross flows run CUBIC and report their rates in
	// Result.Cross — the setup of the RFC 6356 fairness question ("do no
	// harm to regular TCP on a shared link").
	CrossTCP []int
	// ValidateInvariants attaches the correctness oracle to the run:
	// packet conservation (per link, per flow, network-wide), per-epoch
	// link-capacity budgets, FIFO arrival order, MPTCP data conservation
	// and the optimality-gap sign are audited (check.go) and reported in
	// Result.Invariants. The oracle only observes — a validated run is
	// bit-identical to an unvalidated one — at a few percent of CPU
	// overhead.
	ValidateInvariants bool
	// EventLimit aborts the run with an error after this many simulation
	// events (0 = no limit). Randomized harnesses set it as a runaway
	// guard: a pathological scenario fails fast instead of spinning.
	EventLimit uint64
	// Telemetry rolls the run's engine counters (event-loop volume and
	// peak, link transmissions and drops, subflow recovery and scheduler
	// grants) up into Result.Telemetry and attaches a flight recorder
	// retaining the last engine events for Result.WriteFlightRecorder.
	// Like ValidateInvariants it is observation-only: a run with
	// telemetry hashes bit-identically to one without, and the telemetry
	// itself is excluded from Result.Hash. The json tag keeps it out of
	// the shard grid digest: a telemetry-enabled shard executes exactly
	// the runs of a plain one, so the two must keep merging.
	Telemetry bool `json:"-"`
}

// maxSeriesBins bounds the bins of one throughput series. The series are
// allocated up front, so an unchecked nanosecond bin width would ask for
// gigabytes; the paper's finest plot (4 s at 10 ms) has 400 bins.
const maxSeriesBins = 1 << 20

// checkBins rejects an over-fine bin width before anything is allocated.
// o must have its defaults filled.
func (o Options) checkBins() error {
	if bins := o.Duration / o.SampleInterval; bins > maxSeriesBins {
		return fmt.Errorf("mptcpsim: %v of traffic in %v bins is %d bins per series, over the bound of %d",
			o.Duration, o.SampleInterval, bins, maxSeriesBins)
	}
	return nil
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.CC == "" {
		o.CC = "cubic"
	}
	if o.Scheduler == "" {
		o.Scheduler = "minrtt"
	}
	if o.Duration <= 0 {
		o.Duration = DefaultDuration
	}
	if o.SampleInterval <= 0 {
		o.SampleInterval = DefaultSampleInterval
	}
	if o.QueueScale <= 0 {
		o.QueueScale = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}
