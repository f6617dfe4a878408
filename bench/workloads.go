package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"mptcpsim"
	"mptcpsim/internal/fleet"
	"mptcpsim/internal/telemetry"
)

//go:embed scenarios/wide8.json
var wide8JSON []byte

var allCCs = []string{"cubic", "reno", "lia", "olia", "balia", "wvegas"}

// style is how a workload drives its grid through the program.
type style int

const (
	// styleCount streams the grid into the counting sink: nothing but the
	// packet engine and the per-run set-up is on the clock.
	styleCount style = iota
	// styleShards runs the grid the way `sweep -stream -shard k/2` plus
	// `sweep -merge` does: two shard streams into fsynced run-logs, then
	// read-back, merge and all four writers.
	styleShards
)

// shardCount is the number of shard streams of a styleShards pass;
// fleetShards is the number of leases of a fleet pass.
const (
	shardCount  = 2
	fleetShards = 8
)

// workload is one set of inputs the benchmark runs. Every grid is a pure
// function of the seed (see seedAxis).
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	why   string
	style style
	grid  func(seed int64, sz size) (*mptcpsim.Grid, error)
}

// size scales a workload's grid. The timed passes run sizeFull; the
// discarded warm-up pass of set-up runs sizeWarm, enough to touch every
// code path, grow the heap and arenas, and take long enough that set-up
// time is measurable; -quick runs everything at sizeQuick.
type size int

const (
	sizeFull size = iota
	sizeWarm
	sizeQuick
)

// ms scales a simulated duration (or an event time that must stay inside
// it): the full duration, a fifth of it, a twentieth.
func (sz size) ms(full float64) float64 {
	return full / [...]float64{1, 5, 20}[sz]
}

// pick returns the axis length for the size.
func (sz size) pick(full, warm, quick int) int {
	return [...]int{full, warm, quick}[sz]
}

// engine reports whether the packet engine dominates the workload, which
// is where the invariant oracle pass applies.
func (w *workload) engine() bool { return w.style == styleCount }

var workloads = []*workload{
	{
		name:  "paper_bulk",
		why:   "long clean bulk transfers on the Fig. 1a network: sim/netem/route/tcp/mptcp/cc do >95% of the work, ~220 pending events, timers re-armed but almost never fired",
		style: styleCount,
		grid:  paperBulkGrid,
	},
	{
		name:  "wide_overlap",
		why:   "8 paths over one shared 480 Mbps core link: same engine layers at a ~20x larger pending set, eight tags alternating at every shared node",
		style: styleCount,
		grid:  wideOverlapGrid,
	},
	{
		name:  "lossy_dynamic",
		why:   "loss, shallow queues and a link-flap timeline: RTOs fire, SACK recovery, reinjection, link mutators and per-epoch LPs run, redundant scheduling duplicates data",
		style: styleCount,
		grid:  lossyDynamicGrid,
	},
	{
		name:  "screen_stream",
		why:   "thousands of 50 ms runs over 192 cold LP problems through shard run-logs, merge and all writers: expand/build/LP/set-up/encode/fsync/merge are at least half the CPU",
		style: styleShards,
		grid:  screenGrid,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// seedAxis returns the n grid seeds of workload seed s: distinct positive
// 31-bit values scattered by a splitmix64 step. They are deliberately not
// s, s+1, ...: the program seeds math/rand, whose streams for neighbouring
// small seeds are correlated, and simulated behaviour (and with it host
// cost per simulated second) then drifts steadily with the seed value
// instead of sampling it.
func seedAxis(s int64, n int) []int64 {
	out := make([]int64, 0, n)
	seen := map[int64]bool{}
	for x := uint64(s) << 20; len(out) < n; x++ {
		z := (x + 0x9e3779b97f4a7c15)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		v := int64((z^(z>>31))>>33) | 1
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func paperBulkGrid(seed int64, sz size) (*mptcpsim.Grid, error) {
	return &mptcpsim.Grid{
		CCs:        allCCs,
		Orders:     [][]int{{2, 1, 3}, {1, 2, 3}},
		Seeds:      seedAxis(seed, sz.pick(5, 2, 1)),
		DurationMs: sz.ms(4000),
	}, nil
}

func wideOverlapGrid(seed int64, sz size) (*mptcpsim.Grid, error) {
	sf, err := mptcpsim.LoadScenario(bytes.NewReader(wide8JSON))
	if err != nil {
		return nil, fmt.Errorf("scenarios/wide8.json: %w", err)
	}
	return &mptcpsim.Grid{
		Scenarios: []mptcpsim.GridScenario{{Name: "wide8", Scenario: sf}},
		CCs:       []string{"cubic", "olia", "balia"},
		Seeds:     seedAxis(seed, sz.pick(7, 2, 1)),
		// A fifth of a second is barely a handshake over this 50 ms RTT, so
		// the warm-up size runs half the duration instead.
		DurationMs: float64(sz.pick(1000, 500, 50)),
	}, nil
}

func lossyDynamicGrid(seed int64, sz size) (*mptcpsim.Grid, error) {
	return &mptcpsim.Grid{
		CCs: allCCs,
		// Not roundrobin too: under bulk data a scheduler changes which
		// bytes a segment carries, never when segments are sent, so each
		// extra scheduler repeats the same packet dynamics. redundant earns
		// its place by the duplicate-data path; the time roundrobin would
		// take buys more seeds instead.
		Schedulers: []string{"minrtt", "redundant"},
		Perturbations: []mptcpsim.Perturbation{
			{Name: "loss", Loss: 0.005},
			{Name: "shallow", QueueScale: 0.25, DelayScale: 3},
		},
		Events: []mptcpsim.EventSet{{Name: "flap", Events: []mptcpsim.ScenarioEvent{
			{AtMs: sz.ms(1000), Type: mptcpsim.EventLinkDown, A: "s", B: "v1"},
			{AtMs: sz.ms(1750), Type: mptcpsim.EventLinkUp, A: "s", B: "v1"},
			{AtMs: sz.ms(2500), Type: mptcpsim.EventSetRate, A: "v3", B: "v4", Mbps: 20},
			{AtMs: sz.ms(3500), Type: mptcpsim.EventLossBurst, A: "s", B: "v2", Loss: 0.3, DurationMs: sz.ms(100)},
		}}},
		Seeds:      seedAxis(seed, sz.pick(14, 6, 1)),
		DurationMs: sz.ms(5000),
	}, nil
}

// screenGrid is screen_stream's screening sweep: every perturbation retunes v3-v4, and the dynamic event set
// renegotiates v2-v3 mid-run, so each (perturbation, event set) pair is a
// distinct LP problem.
func screenGrid(seed int64, sz size) (*mptcpsim.Grid, error) {
	perts := make([]mptcpsim.Perturbation, sz.pick(96, 16, 4))
	for i := range perts {
		mbps := 20 + float64(i)/2
		perts[i] = mptcpsim.Perturbation{
			Name:  fmt.Sprintf("r%04.1f", mbps),
			Links: []mptcpsim.LinkPerturbation{{A: "v3", B: "v4", Mbps: mbps}},
		}
	}
	return &mptcpsim.Grid{
		CCs:           allCCs,
		Schedulers:    []string{"minrtt", "roundrobin"},
		Perturbations: perts,
		Events: []mptcpsim.EventSet{
			{Name: "static"},
			{Name: "renegotiate", Events: []mptcpsim.ScenarioEvent{
				{AtMs: sz.ms(25), Type: mptcpsim.EventSetRate, A: "v2", B: "v3", Mbps: 40},
			}},
		},
		Seeds:      seedAxis(seed, 1),
		DurationMs: sz.ms(50),
	}, nil
}

// countSink is the benchmark's own results sink: it keeps each run's
// canonical hash by grid index plus the tallies the metrics need, and
// nothing else of the Result.
//
// Runs arrive in completion order, which is index order only within one
// stream: shard streams and fleet leases each bring their own slice of the
// grid. Integer tallies do not care; the two float statistics do (float
// addition is not associative), so they are kept per run index and summed
// in index order when read.
type countSink struct {
	hashes []string  // by run index; "" = failed or never delivered
	gaps   []float64 // RunSummary.Gap by run index
	mbps   []float64 // RunSummary.TotalMbps by run index
	errs   []string  // first few run errors, for the diagnostic
	sim    time.Duration
	events uint64
	ok     int

	delivered, dup    uint64
	sentSegs, retrans uint64
	arrivals          []time.Time

	// ref, when set, is ticked after every run.
	ref *refMeter
}

func newCountSink(total int) *countSink {
	return &countSink{
		hashes: make([]string, total), gaps: make([]float64, total), mbps: make([]float64, total),
		arrivals: make([]time.Time, 0, total),
	}
}

func (c *countSink) Accept(done, total int, s mptcpsim.RunSummary, full *mptcpsim.Result) error {
	hash := ""
	if s.Err == "" && full != nil {
		hash = full.Hash()
	}
	c.record(s, full, hash)
	if c.ref != nil {
		c.ref.tick()
	}
	return nil
}

// record tallies one delivered run whose hash the caller already computed.
func (c *countSink) record(s mptcpsim.RunSummary, full *mptcpsim.Result, hash string) {
	c.arrivals = append(c.arrivals, time.Now())
	if s.Err != "" || full == nil {
		if len(c.errs) < 3 {
			c.errs = append(c.errs, fmt.Sprintf("run %d: %s", s.Index, s.Err))
		}
		return
	}
	c.hashes[s.Index] = hash
	c.ok++
	c.sim += full.Options.Duration
	c.events += full.LoopEvents
	c.gaps[s.Index] = s.Gap
	c.mbps[s.Index] = s.TotalMbps
	c.delivered += full.DeliveredBytes
	c.dup += full.DuplicateBytes
	for _, sf := range full.Subflows {
		c.sentSegs += sf.SentSegments
		c.retrans += sf.Retransmits
	}
}

func (c *countSink) Flush() error { return nil }
func (c *countSink) Close() error { return nil }

// meanGap and meanMbps average over the completed runs, summing in index
// order (a failed run's slot stays 0).
func (c *countSink) meanGap() float64  { return c.meanOf(c.gaps) }
func (c *countSink) meanMbps() float64 { return c.meanOf(c.mbps) }

func (c *countSink) meanOf(byIndex []float64) float64 {
	if c.ok == 0 {
		return 0
	}
	var sum float64
	for _, v := range byIndex {
		sum += v
	}
	return sum / float64(c.ok)
}

// digest is the workload's results_digest: SHA-256 over every run's
// Result.Hash() in index order.
func (c *countSink) digest() string {
	h := sha256.New()
	for _, s := range c.hashes {
		io.WriteString(h, s)
		io.WriteString(h, "\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// outputs are the four serialisations of a merged sweep result: runs CSV,
// groups CSV, JSON, report.
type outputs [4][]byte

func render(sr *mptcpsim.SweepResult) (outputs, error) {
	var o outputs
	for i, write := range []func(io.Writer) error{sr.WriteCSV, sr.WriteGroupsCSV, sr.WriteJSON, sr.Report} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			return o, err
		}
		o[i] = buf.Bytes()
	}
	return o, nil
}

func (o outputs) equal(p outputs) bool {
	for i := range o {
		if !bytes.Equal(o[i], p[i]) {
			return false
		}
	}
	return true
}

// outcome is the result of one pass over a workload's grid.
type outcome struct {
	attempted int
	sink      *countSink
	// present marks the run indices found in the merged output (shard and
	// fleet styles); nil when the style merges nothing.
	present []bool
	out     outputs
	// problem is why the pass could not deliver a complete result ("" =
	// fine); the runs it cost are counted through present.
	problem string

	roll      *telemetry.Rollup
	fsyncs    int
	fsyncTime time.Duration
	leases    int
	leaseTime time.Duration
	spans     []span
}

// failed counts the runs that errored, were never delivered, or are
// missing from the merged output.
func (u *outcome) failed() int {
	n := 0
	for i, h := range u.sink.hashes {
		if h == "" || (u.present != nil && !u.present[i]) {
			n++
		}
	}
	return n
}

func (u *outcome) simSeconds() float64 { return u.sink.sim.Seconds() }

// env is what a pass needs from its surroundings.
type env struct {
	// dir is the scratch directory run-logs and spools are created under.
	dir string
	// full is the size of the timed passes: sizeFull, or sizeQuick under
	// -quick.
	full size
	// afterLogs, when set, runs between the shard streams and the
	// read-back — the seam the smoke test corrupts a run-log through.
	afterLogs func(paths []string)
	// ref, when set, gets a slice of the reference kernel between the runs
	// of a pass.
	ref *refMeter
}

// passOpts selects the observation-only extras of a counting pass.
// Neither may change a run's hash.
type passOpts struct {
	telemetry  bool
	invariants bool
	ref        *refMeter
}

// runPass executes the workload's grid once, in the workload's style.
func runPass(e *env, w *workload, g *mptcpsim.Grid) (*outcome, error) {
	if w.style == styleShards {
		return shardPass(e, w, g)
	}
	return countPass(w, g, passOpts{ref: e.ref})
}

// countPass streams the whole grid into the counting sink.
func countPass(w *workload, g *mptcpsim.Grid, opt passOpts) (*outcome, error) {
	sw := &mptcpsim.Sweep{Workers: 1, Telemetry: opt.telemetry, ValidateInvariants: opt.invariants}
	_, total, err := sw.Describe(g)
	if err != nil {
		return nil, err
	}
	u := &outcome{attempted: total, sink: newCountSink(total)}
	u.sink.ref = opt.ref
	sink := mptcpsim.RunSink(u.sink)
	if opt.telemetry {
		roll := &mptcpsim.RollupSink{}
		u.roll = &roll.Rollup
		sink = mptcpsim.MultiSink(u.sink, roll)
	}
	if err := sw.Stream(g, mptcpsim.StreamSpec{}, sink); err != nil {
		return nil, err
	}
	return u, nil
}

// referencePass is the in-memory sweep of the same grid the stream styles
// are compared against byte for byte; it also carries the telemetry
// rollup, which a run-log does not.
func referencePass(w *workload, g *mptcpsim.Grid) (*outcome, error) {
	sw := &mptcpsim.Sweep{Workers: 1, Telemetry: true}
	_, total, err := sw.Describe(g)
	if err != nil {
		return nil, err
	}
	u := &outcome{attempted: total, sink: newCountSink(total)}
	mem := &mptcpsim.MemorySink{}
	roll := &mptcpsim.RollupSink{}
	if err := sw.Stream(g, mptcpsim.StreamSpec{}, mptcpsim.MultiSink(mem, roll, u.sink)); err != nil {
		return nil, err
	}
	u.roll = &roll.Rollup
	u.out, err = render(mem.Result())
	return u, err
}

// timedSync wraps a file's Sync so the pass can report how many fsyncs the
// run-log cost and how long they took.
// parent points at the span the sync happens under (nil when untraced).
func (u *outcome) timedSync(f *os.File, tr *tracer, parent *int) func() error {
	return func() error {
		id := -1
		if parent != nil {
			id = tr.begin("fsync", *parent, -1)
		}
		t0 := time.Now()
		err := f.Sync()
		d := time.Since(t0)
		tr.end(id)
		u.fsyncs++
		u.fsyncTime += d
		return err
	}
}

// shardPass is `sweep -stream -shard k/2` twice, then `sweep -merge`.
func shardPass(e *env, w *workload, g *mptcpsim.Grid) (*outcome, error) {
	sw := &mptcpsim.Sweep{Workers: 1}
	digest, total, err := sw.Describe(g)
	if err != nil {
		return nil, err
	}
	u := &outcome{attempted: total, sink: newCountSink(total)}
	u.sink.ref = e.ref
	dir, err := os.MkdirTemp(e.dir, "logs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	paths := make([]string, shardCount)
	for k := range paths {
		paths[k] = fleet.ShardLogPath(dir, k, shardCount)
		if err := streamShard(u, sw, g, paths[k], digest, total, k); err != nil {
			return nil, err
		}
	}
	if e.afterLogs != nil {
		e.afterLogs(paths)
	}
	return u, mergeLogs(u, paths, nil)
}

func streamShard(u *outcome, sw *mptcpsim.Sweep, g *mptcpsim.Grid, path, digest string, total, k int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	header := mptcpsim.RunLogHeader{GridDigest: digest, K: k, N: shardCount, Total: total}
	ls, err := mptcpsim.NewLogSink(f, header, mptcpsim.LogOptions{Sync: u.timedSync(f, nil, nil)})
	if err != nil {
		return err
	}
	spec := mptcpsim.StreamSpec{Shard: mptcpsim.Shard{K: k, N: shardCount}}
	if err := sw.Stream(g, spec, mptcpsim.MultiSink(ls, u.sink)); err != nil {
		return err
	}
	return f.Close()
}

// mergeLogs reads the shard run-logs back, merges them and renders all
// four outputs. A log that cannot be read or merged is an output-check
// failure, not an abort: the runs it held count as failed.
func mergeLogs(u *outcome, paths []string, tr *tracer) error {
	u.present = make([]bool, u.attempted)
	var shards []*mptcpsim.ShardResult
	for _, path := range paths {
		id := tr.begin("readlog", tr.rootID(), -1)
		sr, err := readLog(path)
		tr.end(id)
		if err != nil {
			u.problem = fmt.Sprintf("%s: %v", filepath.Base(path), err)
			continue
		}
		shards = append(shards, sr)
	}
	if len(shards) != len(paths) {
		for _, sr := range shards {
			for _, r := range sr.Runs {
				if r.Index >= 0 && r.Index < len(u.present) {
					u.present[r.Index] = true
				}
			}
		}
		return nil
	}
	id := tr.begin("merge", tr.rootID(), -1)
	merged, err := mptcpsim.MergeShards(shards...)
	tr.end(id)
	if err != nil {
		u.problem = err.Error()
		return nil
	}
	return u.adopt(merged, tr)
}

// adopt records a merged sweep result: which indices it holds, and its
// four serialisations.
func (u *outcome) adopt(merged *mptcpsim.SweepResult, tr *tracer) error {
	if u.present == nil {
		u.present = make([]bool, u.attempted)
	}
	for _, r := range merged.Runs {
		if r.Index >= 0 && r.Index < len(u.present) {
			u.present[r.Index] = true
		}
	}
	id := tr.begin("report", tr.rootID(), -1)
	out, err := render(merged)
	tr.end(id)
	u.out = out
	return err
}

func readLog(path string) (*mptcpsim.ShardResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	log, err := mptcpsim.ReadRunLog(f)
	if err != nil {
		return nil, err
	}
	if log.Torn() {
		return nil, fmt.Errorf("run-log ends in a torn record at byte %d", log.TornTail)
	}
	return log.ShardResult(), nil
}

// leaseTimer is the fleet.Runner the benchmark hands the coordinator: it
// counts leases and the time spent inside them.
type leaseTimer struct {
	u      *outcome
	worker *fleet.Worker
}

func (l *leaseTimer) Run(ctx context.Context, lease fleet.Lease) error {
	t0 := time.Now()
	err := l.worker.Run(ctx, lease)
	l.u.leases++
	l.u.leaseTime += time.Since(t0)
	return err
}

// fleetPass runs the grid of a stream workload through fleet.Coordinator
// instead: fleetShards leases, one in-process worker at a time (as serial
// as the shard streams it is compared with), a real spool directory, no
// injected faults. The difference from shardPass is the lease table, spool
// tailing, per-lease re-expansion and log resume.
func fleetPass(e *env, w *workload, g *mptcpsim.Grid) (*outcome, error) {
	sw := &mptcpsim.Sweep{Workers: 1}
	_, total, err := sw.Describe(g)
	if err != nil {
		return nil, err
	}
	u := &outcome{attempted: total, sink: newCountSink(total)}
	spool, err := os.MkdirTemp(e.dir, "spool-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spool)
	worker := &fleet.Worker{Sweep: sw, Grid: g, Spool: spool,
		WrapSink: func(_ fleet.Lease, s mptcpsim.RunSink) mptcpsim.RunSink {
			return mptcpsim.MultiSink(s, u.sink)
		}}
	c := &fleet.Coordinator{
		Sweep: sw, Grid: g,
		Shards: fleetShards, Workers: 1,
		Spool: spool, Runner: &leaseTimer{u: u, worker: worker}, TTL: time.Minute,
	}
	merged, err := c.Run(context.Background())
	if err != nil {
		u.present = make([]bool, u.attempted)
		u.problem = err.Error()
		return u, nil
	}
	return u, u.adopt(merged, nil)
}
