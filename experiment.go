package mptcpsim

import (
	"fmt"
	"maps"
	"slices"
	"time"

	"mptcpsim/internal/capture"
	"mptcpsim/internal/cc"
	"mptcpsim/internal/lp"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/tcp"
	"mptcpsim/internal/telemetry"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/trace"
	"mptcpsim/internal/unit"
)

// What a run holds fixed: it counts as converged once its total has stayed
// within convergenceTol of the optimum for convergenceHold, and cross flows
// run crossCC.
const (
	convergenceTol  = 0.08
	convergenceHold = 500 * time.Millisecond
	crossCC         = "cubic"
)

// ResetBaselineCache drops the memoised LP and max-min baselines. The
// cache is keyed by topology (and, for dynamic runs, by capacity epoch) and
// LRU-bounded, so resetting is rarely necessary; it exists for embedders
// that want a cold start between batches.
func ResetBaselineCache() { lp.ResetBaselineCache() }

// RunPaper executes the paper's experiment on the Fig. 1a network with
// Path 2 as the default subflow (unless opts.SubflowPaths overrides it).
func RunPaper(opts Options) (*Result, error) {
	if len(opts.SubflowPaths) == 0 {
		opts.SubflowPaths = []int{2, 1, 3}
	}
	return Run(PaperNetwork(), opts)
}

// Run executes one experiment on the given network and returns the
// measured series, the analytic baselines and the run summary. Run never
// modifies nw: one Network may serve any number of runs, concurrent ones
// included, and every run finds it as the first one did.
func Run(nw *Network, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.checkBins(); err != nil {
		return nil, err
	}
	pre, err := prepare(nw, opts.Duration, opts.SampleInterval)
	if err != nil {
		return nil, err
	}
	return pre.simulate(opts)
}

// prepared is the half of a run that depends only on the network and on
// the run's duration and bin width: the optima its measurements are
// compared to. Nothing writes to it once built, so a sweep prepares each
// grid cell once for all of the cell's runs.
type prepared struct {
	nw *Network
	// The baselines of the topology as declared, the run's capacity epochs,
	// and the optimum the gap is measured against.
	base   *lp.Baselines
	epochs []epoch
	target float64
}

// epoch is one capacity epoch of a run: its window [Start, End), the rate
// in Mbps of every directed link inside it (indexed by topo.LinkID; 0 =
// down) and the LP optimum of those rates. The epochs tile [0, duration);
// a static run has exactly one.
type epoch struct {
	Start, End time.Duration
	Mbps       []float64
	Optimum    lp.Solution
}

// prepare fetches the analytic baselines of a run of nw, memoised
// process-wide per capacity structure (the solves depend on nothing else),
// and builds the run's epoch table.
func prepare(nw *Network, duration, bin time.Duration) (*prepared, error) {
	g := nw.graph
	base, err := lp.CachedBaselines(g, nw.paths)
	if err != nil {
		return nil, fmt.Errorf("mptcpsim: LP: %w", err)
	}
	// Piecewise optima: one LP per capacity epoch, and no fairness
	// references, which nothing reads for an epoch. An epoch no capacity
	// event has touched yet (a static network's only one) has base's optimum.
	starts := nw.tl.EpochStarts(duration)
	epochs := make([]epoch, len(starts))
	for i, st := range starts {
		ep := epoch{Start: st, End: duration, Mbps: make([]float64, g.NumLinks()), Optimum: base.Solution}
		if i+1 < len(starts) {
			ep.End = starts[i+1]
		}
		for _, l := range g.Links() {
			ep.Mbps[l.ID] = l.Rate.Mbit()
		}
		if caps := nw.tl.CapsAt(st, g); caps != nil {
			for id, m := range caps {
				ep.Mbps[id] = m
			}
			ep.Optimum, err = lp.CachedOptimumCaps(g, nw.paths, caps)
			if err != nil {
				return nil, fmt.Errorf("mptcpsim: epoch LP at %v: %w", st, err)
			}
		}
		epochs[i] = ep
	}
	// The optimality target: the epoch optimum, time-weighted over the
	// measurement window (the run minus the slow-start transient). For a
	// single epoch this is that epoch's optimum, bit for bit. The window
	// is the binned one the measured mean actually covers — whole capture
	// bins from the (bin-aligned) end of the transient to the last full
	// bin — so measured and target integrate over the same interval and
	// the gap invariant (measured ≤ target + drain) is meaningful.
	target := epochs[0].Optimum.Objective
	if len(epochs) > 1 {
		measureFrom, horizon := stats.MeasureWindow(duration, bin)
		var acc float64
		for _, ep := range epochs {
			st, en := max(ep.Start, measureFrom), min(ep.End, horizon)
			if st < en {
				acc += float64(ep.Optimum.Objective * float64(en-st))
			}
		}
		if horizon > measureFrom {
			target = acc / float64(horizon-measureFrom)
		}
	}
	return &prepared{nw, base, epochs, target}, nil
}

// subflowOrder resolves a run's subflow order over n paths: order itself,
// or every path in definition order when it is empty. Run and Grid.Expand
// both resolve orders here, so a grid rejects exactly the orders its runs
// would fail on.
func subflowOrder(order []int, n int) ([]int, error) {
	if len(order) == 0 {
		order = make([]int, n)
		for i := range order {
			order[i] = i + 1
		}
		return order, nil
	}
	seen := make([]bool, n+1)
	for _, p := range order {
		if p < 1 || p > n {
			return nil, fmt.Errorf("mptcpsim: order %s references path %d of %d", orderString(order), p, n)
		}
		// A repeated path would open two subflows with the same tag and
		// corrupt the greedy baseline.
		if seen[p] {
			return nil, fmt.Errorf("mptcpsim: order %s lists path %d twice", orderString(order), p)
		}
		seen[p] = true
	}
	return order, nil
}

// simulate is the other half: the packet simulation of one option set
// (defaults filled; the duration and bin width pre was prepared for). The
// baselines in the Result are copies the caller owns.
func (pre *prepared) simulate(opts Options) (*Result, error) {
	return pre.simulateFused(opts, (*netem.Network).Fuse)
}

// simulateFused is simulate with the call that fuses the run's single-feeder
// hops (netem.Network.Fuse) as a parameter. It is a test seam: a test runs
// the same options with every hop an event (a fuse that does nothing),
// counts the links Fuse chose, or attaches a tap once the routes are in and
// before any packet.
func (pre *prepared) simulateFused(opts Options, fuse func(*netem.Network, sim.Time, []topo.LinkID) int) (*Result, error) {
	nw, tl, g, base := pre.nw, pre.nw.tl, pre.nw.graph, pre.base
	order, err := subflowOrder(opts.SubflowPaths, nw.NumPaths())
	if err != nil {
		return nil, err
	}
	zeroBased := make([]int, len(order))
	for i, p := range order {
		zeroBased[i] = p - 1
	}
	res := &Result{
		Optimum: Allocation{PerPath: slices.Clone(base.Solution.X), Total: base.Solution.Objective},
		Problem: base.ProblemString,
		MaxMin:  slices.Clone(base.MaxMin),
		Greedy:  lp.GreedySequential(g, nw.paths, zeroBased),
	}

	// Engine.
	loop := sim.NewLoop()
	if opts.EventLimit > 0 {
		loop.SetEventLimit(opts.EventLimit)
	}
	rng := sim.NewRand(opts.Seed)
	table := route.NewTagTable(g)
	net, err := netem.New(loop, g, table)
	if err != nil {
		return nil, err
	}
	// Queues scale on the run's own links, from the capacity netem gave each.
	if opts.QueueScale != 1 {
		for _, l := range net.Links() {
			l.SetQueueCap(max(unit.ByteSize(float64(l.QueueCap())*opts.QueueScale), 2*1500))
		}
	}
	// The invariant oracle attaches first so it observes every packet of
	// the run. It only watches tap points — it schedules nothing and
	// consumes no randomness — so a validated run stays bit-identical to
	// an unvalidated one.
	var orc *oracle
	if opts.ValidateInvariants {
		orc = newOracle(net, pre.epochs)
	}
	// The flight recorder is another pure observer: a preallocated ring of
	// the last engine events, dumped when the run fails. Attaching it
	// changes no scheduling and consumes no randomness.
	if opts.Telemetry {
		res.flight = telemetry.NewRecorder(telemetry.DefaultRingSize)
		res.flight.Attach(net)
	}
	// Sorted iteration: ranging over the map directly would hand out
	// rng.Fork() streams in random order, making runs with several lossy
	// links irreproducible.
	for _, lid := range slices.Sorted(maps.Keys(nw.loss)) {
		net.Link(lid).SetLoss(nw.loss[lid], rng.Fork())
	}

	// Per-run micro-jitter: real testbeds never repeat exactly (interrupt
	// timing, scheduler noise), and the paper's run-to-run differences
	// ("OLIA reached the optimum in many measurements") depend on it. A
	// seeded sub-RTT perturbation of link latencies reproduces that
	// variability deterministically per seed.
	jr := rng.Fork()
	for _, l := range net.Links() {
		l.Spec.Delay += time.Duration(jr.Int63n(int64(80 * time.Microsecond)))
	}

	sender := tcp.NewHost(net, nw.src, rng.Fork())
	receiver := tcp.NewHost(net, nw.dst, rng.Fork())

	// install pins a tag to path p towards the receiver and to p's reverse
	// towards the sender.
	install := func(tag packet.Tag, p topo.Path) error {
		if err := table.AddPath(receiver.Addr, tag, p); err != nil {
			return err
		}
		rev, err := topo.ReversePath(g, p)
		if err != nil {
			return err
		}
		return table.AddPath(sender.Addr, tag, rev)
	}
	for i, p := range nw.paths {
		if err := install(packet.Tag(i+1), p); err != nil {
			return nil, err
		}
	}
	// Competing single-path TCP flows (fairness experiments). Each gets a
	// private tag aliased to its path so the capture can separate it from
	// the MPTCP subflows.
	const crossTagBase = 100
	for i, pnum := range opts.CrossTCP {
		if pnum < 1 || pnum > nw.NumPaths() {
			return nil, fmt.Errorf("mptcpsim: CrossTCP references path %d of %d", pnum, nw.NumPaths())
		}
		if err := install(packet.Tag(crossTagBase+i), nw.paths[pnum-1]); err != nil {
			return nil, err
		}
	}
	// Every route is in and nothing has been sent: single-feeder links are
	// admitted by their feeders up to the run's last instant, except the
	// links the timeline mutates.
	fuse(net, sim.Time(opts.Duration), tl.Mutated())

	// Receiver side: MPTCP acceptor plus the tshark-style capture.
	acc := &mptcp.Acceptor{}
	if err := mptcp.Listen(receiver, ServerPort, tcp.Config{
		DisableSACK: opts.DisableSACK,
		Timestamps:  opts.Timestamps,
	}, acc); err != nil {
		return nil, err
	}
	sniff := capture.NewSniffer(net, nw.dst, opts.SampleInterval)
	sniff.Retain = opts.RetainPackets

	if len(opts.CrossTCP) > 0 {
		if err := receiver.Listen(ServerPort+1, &tcp.Listener{
			ConfigFor: func([]packet.Option, packet.Endpoint) tcp.Config {
				return tcp.Config{Sink: &tcp.CountSink{}, DisableSACK: opts.DisableSACK}
			},
		}); err != nil {
			return nil, err
		}
		for i := range opts.CrossTCP {
			algo, err := cc.New(crossCC)
			if err != nil {
				return nil, err
			}
			if _, err := sender.Dial(tcp.Config{
				Tag:         packet.Tag(crossTagBase + i),
				CC:          algo,
				Source:      tcp.BulkSource{},
				DisableSACK: opts.DisableSACK,
				FlowID:      fmt.Sprintf("tcp-%d", i+1),
			}, receiver.Addr, ServerPort+1); err != nil {
				return nil, err
			}
		}
	}

	// Sender side: one subflow per requested path, in priority order.
	specs := make([]mptcp.SubflowSpec, len(order))
	for i, pnum := range order {
		delay := time.Duration(i) * time.Millisecond
		if i > 0 {
			// Additional subflows join with a little scheduling noise, like
			// a path manager racing the first handshake.
			delay += time.Duration(jr.Int63n(int64(2 * time.Millisecond)))
		}
		specs[i] = mptcp.SubflowSpec{
			Tag:        packet.Tag(pnum),
			Label:      nw.pathNames[pnum-1],
			StartDelay: delay,
		}
	}
	conn, err := mptcp.Dial(sender, rng.Fork(), mptcp.Config{
		Algorithm: opts.CC,
		Scheduler: opts.Scheduler,
		Subflows:  specs,
		TCP: tcp.Config{
			DisableSACK: opts.DisableSACK,
			Timestamps:  opts.Timestamps,
		},
	}, receiver.Addr, ServerPort)
	if err != nil {
		return nil, err
	}

	// Install the event timeline last: its RNG fork comes after every
	// static component's, so static runs consume exactly the streams they
	// always did and stay bit-identical.
	if tl.Len() > 0 {
		evRng := rng.Fork()
		tl.Schedule(loop, net, evRng.Fork)
	}

	if err := loop.RunUntil(sim.Time(opts.Duration)); err != nil {
		// A mid-run abort (event limit) still returns the partial result
		// alongside the error when telemetry is on, so callers can dump
		// the flight-recorder tail that led up to the failure.
		if res.flight != nil {
			return res, err
		}
		return nil, err
	}
	res.LoopEvents = loop.Processed()

	// Collect per-path series in path order (not subflow order).
	pathSeries := make([]*trace.Series, nw.NumPaths())
	for i := range nw.paths {
		pathSeries[i] = sniff.Series(packet.Tag(i+1), nw.pathNames[i], opts.Duration)
	}
	total, err := trace.Sum("Total", pathSeries...)
	if err != nil {
		return nil, err
	}
	greedyTotal := 0.0
	for _, v := range res.Greedy {
		greedyTotal += v
	}
	res.Summary = stats.Summarize(opts.CC, total, pathSeries,
		pre.target, greedyTotal, convergenceTol, convergenceHold)

	// Per-epoch reports: the measured performance of each capacity epoch
	// against the optimum that was actually in force.
	res.Epochs = make([]EpochReport, len(pre.epochs))
	for i, ep := range pre.epochs {
		es := stats.SummarizeEpoch(total, pathSeries, ep.Start, ep.End,
			ep.Optimum.Objective, convergenceTol, convergenceHold)
		res.Epochs[i] = EpochReport{
			Start: ep.Start,
			End:   ep.End,
			Optimum: Allocation{
				PerPath: slices.Clone(ep.Optimum.X),
				Total:   ep.Optimum.Objective,
			},
			TotalMean:   es.TotalMean,
			Gap:         es.Gap,
			PathMeans:   es.PathMeans,
			Converged:   es.Converged,
			ConvergedAt: es.ConvergedAt,
		}
	}
	// For dynamic runs the time-weighted target is right for the gap but
	// meaningless as a convergence band (no real epoch has it, so a
	// pre-outage plateau could sit in it forever). Convergence of a
	// dynamic run means settling into the band of the topology that is
	// actually in force at the end: the final epoch's.
	if len(res.Epochs) > 1 {
		last := res.Epochs[len(res.Epochs)-1]
		res.Summary.Converged = last.Converged
		res.Summary.ConvergedAt = last.ConvergedAt
	}
	res.Events = slices.Clone(nw.events)
	for i, pnum := range opts.CrossTCP {
		s := sniff.Series(packet.Tag(crossTagBase+i),
			fmt.Sprintf("TCP on %s", nw.pathNames[pnum-1]), opts.Duration)
		res.Cross = append(res.Cross, *s)
	}
	res.Paths = make([]Series, len(pathSeries))
	for i, s := range pathSeries {
		res.Paths[i] = *s
	}
	res.Total = *total
	res.Options = opts

	// Subflow and link accounting.
	for _, sf := range conn.Subflows() {
		r := SubflowReport{Path: int(sf.Spec.Tag), Label: sf.Spec.Label}
		if sf.TCP != nil {
			st := sf.TCP.Stats
			r.SentSegments = st.SentSegments
			r.SentBytes = st.SentBytes
			r.Retransmits = st.Retransmits
			r.RTOs = st.RTOs
			r.FastRecoveries = st.FastRecovery
			r.SRTT = sf.TCP.SRTT()
			r.FinalCwndBytes = int(sf.TCP.CwndBytes())
		}
		res.Subflows = append(res.Subflows, r)
	}
	res.Drops = make(map[string]uint64)
	res.Utilisation = make(map[string]float64)
	for _, l := range net.Links() {
		l.Settle()
		if d := l.Counters.DropTotal(); d > 0 {
			res.Drops[l.Name()] += d
		}
		if u := l.Utilisation(); u >= 0.05 {
			res.Utilisation[l.Name()] = u
		}
	}
	res.Packets = sniff.Packets()
	for _, rc := range acc.Conns() {
		res.DeliveredBytes += rc.Delivered
		res.DuplicateBytes += rc.DupBytes
	}
	if opts.RetainPackets {
		res.records = sniff.Records()
	}
	if opts.Telemetry {
		c := loop.Counters()
		roll := &telemetry.Rollup{Runs: 1, EventsScheduled: c.Scheduled, EventsFired: c.Fired,
			Recycled: c.Recycled, HeapPeak: c.HeapPeak}
		for _, l := range net.Links() {
			roll.TxPackets += l.Counters.TxPackets
			roll.TxBytes += l.Counters.TxBytes
			roll.Offered += l.Counters.Offered
			roll.Drops += l.Counters.DropTotal()
		}
		for _, sf := range conn.Subflows() {
			roll.SchedPicks += sf.Picks
			if sf.TCP != nil {
				roll.RTOs += sf.TCP.Stats.RTOs
				roll.FastRecoveries += sf.TCP.Stats.FastRecovery
				roll.Retransmits += sf.TCP.Stats.Retransmits
			}
		}
		res.Telemetry = roll
	}
	if orc != nil {
		v := orc.violations()
		v = append(v, gapInvariants(res, drainSlackBytes(net))...)
		v = append(v, dataInvariants(conn, acc)...)
		res.Invariants = v
	}
	// res holds copies only: hand the storage the traffic grew to the next run.
	net.Release()
	sender.Release()
	receiver.Release()
	acc.Release()
	rng.Release()
	loop.Release()
	return res, nil
}
