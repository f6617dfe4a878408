package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"mptcpsim"
	"mptcpsim/internal/cc"
	"mptcpsim/internal/lp"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/tcp"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// Layer micro-drivers: each times one layer from outside, through the
// layer's public API, at a fixed operation count. The count is sized so a
// driver's three attempts take about half a second together on the
// reference machine; a driver reports the best of the three, because the
// fastest attempt is the one the machine's other tenants disturbed least.
// Every traced run uses these counts, so every reported value is comparable
// with every other; only -quick shrinks them.

// layerDriver measures one host-time per-layer metric.
type layerDriver struct {
	// metric is the BENCHMARK.json name; per is the divisor of the
	// reported unit in nanoseconds (1 for ns, 1000 for µs).
	metric string
	per    float64
	// ops is the operation count of one attempt. For the tcp and mptcp
	// drivers it sets the simulated time instead, and the count of segments
	// sent in it is what the attempt reports.
	ops int
	// prepare builds the rig for an attempt of ops operations and returns
	// the function to time. That function returns how many operations it
	// really performed, for the drivers whose count is an outcome
	// (segments sent in a fixed simulated time).
	prepare func(ops int) (func() (int, error), error)
}

// layerResult is one driver's outcome.
type layerResult struct {
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Ops      int     `json:"ops"`
	AllocsOp float64 `json:"allocs_per_op"`
	// BestS is the wall time of the best attempt.
	BestS float64 `json:"best_s"`
}

const layerAttempts = 3

// quickDiv is what -quick divides every op count by.
const quickDiv = 64

func runLayers(quick bool) ([]layerResult, error) {
	out := make([]layerResult, 0, len(layerDrivers))
	for _, d := range layerDrivers {
		r, err := d.run(quick)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.metric, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func (d *layerDriver) run(quick bool) (layerResult, error) {
	ops := d.ops
	if quick {
		ops = max(ops/quickDiv, 16)
	}
	res := layerResult{Metric: d.metric, Unit: "ns"}
	if d.per == 1000 {
		res.Unit = "us"
	}
	for a := 0; a < layerAttempts; a++ {
		fn, err := d.prepare(ops)
		if err != nil {
			return res, err
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		done, err := fn()
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return res, err
		}
		if done <= 0 {
			return res, fmt.Errorf("driver performed no operations")
		}
		v := float64(wall.Nanoseconds()) / float64(done) / d.per
		if a == 0 || v < res.Value {
			res.Value = v
			res.Ops = done
			res.AllocsOp = float64(m1.Mallocs-m0.Mallocs) / float64(done)
			res.BestS = wall.Seconds()
		}
	}
	return res, nil
}

var layerDrivers = []*layerDriver{
	// Pending-set sizes bracket the measured sim.heap_peak of paper_bulk
	// (~220) and wide_overlap (~4 300).
	{metric: "sim.ns_per_event_h16", per: 1, ops: 4_000_000, prepare: steadyHeap(16)},
	{metric: "sim.ns_per_event_h256", per: 1, ops: 2_500_000, prepare: steadyHeap(256)},
	{metric: "sim.ns_per_event_h4096", per: 1, ops: 1_600_000, prepare: steadyHeap(4096)},
	{metric: "sim.ns_per_rearm", per: 1, ops: 4_000_000, prepare: rearm},
	{metric: "sim.ns_per_batch_event", per: 1, ops: 4_000_000, prepare: batch},
	{metric: "netem.ns_per_pkt_1hop", per: 1, ops: 1_200_000, prepare: transit(1)},
	{metric: "netem.ns_per_pkt_3hop", per: 1, ops: 500_000, prepare: transit(3)},
	{metric: "netem.ns_per_drop", per: 1, ops: 4_000_000, prepare: queueFull},
	{metric: "route.ns_per_lookup_1tag", per: 1, ops: 50_000_000, prepare: lookup(1)},
	{metric: "route.ns_per_lookup_8tag", per: 1, ops: 8_000_000, prepare: lookup(8)},
	{metric: "tcp.ns_per_seg_clean", per: 1, ops: 240_000, prepare: tcpBulk(0)},
	{metric: "tcp.ns_per_seg_lossy", per: 1, ops: 2_700_000, prepare: tcpBulk(0.01)},
	{metric: "mptcp.ns_per_seg_minrtt", per: 1, ops: 100_000, prepare: mptcpBulk("minrtt")},
	{metric: "mptcp.ns_per_seg_redundant", per: 1, ops: 100_000, prepare: mptcpBulk("redundant")},
	{metric: "cc.ns_per_ack_cubic", per: 1, ops: 7_000_000, prepare: perAck("cubic")},
	{metric: "cc.ns_per_ack_reno", per: 1, ops: 40_000_000, prepare: perAck("reno")},
	{metric: "cc.ns_per_ack_lia", per: 1, ops: 7_000_000, prepare: perAck("lia")},
	{metric: "cc.ns_per_ack_olia", per: 1, ops: 3_500_000, prepare: perAck("olia")},
	{metric: "cc.ns_per_ack_balia", per: 1, ops: 7_000_000, prepare: perAck("balia")},
	{metric: "cc.ns_per_ack_wvegas", per: 1, ops: 33_000_000, prepare: perAck("wvegas")},
	{metric: "lp.us_per_solve_cold", per: 1000, ops: 48, prepare: solve(true)},
	{metric: "lp.ns_per_hit", per: 1, ops: 12_000, prepare: solve(false)},
	{metric: "packet.ns_per_get_recycle", per: 1, ops: 17_000_000, prepare: getRecycle},
	{metric: "mptcpsim.run_fixed_us", per: 1000, ops: 1_700, prepare: runFixed},
	{metric: "stats.ns_per_online_add", per: 1, ops: 33_000_000, prepare: onlineAdd},
}

// lcg is a tiny deterministic generator for event delays: the drivers
// must not depend on math/rand's global state.
type lcg uint64

func (g *lcg) next() uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g >> 33)
}

// reschedule is an event that, when it fires, schedules itself again at a
// pseudo-random later time, keeping the pending set at a constant size.
type reschedule struct {
	loop *sim.Loop
	rng  lcg
	left int
}

func (r *reschedule) Run(sim.Time) {
	r.left--
	if r.left <= 0 {
		r.loop.Stop()
		return
	}
	r.loop.ScheduleCall(time.Duration(1+r.rng.next()%1_000_000), r)
}

// steadyHeap times ScheduleCall + pop with a constant number of pending
// events.
func steadyHeap(pending int) func(int) (func() (int, error), error) {
	return func(ops int) (func() (int, error), error) {
		loop := sim.NewLoop()
		r := &reschedule{loop: loop, rng: 1, left: ops}
		for i := 0; i < pending; i++ {
			loop.ScheduleCall(time.Duration(1+r.rng.next()%1_000_000), r)
		}
		return func() (int, error) { return ops, loop.Run() }, nil
	}
}

// ackClock is the RTO pattern: an event every 100 µs that stops and
// re-arms a 200 ms timer which therefore never fires, leaving one dead
// pending-set entry per operation.
type ackClock struct {
	loop  *sim.Loop
	timer sim.Timer
	rto   nop
	left  int
}

type nop struct{}

func (nop) Run(sim.Time) {}

func (a *ackClock) Run(sim.Time) {
	a.left--
	if a.left <= 0 {
		a.loop.Stop()
		return
	}
	a.timer.Stop()
	a.timer = a.loop.ScheduleCall(200*time.Millisecond, &a.rto)
	a.loop.ScheduleCall(100*time.Microsecond, a)
}

func rearm(ops int) (func() (int, error), error) {
	loop := sim.NewLoop()
	a := &ackClock{loop: loop, left: ops}
	loop.ScheduleCall(0, a)
	return func() (int, error) { return ops, loop.Run() }, nil
}

// burst schedules batchSize no-op events for one same instant, then
// itself for the next instant.
type burst struct {
	loop *sim.Loop
	leaf nop
	left int
}

const batchSize = 64

func (b *burst) Run(sim.Time) {
	b.left -= batchSize + 1
	if b.left <= 0 {
		b.loop.Stop()
		return
	}
	for i := 0; i < batchSize; i++ {
		b.loop.ScheduleCall(time.Microsecond, &b.leaf)
	}
	b.loop.ScheduleCall(2*time.Microsecond, b)
}

func batch(ops int) (func() (int, error), error) {
	loop := sim.NewLoop()
	b := &burst{loop: loop, left: ops}
	loop.ScheduleCall(0, b)
	return func() (int, error) {
		err := loop.Run()
		return int(loop.Processed()), err
	}, nil
}

// line builds a chain of hops+1 nodes joined by duplex links, a tag-1
// route end to end, and the network over it.
func line(hops int, rate unit.Rate, delay time.Duration, queue unit.ByteSize) (*netem.Network, topo.Path, error) {
	g := topo.New()
	nodes := make([]topo.NodeID, hops+1)
	for i := range nodes {
		nodes[i] = g.AddNode(fmt.Sprintf("n%d", i))
	}
	p := topo.Path{Nodes: nodes}
	for i := 0; i < hops; i++ {
		ab, _ := g.AddDuplex(nodes[i], nodes[i+1], rate, delay, queue)
		p.Links = append(p.Links, ab)
	}
	tt := route.NewTagTable(g)
	net, err := netem.New(sim.NewLoop(), g, tt)
	if err != nil {
		return nil, p, err
	}
	src, dst := net.AssignAddr(nodes[0]), net.AssignAddr(nodes[hops])
	if err := tt.AddPath(dst, 1, p); err != nil {
		return nil, p, err
	}
	rev, err := topo.ReversePath(g, p)
	if err != nil {
		return nil, p, err
	}
	return net, p, tt.AddPath(src, 1, rev)
}

const udpPort = 9001

// sendUDP originates one arena datagram from the line's first node to its
// last.
func sendUDP(net *netem.Network, p topo.Path) {
	src, _ := net.AddrOf(p.Nodes[0])
	dst, _ := net.AddrOf(p.Nodes[len(p.Nodes)-1])
	pkt, u := net.Arena().GetUDP()
	u.SrcPort, u.DstPort = 9000, udpPort
	pkt.IP = packet.IPv4{Tag: 1, Proto: packet.ProtoUDP, Src: src, Dst: dst}
	pkt.PayloadLen = 1000
	net.Node(p.Nodes[0]).Send(pkt)
}

// transit times a datagram's whole trip over hops store-and-forward links
// (enqueue, serialisation, propagation, forwarding, delivery), 32 in
// flight at a time.
func transit(hops int) func(int) (func() (int, error), error) {
	return func(ops int) (func() (int, error), error) {
		net, p, err := line(hops, unit.Gbps, 100*time.Microsecond, 256*1500)
		if err != nil {
			return nil, err
		}
		delivered := 0
		sink := netem.HandlerFunc(func(*packet.Packet) { delivered++ })
		if err := net.Node(p.Nodes[hops]).Register(udpPort, sink); err != nil {
			return nil, err
		}
		return func() (int, error) {
			for sent := 0; sent < ops; sent += 32 {
				for i := 0; i < 32; i++ {
					sendUDP(net, p)
				}
				if err := net.Loop.Run(); err != nil {
					return 0, err
				}
			}
			return delivered, nil
		}, nil
	}
}

// queueFull times the drop-tail path: bursts into a one-packet queue on a
// slow link, so all but two packets of each burst are dropped.
func queueFull(ops int) (func() (int, error), error) {
	net, p, err := line(1, unit.Mbps, time.Millisecond, 1500)
	if err != nil {
		return nil, err
	}
	if err := net.Node(p.Nodes[1]).Register(udpPort, netem.HandlerFunc(func(*packet.Packet) {})); err != nil {
		return nil, err
	}
	return func() (int, error) {
		for sent := 0; sent < ops; sent += 256 {
			for i := 0; i < 256; i++ {
				sendUDP(net, p)
			}
			if err := net.Loop.Run(); err != nil {
				return 0, err
			}
		}
		return int(net.Link(p.Links[0]).Counters.Drops[netem.DropQueueFull]), nil
	}, nil
}

// lookup times TagTable.NextLink at the shared node m0 of the wide8
// topology with tags cycling over the first n of its eight paths.
func lookup(tags int) func(int) (func() (int, error), error) {
	return func(ops int) (func() (int, error), error) {
		sf, err := mptcpsim.LoadScenario(bytes.NewReader(wide8JSON))
		if err != nil {
			return nil, err
		}
		g, paths, err := scenarioGraph(sf)
		if err != nil {
			return nil, err
		}
		tt := route.NewTagTable(g)
		dst := packet.MakeAddr(10, 0, 0, 2)
		for i, p := range paths {
			if err := tt.AddPath(dst, packet.Tag(i+1), p); err != nil {
				return nil, err
			}
		}
		m0, _ := g.NodeByName("m0")
		pkts := make([]packet.Packet, tags)
		for i := range pkts {
			pkts[i].IP = packet.IPv4{Tag: packet.Tag(i + 1), Dst: dst}
		}
		return func() (int, error) {
			for i := 0; i < ops; i++ {
				if _, err := tt.NextLink(m0, &pkts[i%tags]); err != nil {
					return 0, err
				}
			}
			return ops, nil
		}, nil
	}
}

// tcpBulk times a bulk transfer over one 100 Mbps link with SACK on and
// the given random loss, per segment sent. ops sets the simulated time:
// about one segment per 120 µs of it.
func tcpBulk(loss float64) func(int) (func() (int, error), error) {
	return func(ops int) (func() (int, error), error) {
		net, p, err := line(1, 100*unit.Mbps, 5*time.Millisecond, 256*1500)
		if err != nil {
			return nil, err
		}
		client := tcp.NewHost(net, p.Nodes[0], sim.NewRand(1))
		server := tcp.NewHost(net, p.Nodes[1], sim.NewRand(2))
		if loss > 0 {
			net.Link(p.Links[0]).SetLoss(loss, sim.NewRand(3))
		}
		err = server.Listen(80, &tcp.Listener{
			ConfigFor: func([]packet.Option, packet.Endpoint) tcp.Config {
				return tcp.Config{Sink: &tcp.CountSink{}, Tag: 1}
			},
		})
		if err != nil {
			return nil, err
		}
		algo, err := cc.New("reno")
		if err != nil {
			return nil, err
		}
		conn, err := client.Dial(tcp.Config{Tag: 1, CC: algo, Source: tcp.BulkSource{}, FlowID: "bulk"}, server.Addr, 80)
		if err != nil {
			return nil, err
		}
		horizon := time.Duration(ops) * 120 * time.Microsecond
		return func() (int, error) {
			err := net.Loop.RunUntil(sim.Time(horizon))
			return int(conn.Stats.SentSegments), err
		}, nil
	}
}

// mptcpBulk times a three-subflow cubic transfer over the paper network
// under the given scheduler, per segment sent on any subflow.
func mptcpBulk(sched string) func(int) (func() (int, error), error) {
	return func(ops int) (func() (int, error), error) {
		pn := topo.Paper()
		tt := route.NewTagTable(pn.Graph)
		net, err := netem.New(sim.NewLoop(), pn.Graph, tt)
		if err != nil {
			return nil, err
		}
		sender := tcp.NewHost(net, pn.S, sim.NewRand(1))
		receiver := tcp.NewHost(net, pn.D, sim.NewRand(2))
		for i, p := range pn.Paths {
			tag := packet.Tag(i + 1)
			if err := tt.AddPath(receiver.Addr, tag, p); err != nil {
				return nil, err
			}
			rev, err := topo.ReversePath(pn.Graph, p)
			if err != nil {
				return nil, err
			}
			if err := tt.AddPath(sender.Addr, tag, rev); err != nil {
				return nil, err
			}
		}
		if err := mptcp.Listen(receiver, 5001, tcp.Config{}, &mptcp.Acceptor{}); err != nil {
			return nil, err
		}
		conn, err := mptcp.Dial(sender, sim.NewRand(3), mptcp.Config{
			Algorithm: "cubic",
			Scheduler: sched,
			Subflows: []mptcp.SubflowSpec{
				{Tag: 2, Label: "Path 2"},
				{Tag: 1, Label: "Path 1", StartDelay: time.Millisecond},
				{Tag: 3, Label: "Path 3", StartDelay: 2 * time.Millisecond},
			},
		}, receiver.Addr, 5001)
		if err != nil {
			return nil, err
		}
		horizon := time.Duration(ops) * 130 * time.Microsecond
		return func() (int, error) {
			err := net.Loop.RunUntil(sim.Time(horizon))
			segs := 0
			for _, sf := range conn.Subflows() {
				if sf.TCP != nil {
					segs += int(sf.TCP.Stats.SentSegments)
				}
			}
			return segs, err
		}, nil
	}
}

// perAck times Algorithm.OnAck over three registered flows in congestion
// avoidance, with a loss every 1 000 ACKs so windows stay bounded.
func perAck(name string) func(int) (func() (int, error), error) {
	return func(ops int) (func() (int, error), error) {
		algo, err := cc.New(name)
		if err != nil {
			return nil, err
		}
		flows := make([]cc.Flow, 3)
		for i := range flows {
			rtt := time.Duration(10+5*i) * time.Millisecond
			flows[i] = cc.Flow{MSS: 1448, Cwnd: 40 * 1448, Ssthresh: 20 * 1448,
				SRTT: rtt, MinRTT: rtt - time.Millisecond, InFlight: 40 * 1448}
			algo.Register(&flows[i], 0)
		}
		return func() (int, error) {
			now := sim.Time(0)
			for i := 0; i < ops; i++ {
				f := &flows[i%3]
				now = now.Add(100 * time.Microsecond)
				if i%1000 == 999 {
					algo.OnLoss(f, now)
					f.Cwnd = f.Ssthresh
				}
				algo.OnAck(f, 1448, now)
			}
			return ops, nil
		}, nil
	}
}

// solve times lp.CachedBaselinesCaps on the paper network. Cold cycles
// over 48 capacity variants of v3-v4 and drops the cache before each round
// of 48, so every call solves; warm asks for one problem that is already
// cached, so every call is a hit.
func solve(cold bool) func(int) (func() (int, error), error) {
	return func(ops int) (func() (int, error), error) {
		pn := topo.Paper()
		variants := make([]lp.Caps, 48)
		for i := range variants {
			variants[i] = lp.Caps{pn.Bottlenecks[1]: float64(20 + i)}
		}
		lp.ResetBaselineCache()
		if !cold {
			variants = variants[:1]
			if _, err := lp.CachedBaselinesCaps(pn.Graph, pn.Paths, variants[0]); err != nil {
				return nil, err
			}
		}
		return func() (int, error) {
			defer lp.ResetBaselineCache()
			for i := 0; i < ops; i++ {
				if cold && i%len(variants) == 0 {
					lp.ResetBaselineCache()
				}
				if _, err := lp.CachedBaselinesCaps(pn.Graph, pn.Paths, variants[i%len(variants)]); err != nil {
					return 0, err
				}
			}
			return ops, nil
		}, nil
	}
}

func getRecycle(ops int) (func() (int, error), error) {
	var a packet.Arena
	return func() (int, error) {
		for i := 0; i < ops; i++ {
			p, _ := a.GetTCP()
			a.Recycle(p)
		}
		return ops, nil
	}, nil
}

// runFixed times a Run of 1 ms simulated on the paper network: per-run
// set-up and summarising with next to no packet work in between.
func runFixed(ops int) (func() (int, error), error) {
	nw := mptcpsim.PaperNetwork()
	opts := mptcpsim.Options{CC: "cubic", Duration: time.Millisecond, SubflowPaths: []int{2, 1, 3}}
	return func() (int, error) {
		for i := 0; i < ops; i++ {
			opts.Seed = int64(i + 1)
			if _, err := mptcpsim.Run(nw, opts); err != nil {
				return 0, err
			}
		}
		return ops, nil
	}, nil
}

// onlineSink keeps the accumulator reachable so the loop is not removed.
var onlineSink stats.Online

func onlineAdd(ops int) (func() (int, error), error) {
	return func() (int, error) {
		var o stats.Online
		for i := 0; i < ops; i++ {
			o.Add(float64(i & 1023))
		}
		onlineSink = o
		return ops, nil
	}, nil
}
