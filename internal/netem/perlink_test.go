package netem

// Differential oracle for the folded link: a link commits a frame's whole
// schedule at admission, keeps one pending event (the arrival of its oldest
// frame, ranked by the link's ID) and settles departures lazily. refNet
// below is the per-frame model — every frame gets its own txDone event,
// which queues the frame's arrival behind the link's frames in flight, and
// the head of that queue is armed under the link's rank — over the same
// topology, routes and script. Both
// must produce the identical (time, link, packet UID) arrival trace, across
// rate changes, delay cuts and flaps, including when a delay cut piles
// several frames of one link onto an instant that other links' arrivals
// share.
//
// Every delay here is positive. On a zero-delay link the two models cannot
// agree on same-instant order — a per-frame arrival cannot run before its
// own txDone, the folded one has no txDone to wait for — and a swapped order
// at a shared node changes everything downstream, so the instants cannot
// simply be compared as sets. Zero delay has its own FIFO-and-timing test,
// TestZeroDelayLinkIsFIFO.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// arrivalRec is one observed propagation arrival.
type arrivalRec struct {
	at   sim.Time
	link topo.LinkID
	uid  uint64
}

// arrivalTrace is the Tap (and ArrivalTap) recording the real network's
// arrivals and drops.
type arrivalTrace struct {
	loop     *sim.Loop
	arrivals []arrivalRec
	drops    int
}

func (a *arrivalTrace) OnDeliver(*Node, *packet.Packet)                     {}
func (a *arrivalTrace) OnDrop(string, *packet.Packet, DropReason, sim.Time) { a.drops++ }
func (a *arrivalTrace) OnArrive(l *Link, p *packet.Packet, at sim.Time) {
	a.arrivals = append(a.arrivals, arrivalRec{at, l.Spec.ID, p.UID})
}

// oracleTopo is s0,s1 -> {m,n} -> d: tag 1 runs s0-m-d, tag 2 s0-n-d, tag 3
// s1-m-d, so m->d is shared and d hears from two links. Rates make a
// 1000-byte frame last 1 ms or 0.5 ms and delays are multiples of 0.25 ms:
// arrival instants collide across links all the time.
type oracleTopo struct {
	g     *topo.Graph
	dst   topo.NodeID
	srcs  []topo.NodeID
	paths map[packet.Tag]topo.Path
}

func newOracleTopo() *oracleTopo {
	g := topo.New()
	s0, s1, m, n, d := g.AddNode("s0"), g.AddNode("s1"), g.AddNode("m"), g.AddNode("n"), g.AddNode("d")
	const q = unit.MB
	s0m := g.AddLink(s0, m, 8*unit.Mbps, time.Millisecond, q)
	s0n := g.AddLink(s0, n, 16*unit.Mbps, 500*time.Microsecond, q)
	s1m := g.AddLink(s1, m, 8*unit.Mbps, 250*time.Microsecond, q)
	md := g.AddLink(m, d, 16*unit.Mbps, 2*time.Millisecond, q)
	nd := g.AddLink(n, d, 16*unit.Mbps, 250*time.Microsecond, q)
	path := func(nodes []topo.NodeID, links ...topo.LinkID) topo.Path {
		return topo.Path{Nodes: nodes, Links: links}
	}
	return &oracleTopo{
		g: g, dst: d, srcs: []topo.NodeID{s0, s0, s1},
		paths: map[packet.Tag]topo.Path{
			1: path([]topo.NodeID{s0, m, d}, s0m, md),
			2: path([]topo.NodeID{s0, n, d}, s0n, nd),
			3: path([]topo.NodeID{s1, m, d}, s1m, md),
		},
	}
}

// action is one scripted step; both networks run the same list.
type action struct {
	at    time.Duration
	kind  int // 0 send, 1 set delay, 2 down, 3 up, 4 stop the loop, 5 set rate
	tag   packet.Tag
	size  int
	link  topo.LinkID
	delay time.Duration
	rate  unit.Rate
}

func randomScript(rng *rand.Rand, links int) []action {
	var script []action
	delays := []time.Duration{250 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond, time.Millisecond, 3 * time.Millisecond}
	rates := []unit.Rate{4 * unit.Mbps, 8 * unit.Mbps, 16 * unit.Mbps, 16 * unit.Mbps}
	for i := 0; i < 400; i++ {
		a := action{at: time.Duration(rng.Intn(160)) * 250 * time.Microsecond}
		switch r := rng.Intn(100); {
		case r < 76:
			a.kind, a.tag, a.size = 0, packet.Tag(1+rng.Intn(3)), []int{972, 472, 972, 1472}[rng.Intn(4)]
		case r < 80:
			a.kind, a.link, a.rate = 5, topo.LinkID(rng.Intn(links)), rates[rng.Intn(len(rates))]
		case r < 92:
			a.kind, a.link, a.delay = 1, topo.LinkID(rng.Intn(links)), delays[rng.Intn(len(delays))]
		case r < 95:
			a.kind, a.link = 2, topo.LinkID(rng.Intn(links))
		case r < 99:
			a.kind, a.link = 3, topo.LinkID(rng.Intn(links))
		default:
			a.kind = 4
		}
		script = append(script, a)
	}
	// Whatever went down comes back, so the tail of the script drains.
	for l := 0; l < links; l++ {
		script = append(script, action{at: 41 * time.Millisecond, kind: 3, link: topo.LinkID(l)})
	}
	return script
}

// runLoop runs l to completion across scripted Stop calls and, if limit is
// set, across event-limit aborts every limit events — both can land between
// two events of one instant, and the rest must stay pending, in order.
func runLoop(t *testing.T, l *sim.Loop, limit uint64) {
	t.Helper()
	for {
		if limit > 0 {
			l.SetEventLimit(l.Processed() + limit)
		}
		err := l.Run()
		if err != nil && limit == 0 {
			t.Fatal(err)
		}
		if err == nil && l.Len() == 0 {
			return
		}
	}
}

func runRealNet(t *testing.T, ot *oracleTopo, script []action, limit uint64) (*arrivalTrace, sim.Counters) {
	t.Helper()
	loop := sim.NewLoop()
	tt := route.NewTagTable(ot.g)
	net, err := New(loop, ot.g, tt)
	if err != nil {
		t.Fatal(err)
	}
	dAddr := net.AssignAddr(ot.dst)
	for _, src := range ot.srcs {
		net.AssignAddr(src)
	}
	for tag, p := range ot.paths {
		if err := tt.AddPath(dAddr, tag, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Node(ot.dst).Register(9001, HandlerFunc(func(*packet.Packet) {})); err != nil {
		t.Fatal(err)
	}
	tr := &arrivalTrace{loop: loop}
	net.AttachTap(tr)
	for _, a := range script {
		loop.Schedule(a.at, func() {
			switch a.kind {
			case 0:
				src := net.Node(ot.srcs[a.tag-1])
				srcAddr, _ := net.AddrOf(src.ID)
				src.Send(dataPkt(srcAddr, dAddr, a.tag, a.size))
			case 1:
				net.Link(a.link).SetDelay(a.delay)
			case 2:
				net.Link(a.link).SetDown()
			case 3:
				net.Link(a.link).SetUp()
			case 4:
				loop.Stop()
			case 5:
				net.Link(a.link).SetRate(a.rate)
			}
		})
	}
	runLoop(t, loop, limit)
	if net.Propagating() != 0 {
		t.Fatalf("%d frames still propagating after the loop drained", net.Propagating())
	}
	return tr, loop.Counters()
}

// refNet is the per-frame reference: the two-event link model reduced to
// what the script exercises (FIFO queue, serialisation at the rate in force
// when a frame starts, propagation with the no-overtaking clamp, down/cut),
// with one txDone and one arrival event per frame.
type refNet struct {
	loop     *sim.Loop
	ot       *oracleTopo
	links    []*refLink
	nextUID  uint64
	arrivals []arrivalRec
	drops    int
}

type refLink struct {
	n         *refNet
	spec      topo.Link
	q         []*packet.Packet
	tx        *packet.Packet
	down, cut bool
	// inflight holds the transmitted frames, oldest first, each with its
	// arrival time; only the oldest one's arrival is armed.
	inflight []refFlight
}

type refFlight struct {
	pkt *packet.Packet
	at  sim.Time
}

// callFunc adapts a func to sim.Callback for AtRanked.
type callFunc func()

func (f callFunc) Run(sim.Time) { f() }

func (l *refLink) enqueue(p *packet.Packet) {
	if l.down {
		l.n.drops++
		return
	}
	l.q = append(l.q, p)
	l.startTx()
}

func (l *refLink) startTx() {
	if l.down || l.tx != nil || len(l.q) == 0 {
		return
	}
	l.tx, l.q = l.q[0], l.q[1:]
	l.n.loop.Schedule(l.spec.Rate.TxTime(l.tx.Size()), l.finishTx)
}

func (l *refLink) finishTx() {
	p := l.tx
	l.tx = nil
	if l.down || l.cut {
		l.cut = false
		l.n.drops++
		l.startTx()
		return
	}
	at := l.n.loop.Now().Add(l.spec.Delay)
	if n := len(l.inflight); n > 0 && at < l.inflight[n-1].at {
		at = l.inflight[n-1].at
	}
	l.inflight = append(l.inflight, refFlight{p, at})
	if len(l.inflight) == 1 {
		l.armHead()
	}
	l.startTx()
}

// armHead arms the arrival of the oldest frame in flight under the link's
// rank.
func (l *refLink) armHead() {
	l.n.loop.AtRanked(l.inflight[0].at, uint32(l.spec.ID), callFunc(func() {
		p := l.inflight[0].pkt
		l.inflight = l.inflight[1:]
		if len(l.inflight) > 0 {
			l.armHead()
		}
		l.n.arrivals = append(l.n.arrivals, arrivalRec{l.n.loop.Now(), l.spec.ID, p.UID})
		l.n.forward(l.spec.To, p)
	}))
}

func (l *refLink) setDown() {
	l.down = true
	if l.tx != nil {
		l.cut = true
	}
	l.n.drops += len(l.q)
	l.q = nil
}

func (l *refLink) setUp() {
	if l.down {
		l.down = false
		l.startTx()
	}
}

// forward moves p on from node at along its tag's path.
func (n *refNet) forward(at topo.NodeID, p *packet.Packet) {
	path := n.ot.paths[p.IP.Tag]
	for i, nd := range path.Nodes[:len(path.Links)] {
		if nd == at {
			n.links[path.Links[i]].enqueue(p)
			return
		}
	}
}

func runRefNet(t *testing.T, ot *oracleTopo, script []action) *refNet {
	t.Helper()
	n := &refNet{loop: sim.NewLoop(), ot: ot}
	for _, spec := range ot.g.Links() {
		n.links = append(n.links, &refLink{n: n, spec: spec})
	}
	for _, a := range script {
		n.loop.Schedule(a.at, func() {
			switch a.kind {
			case 0:
				p := dataPkt(0, 0, a.tag, a.size)
				n.nextUID++
				p.UID = n.nextUID
				n.forward(ot.srcs[a.tag-1], p)
			case 1:
				n.links[a.link].spec.Delay = a.delay
			case 2:
				n.links[a.link].setDown()
			case 3:
				n.links[a.link].setUp()
			case 4:
				n.loop.Stop()
			case 5:
				n.links[a.link].spec.Rate = a.rate
			}
		})
	}
	runLoop(t, n.loop, 0)
	return n
}

func compareTraces(t *testing.T, what string, got, want []arrivalRec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d arrivals, per-frame reference %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: arrival %d is (t=%v link=%d uid=%d), per-frame reference (t=%v link=%d uid=%d)",
				what, i, got[i].at, got[i].link, got[i].uid, want[i].at, want[i].link, want[i].uid)
		}
	}
}

func TestPerLinkArrivalsMatchPerFrameReference(t *testing.T) {
	ot := newOracleTopo()
	piled := 0
	for seed := int64(1); seed <= 40; seed++ {
		script := randomScript(rand.New(rand.NewSource(seed)), ot.g.NumLinks())
		ref := runRefNet(t, ot, script)
		real, counters := runRealNet(t, ot, script, 0)
		what := fmt.Sprintf("seed %d", seed)
		compareTraces(t, what, real.arrivals, ref.arrivals)
		if real.drops != ref.drops {
			t.Fatalf("%s: %d drops, per-frame reference %d", what, real.drops, ref.drops)
		}
		// One event per packet-hop: the loop fired the arrivals and the
		// script's own actions, nothing else.
		if want := uint64(len(real.arrivals) + len(script)); counters.Fired != want {
			t.Fatalf("%s: %d events fired, want %d arrivals + %d script actions",
				what, counters.Fired, len(real.arrivals), len(script))
		}
		// The same run chopped into 7-event slices by the event limit: an
		// abort between two events of one instant must resume in order.
		sliced, _ := runRealNet(t, ot, script, 7)
		compareTraces(t, what+" (event-limit slices)", sliced.arrivals, ref.arrivals)

		// Count the instants the oracle exists for: one link delivering two
		// frames at an instant where another link delivers too.
		for i := 0; i < len(ref.arrivals); {
			j := i
			perLink := map[topo.LinkID]int{}
			for ; j < len(ref.arrivals) && ref.arrivals[j].at == ref.arrivals[i].at; j++ {
				perLink[ref.arrivals[j].link]++
			}
			if len(perLink) > 1 {
				for _, c := range perLink {
					if c > 1 {
						piled++
						break
					}
				}
			}
			i = j
		}
	}
	if piled < 20 {
		t.Fatalf("only %d instants had one link's frames piled up next to another link's arrival; the scripts no longer exercise the tie hazard", piled)
	}
}
