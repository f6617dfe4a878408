package netem

// Differential test for fused hops: the same random script runs through a
// network whose single-feeder links are admitted by their feeders
// (Network.Fuse) and through one where every hop is an event, and both must
// leave identical per-link arrival and transmit traces (time and packet, in
// each link's FIFO order), drops by reason, link counters and propagation
// state at the horizon. Delays and script times carry nanosecond jitter, so
// no two links deliver to one node at the same instant: the one thing the
// two models may order differently is such a tie.

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// fuseTopo is s0,s1 -> a -> {b -> c -> d, m -> d, e -> d}. Tag 1 runs
// s0-a-b-c-d, a chain of three single-feeder links (b->c is the slowest,
// with a small queue, and c->d loses packets at random); tag 2 runs
// s0-a-m-d and tag 4 s1-a-m-d, so a->m has two feeders; tag 3 runs
// s0-a-e-d, where a->e has an AQM and e->d is fed by it. s0->a therefore
// feeds fused links (a->b) and contended ones (a->m, a->e). The script
// mutates s1->a and m->d, next to the fused pairs at a and at d.
type fuseTopo struct {
	g       *topo.Graph
	dst     topo.NodeID
	srcs    map[packet.Tag]topo.NodeID
	paths   map[packet.Tag]topo.Path
	aqm     topo.LinkID
	lossy   topo.LinkID
	mutated []topo.LinkID
}

func newFuseTopo(rng *rand.Rand) *fuseTopo {
	g := topo.New()
	s0, s1, a, b, c := g.AddNode("s0"), g.AddNode("s1"), g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	m, e, d := g.AddNode("m"), g.AddNode("e"), g.AddNode("d")
	link := func(from, to topo.NodeID, mbps int, q unit.ByteSize) topo.LinkID {
		delay := 200*time.Microsecond + time.Duration(rng.Int63n(int64(time.Millisecond)))
		return g.AddLink(from, to, unit.Rate(mbps)*unit.Mbps, delay, q)
	}
	const q = 64 * 1500
	s0a, s1a := link(s0, a, 40, q), link(s1, a, 10, q)
	ab, bc, cd := link(a, b, 20, q), link(b, c, 6, 8*1500), link(c, d, 10, q)
	am, md := link(a, m, 12, 16*1500), link(m, d, 12, q)
	ae, ed := link(a, e, 10, q), link(e, d, 10, q)
	path := func(nodes []topo.NodeID, links ...topo.LinkID) topo.Path {
		return topo.Path{Nodes: nodes, Links: links}
	}
	return &fuseTopo{
		g: g, dst: d,
		srcs: map[packet.Tag]topo.NodeID{1: s0, 2: s0, 3: s0, 4: s1},
		paths: map[packet.Tag]topo.Path{
			1: path([]topo.NodeID{s0, a, b, c, d}, s0a, ab, bc, cd),
			2: path([]topo.NodeID{s0, a, m, d}, s0a, am, md),
			3: path([]topo.NodeID{s0, a, e, d}, s0a, ae, ed),
			4: path([]topo.NodeID{s1, a, m, d}, s1a, am, md),
		},
		aqm: ae, lossy: cd,
		mutated: []topo.LinkID{s1a, md},
	}
}

// fuseScript is sends of every tag at nanosecond-jittered times, with rate
// changes, delay cuts and flaps on the mutated links.
func fuseScript(rng *rand.Rand, ft *fuseTopo) []action {
	var script []action
	at := func() time.Duration { return time.Duration(rng.Int63n(int64(40 * time.Millisecond))) }
	for i := 0; i < 600; i++ {
		a := action{at: at()}
		switch r := rng.Intn(100); {
		case r < 90:
			a.kind, a.tag, a.size = 0, packet.Tag(1+rng.Intn(4)), []int{972, 472, 1472, 40}[rng.Intn(4)]
		case r < 93:
			a.kind, a.link, a.rate = 5, ft.mutated[rng.Intn(2)], []unit.Rate{4 * unit.Mbps, 16 * unit.Mbps}[rng.Intn(2)]
		case r < 97:
			a.kind, a.link = 1, ft.mutated[rng.Intn(2)]
			a.delay = time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
		case r < 99:
			a.kind, a.link = 2, ft.mutated[rng.Intn(2)]
		default:
			a.kind, a.link = 3, ft.mutated[rng.Intn(2)]
		}
		script = append(script, a)
	}
	for _, l := range ft.mutated {
		script = append(script, action{at: 41 * time.Millisecond, kind: 3, link: l})
	}
	return script
}

// everyThird is an AQM that drops every third packet offered.
type everyThird struct{ n int }

func (q *everyThird) OnEnqueue(*Link, *packet.Packet) bool {
	q.n++
	return q.n%3 == 0
}

// hopRec is one transmit or arrival report.
type hopRec struct {
	uid uint64
	at  sim.Time
}

// hopTrace records, per link, the transmit and arrival reports in the order
// they came, the drops by reason, and every tap-order hazard: a transmit or
// arrival reported for a packet after its terminal event (delivery or drop)
// has run, when the arena may already have handed it out again.
type hopTrace struct {
	loop     *sim.Loop
	tx, arr  [][]hopRec
	drops    [numDropReasons]int
	dropAt   []hopRec
	dead     map[uint64]bool
	hazards  []string
	delivers int
}

func (h *hopTrace) OnSend(_ *Node, p *packet.Packet) { delete(h.dead, p.UID) }
func (h *hopTrace) OnDeliver(_ *Node, p *packet.Packet) {
	h.delivers++
	h.dead[p.UID] = true
}
func (h *hopTrace) OnDrop(_ string, p *packet.Packet, r DropReason, at sim.Time) {
	h.drops[r]++
	h.dropAt = append(h.dropAt, hopRec{p.UID, at})
	h.dead[p.UID] = true
}
func (h *hopTrace) OnTransmit(l *Link, p *packet.Packet, at sim.Time) {
	if h.dead[p.UID] {
		h.hazards = append(h.hazards, fmt.Sprintf("transmit of uid %d on %s after it died", p.UID, l.Name()))
	}
	h.tx[l.Spec.ID] = append(h.tx[l.Spec.ID], hopRec{p.UID, at})
}
func (h *hopTrace) OnArrive(l *Link, p *packet.Packet, at sim.Time) {
	if h.dead[p.UID] {
		h.hazards = append(h.hazards, fmt.Sprintf("arrival of uid %d on %s after it died", p.UID, l.Name()))
	}
	if at < h.loop.Now() {
		h.hazards = append(h.hazards, fmt.Sprintf("arrival of uid %d on %s at %v reported at %v", p.UID, l.Name(), at, h.loop.Now()))
	}
	h.arr[l.Spec.ID] = append(h.arr[l.Spec.ID], hopRec{p.UID, at})
}

// fuseState is everything the two networks must agree on.
type fuseState struct {
	trace       *hopTrace
	counters    []LinkCounters
	queued      []int
	busy        []bool
	propagating int
	fused       int
	fired       uint64
}

// runFuseNet runs script on ft, fused or not; attach adds taps before the
// first packet.
func runFuseNet(t *testing.T, ft *fuseTopo, script []action, seed int64, horizon sim.Time, fuse bool, attach ...func(*Network)) fuseState {
	t.Helper()
	loop := sim.NewLoop()
	tt := route.NewTagTable(ft.g)
	net, err := New(loop, ft.g, tt)
	if err != nil {
		t.Fatal(err)
	}
	dAddr := net.AssignAddr(ft.dst)
	for _, tag := range []packet.Tag{1, 4} {
		net.AssignAddr(ft.srcs[tag])
	}
	for tag, p := range ft.paths {
		if err := tt.AddPath(dAddr, tag, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Node(ft.dst).Register(9001, HandlerFunc(func(*packet.Packet) {})); err != nil {
		t.Fatal(err)
	}
	net.Link(ft.aqm).SetAQM(&everyThird{})
	net.Link(ft.lossy).SetLoss(0.1, sim.NewRand(seed))
	tr := &hopTrace{loop: loop, tx: make([][]hopRec, ft.g.NumLinks()), arr: make([][]hopRec, ft.g.NumLinks()), dead: map[uint64]bool{}}
	net.AttachTap(tr)
	for _, f := range attach {
		f(net)
	}
	st := fuseState{trace: tr}
	if fuse {
		st.fused = net.Fuse(horizon, ft.mutated)
	}
	for _, a := range script {
		loop.Schedule(a.at, func() {
			switch a.kind {
			case 0:
				src := net.Node(ft.srcs[a.tag])
				srcAddr, _ := net.AddrOf(src.ID)
				p, u := net.Arena().GetUDP()
				*u = packet.UDP{SrcPort: 9000, DstPort: 9001}
				p.IP = packet.IPv4{Tag: a.tag, Proto: packet.ProtoUDP, Src: srcAddr, Dst: dAddr}
				p.PayloadLen = a.size
				src.Send(p)
			case 1:
				net.Link(a.link).SetDelay(a.delay)
			case 2:
				net.Link(a.link).SetDown()
			case 3:
				net.Link(a.link).SetUp()
			case 5:
				net.Link(a.link).SetRate(a.rate)
			}
		})
	}
	if err := loop.RunUntil(horizon); err != nil {
		t.Fatal(err)
	}
	for _, l := range net.Links() {
		l.Settle()
		st.counters = append(st.counters, l.Counters)
		st.queued = append(st.queued, l.QueueLen())
		st.busy = append(st.busy, l.Transmitting())
	}
	st.propagating = net.Propagating()
	st.fired = loop.Counters().Fired
	return st
}

func TestFusedHopsMatchPerHop(t *testing.T) {
	handedOn := 0
	var queueFull, random, aqm uint64
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ft := newFuseTopo(rng)
		script := fuseScript(rng, ft)
		// Most horizons cut through propagation; every fourth run drains.
		horizon := sim.Time(20*time.Millisecond) + sim.Time(rng.Int63n(int64(30*time.Millisecond)))
		if seed%4 == 0 {
			horizon = sim.Time(time.Second)
		}
		what := fmt.Sprintf("seed %d (horizon %v)", seed, horizon)
		fused := runFuseNet(t, ft, script, seed, horizon, true)
		ref := runFuseNet(t, ft, script, seed, horizon, false)
		if fused.fused != 4 {
			t.Fatalf("%s: Fuse joined %d links, want a->b, b->c, c->d and e->d", what, fused.fused)
		}
		for _, st := range []fuseState{fused, ref} {
			if len(st.trace.hazards) > 0 {
				t.Fatalf("%s: %v", what, st.trace.hazards[:min(3, len(st.trace.hazards))])
			}
		}
		for id := range ft.g.NumLinks() {
			name := ft.g.Links()[id]
			if !slices.Equal(fused.trace.tx[id], ref.trace.tx[id]) {
				t.Fatalf("%s: link %d (%d->%d) transmits differ:\nfused   %v\nper-hop %v", what, id, name.From, name.To, fused.trace.tx[id], ref.trace.tx[id])
			}
			// A link that hands some frames on reports their arrivals when it
			// admits them, ahead of earlier frames' arrival events: compare
			// the arrivals by time.
			for _, arr := range [][]hopRec{fused.trace.arr[id], ref.trace.arr[id]} {
				slices.SortStableFunc(arr, func(a, b hopRec) int { return cmp.Compare(a.at, b.at) })
			}
			if !slices.Equal(fused.trace.arr[id], ref.trace.arr[id]) {
				t.Fatalf("%s: link %d (%d->%d) arrivals differ:\nfused   %v\nper-hop %v", what, id, name.From, name.To, fused.trace.arr[id], ref.trace.arr[id])
			}
		}
		byUID := func(a, b hopRec) int { return cmp.Compare(a.uid, b.uid) }
		slices.SortFunc(fused.trace.dropAt, byUID)
		slices.SortFunc(ref.trace.dropAt, byUID)
		switch {
		case fused.trace.drops != ref.trace.drops:
			t.Fatalf("%s: drops by reason %v, per-hop %v", what, fused.trace.drops, ref.trace.drops)
		case !slices.Equal(fused.trace.dropAt, ref.trace.dropAt):
			t.Fatalf("%s: drop times differ", what)
		case fused.trace.delivers != ref.trace.delivers:
			t.Fatalf("%s: %d deliveries, per-hop %d", what, fused.trace.delivers, ref.trace.delivers)
		case !slices.Equal(fused.counters, ref.counters):
			t.Fatalf("%s: link counters\nfused   %+v\nper-hop %+v", what, fused.counters, ref.counters)
		case !slices.Equal(fused.queued, ref.queued) || !slices.Equal(fused.busy, ref.busy):
			t.Fatalf("%s: queues %v busy %v, per-hop %v %v", what, fused.queued, fused.busy, ref.queued, ref.busy)
		case fused.propagating != ref.propagating:
			t.Fatalf("%s: %d propagating at the horizon, per-hop %d", what, fused.propagating, ref.propagating)
		case fused.fired >= ref.fired:
			t.Fatalf("%s: fused network fired %d events, per-hop %d", what, fused.fired, ref.fired)
		}
		handedOn += int(ref.fired - fused.fired)
		// The scripts must reach what they are for: a standing queue and
		// drop-tail on b->c, random loss on c->d, AQM drops on a->e.
		c := fused.counters
		queueFull += c[ft.paths[1].Links[2]].Drops[DropQueueFull]
		random += c[ft.lossy].Drops[DropRandom]
		aqm += c[ft.aqm].Drops[DropAQM]
	}
	if queueFull == 0 || random == 0 || aqm == 0 {
		t.Fatalf("scripts missed a drop kind: b->c queue-full %d, c->d random %d, a->e aqm %d", queueFull, random, aqm)
	}
	if handedOn < 5000 {
		t.Fatalf("only %d hops handed on over all scripts", handedOn)
	}
}

// A fused link cannot be mutated, and a packet cannot reach one other than
// over its feeder: both would invalidate admissions already committed.
func TestFusedLinkRefusesMutationAndForeignTraffic(t *testing.T) {
	ft := newFuseTopo(rand.New(rand.NewSource(1)))
	loop := sim.NewLoop()
	tt := route.NewTagTable(ft.g)
	net, err := New(loop, ft.g, tt)
	if err != nil {
		t.Fatal(err)
	}
	for tag, p := range ft.paths {
		if err := tt.AddPath(net.AssignAddr(ft.dst), tag, p); err != nil {
			t.Fatal(err)
		}
	}
	if n := net.Fuse(sim.End, nil); n != 6 {
		t.Fatalf("Fuse joined %d links, want 6 with no link mutated and no AQM", n)
	}
	ab := net.Link(ft.paths[1].Links[1])
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a fused link did not panic", what)
			}
		}()
		f()
	}
	mustPanic("SetRate", func() { ab.SetRate(unit.Mbps) })
	mustPanic("SetDown", ab.SetDown)
	mustPanic("SetLossProb", func() { ab.SetLossProb(0) })
	mustPanic("SetAQM on the feeder", func() { net.Link(ft.paths[1].Links[0]).SetAQM(&everyThird{}) })
	mustPanic("a per-hop admission", func() { ab.enqueue(dataPkt(0, 0, 1, 100)) })
}
