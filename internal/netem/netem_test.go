package netem

import (
	"testing"
	"time"

	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// recorder is a Tap that logs every event with its virtual time.
type recorder struct {
	loop     *sim.Loop
	tx       []sim.Time
	delivers []sim.Time
	drops    []DropReason
	dropLocs []string
}

func (r *recorder) OnTransmit(_ *Link, _ *packet.Packet, at sim.Time) { r.tx = append(r.tx, at) }
func (r *recorder) OnDeliver(n *Node, p *packet.Packet) {
	r.delivers = append(r.delivers, r.loop.Now())
}
func (r *recorder) OnDrop(where string, p *packet.Packet, reason DropReason, _ sim.Time) {
	r.drops = append(r.drops, reason)
	r.dropLocs = append(r.dropLocs, where)
}

// sink records delivered packets in arrival order.
type sink struct {
	loop *sim.Loop
	pkts []*packet.Packet
	at   []sim.Time
}

func (s *sink) Deliver(p *packet.Packet) {
	s.pkts = append(s.pkts, p)
	s.at = append(s.at, s.loop.Now())
}

// lineNet builds a -> b -> c with the given rate/delay on both hops and a
// tag-1 route from a to c plus reverse.
func lineNet(t *testing.T, rate unit.Rate, delay time.Duration, queue unit.ByteSize) (*sim.Loop, *Network, *Node, *Node, packet.Addr, packet.Addr) {
	t.Helper()
	g := topo.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	ab := g.AddLink(a, b, rate, delay, queue)
	bc := g.AddLink(b, c, rate, delay, queue)
	g.AddLink(c, b, rate, delay, queue)
	g.AddLink(b, a, rate, delay, queue)

	loop := sim.NewLoop()
	tt := route.NewTagTable(g)
	net, err := New(loop, g, tt)
	if err != nil {
		t.Fatal(err)
	}
	aAddr := net.AssignAddr(a)
	cAddr := net.AssignAddr(c)
	fwd := topo.Path{Nodes: []topo.NodeID{a, b, c}, Links: []topo.LinkID{ab, bc}}
	if err := tt.AddPath(cAddr, 1, fwd); err != nil {
		t.Fatal(err)
	}
	rev, err := topo.ReversePath(g, fwd)
	if err != nil {
		t.Fatal(err)
	}
	if err := tt.AddPath(aAddr, 1, rev); err != nil {
		t.Fatal(err)
	}
	return loop, net, net.Node(a), net.Node(c), aAddr, cAddr
}

func dataPkt(src, dst packet.Addr, tag packet.Tag, payload int) *packet.Packet {
	return &packet.Packet{
		IP:         packet.IPv4{Tag: tag, Proto: packet.ProtoUDP, Src: src, Dst: dst},
		UDP:        &packet.UDP{SrcPort: 9000, DstPort: 9001},
		PayloadLen: payload,
	}
}

func TestStoreAndForwardTiming(t *testing.T) {
	// 1 Mbps, 5 ms per hop; packet 1250B incl. headers => tx 10 ms per hop.
	loop, _, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, 5*time.Millisecond, 100*unit.KB)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	p := dataPkt(aAddr, cAddr, 1, 1250-packet.IPv4HeaderLen-packet.UDPHeaderLen)
	loop.Schedule(0, func() { a.Send(p) })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(s.pkts))
	}
	want := sim.Time(30 * time.Millisecond) // 2*(10ms tx + 5ms prop)
	if s.at[0] != want {
		t.Fatalf("delivery at %v, want %v", s.at[0], want)
	}
}

func TestPipelining(t *testing.T) {
	// Two packets back to back: the second's arrival is one tx-time after
	// the first (pipelined across the two hops).
	loop, _, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, 5*time.Millisecond, 100*unit.KB)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	payload := 1250 - packet.IPv4HeaderLen - packet.UDPHeaderLen
	loop.Schedule(0, func() {
		a.Send(dataPkt(aAddr, cAddr, 1, payload))
		a.Send(dataPkt(aAddr, cAddr, 1, payload))
	})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.at) != 2 {
		t.Fatalf("delivered %d, want 2", len(s.at))
	}
	if s.at[0] != sim.Time(30*time.Millisecond) || s.at[1] != sim.Time(40*time.Millisecond) {
		t.Fatalf("arrivals %v, want [30ms 40ms]", s.at)
	}
}

func TestFIFOOrderPreserved(t *testing.T) {
	loop, _, a, c, aAddr, cAddr := lineNet(t, 10*unit.Mbps, time.Millisecond, unit.MB)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	const n = 50
	loop.Schedule(0, func() {
		for i := 0; i < n; i++ {
			a.Send(dataPkt(aAddr, cAddr, 1, 100+i))
		}
	})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.pkts) != n {
		t.Fatalf("delivered %d, want %d", len(s.pkts), n)
	}
	for i, p := range s.pkts {
		if p.PayloadLen != 100+i {
			t.Fatalf("packet %d out of order (payload %d)", i, p.PayloadLen)
		}
	}
}

func TestQueueOverflowDropsTail(t *testing.T) {
	// Queue of ~3 packets at 1 Mbps: a burst of 10 must lose some.
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, 4000)
	rec := &recorder{loop: loop}
	net.AttachTap(rec)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	payload := 1250 - packet.IPv4HeaderLen - packet.UDPHeaderLen
	loop.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			a.Send(dataPkt(aAddr, cAddr, 1, payload))
		}
	})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	// 1 in flight + floor(4000/1250)=3 queued = 4 survive.
	if len(s.pkts) != 4 {
		t.Fatalf("delivered %d, want 4", len(s.pkts))
	}
	if len(rec.drops) != 6 {
		t.Fatalf("drops %d, want 6", len(rec.drops))
	}
	for _, r := range rec.drops {
		if r != DropQueueFull {
			t.Fatalf("drop reason %v, want queue-full", r)
		}
	}
	ab := net.Link(0)
	if ab.Counters.Drops[DropQueueFull] != 6 {
		t.Fatalf("link counter = %d, want 6", ab.Counters.Drops[DropQueueFull])
	}
	if ab.Counters.TxPackets != 4 {
		t.Fatalf("TxPackets = %d, want 4", ab.Counters.TxPackets)
	}
}

func TestNoRouteDrop(t *testing.T) {
	loop, net, a, _, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, unit.MB)
	rec := &recorder{loop: loop}
	net.AttachTap(rec)
	loop.Schedule(0, func() { a.Send(dataPkt(aAddr, cAddr, 42, 100)) })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.drops) != 1 || rec.drops[0] != DropNoRoute {
		t.Fatalf("drops = %v, want [no-route]", rec.drops)
	}
}

func TestNoHandlerDrop(t *testing.T) {
	loop, net, a, _, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, unit.MB)
	rec := &recorder{loop: loop}
	net.AttachTap(rec)
	// Nothing registered at port 9001 on c.
	loop.Schedule(0, func() { a.Send(dataPkt(aAddr, cAddr, 1, 100)) })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.drops) != 1 || rec.drops[0] != DropNoHandler {
		t.Fatalf("drops = %v, want [no-handler]", rec.drops)
	}
}

// TestTTLExpiry sends a packet with one hop of TTL along a two-hop path: a
// forwards it, and b, with nothing left to decrement, drops it.
func TestTTLExpiry(t *testing.T) {
	loop, net, a, _, aAddr, cAddr := lineNet(t, unit.Gbps, time.Microsecond, unit.MB)
	rec := &recorder{loop: loop}
	net.AttachTap(rec)
	p := dataPkt(aAddr, cAddr, 1, 10)
	p.IP.TTL = 1
	loop.Schedule(0, func() { a.Send(p) })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rec.drops) != 1 || rec.drops[0] != DropTTL || rec.dropLocs[0] != "b" {
		t.Fatalf("drops = %v at %v, want [ttl] at [b]", rec.drops, rec.dropLocs)
	}
	if p.IP.TTL != 0 {
		t.Fatalf("TTL = %d after expiry", p.IP.TTL)
	}
}

func TestRandomLoss(t *testing.T) {
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Gbps, time.Microsecond, unit.MB)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	net.Link(0).SetLoss(0.5, sim.NewRand(1))
	const n = 2000
	loop.Schedule(0, func() {
		for i := 0; i < n; i++ {
			a.Send(dataPkt(aAddr, cAddr, 1, 100))
		}
	})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	got := len(s.pkts)
	if got < n*4/10 || got > n*6/10 {
		t.Fatalf("survivors = %d/%d, want about half", got, n)
	}
	if net.Link(0).Counters.Drops[DropRandom] != uint64(n-got) {
		t.Fatal("random-loss counter inconsistent")
	}
}

func TestUtilisationSaturated(t *testing.T) {
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, unit.MB)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	payload := 1250 - packet.IPv4HeaderLen - packet.UDPHeaderLen
	loop.Schedule(0, func() {
		for i := 0; i < 100; i++ {
			a.Send(dataPkt(aAddr, cAddr, 1, payload))
		}
	})
	// 100 packets * 10ms = 1s of tx time on link a->b.
	if err := loop.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	u := net.Link(0).Utilisation()
	if u < 0.97 || u > 1.001 {
		t.Fatalf("utilisation = %v, want ~1", u)
	}
}

func TestTapOrderingAndTimestamps(t *testing.T) {
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, 5*time.Millisecond, unit.MB)
	rec := &recorder{loop: loop}
	net.AttachTap(rec)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	payload := 1250 - packet.IPv4HeaderLen - packet.UDPHeaderLen
	loop.Schedule(0, func() { a.Send(dataPkt(aAddr, cAddr, 1, payload)) })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	// Two transmissions (a->b, b->c) then one delivery.
	if len(rec.tx) != 2 || len(rec.delivers) != 1 {
		t.Fatalf("tx=%d deliver=%d", len(rec.tx), len(rec.delivers))
	}
	if rec.tx[0] != sim.Time(10*time.Millisecond) || rec.tx[1] != sim.Time(25*time.Millisecond) {
		t.Fatalf("tx times %v", rec.tx)
	}
	if rec.delivers[0] != sim.Time(30*time.Millisecond) {
		t.Fatalf("deliver time %v", rec.delivers[0])
	}
}

func TestPortCollisionRejected(t *testing.T) {
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, unit.MB)
	rec := &recorder{loop: loop}
	net.AttachTap(rec)
	ports := []packet.Port{9001, 9002, 9003}
	sinks := make([]*sink, len(ports))
	for i, p := range ports {
		sinks[i] = &sink{loop: loop}
		if err := c.Register(p, sinks[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range ports {
		if err := c.Register(p, &sink{}); err == nil {
			t.Fatalf("duplicate Register of port %d accepted", p)
		}
	}
	// Releasing the middle port leaves its neighbours bound to their own
	// handlers.
	c.Unregister(9002)
	c.Unregister(9002)
	loop.Schedule(0, func() {
		for _, p := range ports {
			pkt := dataPkt(aAddr, cAddr, 1, 100)
			pkt.UDP.DstPort = p
			a.Send(pkt)
		}
	})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(sinks[0].pkts) != 1 || len(sinks[1].pkts) != 0 || len(sinks[2].pkts) != 1 {
		t.Fatalf("deliveries per port = %d %d %d, want 1 0 1",
			len(sinks[0].pkts), len(sinks[1].pkts), len(sinks[2].pkts))
	}
	if len(rec.drops) != 1 || rec.drops[0] != DropNoHandler {
		t.Fatalf("drops = %v, want [no-handler] for the released port", rec.drops)
	}
	if err := c.Register(9002, &sink{}); err != nil {
		t.Fatal("Register after Unregister failed")
	}
}

func TestAddrNodeRoundTrip(t *testing.T) {
	// lineNet assigned a then c, out of node order; b has no address yet.
	_, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, unit.MB)
	const b = topo.NodeID(1)
	if addr, ok := net.AddrOf(b); ok {
		t.Fatalf("unassigned node has address %v", addr)
	}
	if aAddr != packet.MakeAddr(10, 0, 0, 1) || cAddr != packet.MakeAddr(10, 0, 0, 2) {
		t.Fatalf("addresses %v, %v: want 10.0.0.1, 10.0.0.2 in assignment order", aAddr, cAddr)
	}
	if again := net.AssignAddr(a.ID); again != aAddr {
		t.Fatalf("second AssignAddr gave %v, want %v", again, aAddr)
	}
	if bAddr := net.AssignAddr(b); bAddr != packet.MakeAddr(10, 0, 0, 3) {
		t.Fatalf("third address %v, want 10.0.0.3", bAddr)
	}
	owners := map[packet.Addr]topo.NodeID{}
	for _, id := range []topo.NodeID{a.ID, b, c.ID} {
		addr, ok := net.AddrOf(id)
		if !ok {
			t.Fatalf("node %d has no address", id)
		}
		if owner, dup := owners[addr]; dup {
			t.Fatalf("nodes %d and %d share address %v", owner, id, addr)
		}
		owners[addr] = id
	}
}

// TestUnaddressedNodeForwardsZeroDst: a node without an address owns no
// destination, the zero address included, so a packet for 0.0.0.0 is routed
// (and, with no entry for it, dropped as no-route) rather than delivered.
func TestUnaddressedNodeForwardsZeroDst(t *testing.T) {
	loop, net, _, _, _, _ := lineNet(t, unit.Mbps, time.Millisecond, unit.MB)
	b := net.Node(1)
	if err := b.Register(9001, &sink{loop: loop}); err != nil {
		t.Fatal(err)
	}
	rec := &recorder{loop: loop}
	net.AttachTap(rec)
	b.Send(dataPkt(0, 0, 1, 100))
	if len(rec.drops) != 1 || rec.drops[0] != DropNoRoute {
		t.Fatalf("drops = %v, want [no-route]", rec.drops)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() []sim.Time {
		loop, net, a, c, aAddr, cAddr := lineNet(t, 10*unit.Mbps, time.Millisecond, 20*unit.KB)
		net.Link(0).SetLoss(0.1, sim.NewRand(99))
		s := &sink{loop: loop}
		if err := c.Register(9001, s); err != nil {
			t.Fatal(err)
		}
		loop.Schedule(0, func() {
			for i := 0; i < 200; i++ {
				a.Send(dataPkt(aAddr, cAddr, 1, 1000))
			}
		})
		if err := loop.Run(); err != nil {
			t.Fatal(err)
		}
		return s.at
	}
	a1, a2 := run(), run()
	if len(a1) != len(a2) {
		t.Fatalf("runs differ in length: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("runs diverge at %d", i)
		}
	}
}

func TestAutoQueueSizing(t *testing.T) {
	g := topo.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	g.AddLink(a, b, 100*unit.Mbps, time.Millisecond, 0) // auto
	g.AddLink(b, a, unit.Kbps, time.Millisecond, 0)     // auto, tiny rate
	net, err := New(sim.NewLoop(), g, route.NewTagTable(g))
	if err != nil {
		t.Fatal(err)
	}
	// 100 Mbps * 10 ms = 125000 bytes.
	if got := net.Link(0).QueueCap(); got != 125000 {
		t.Fatalf("auto queue = %d, want 125000", got)
	}
	// Tiny link clamps to the minimum.
	if got := net.Link(1).QueueCap(); got != MinQueue {
		t.Fatalf("min queue = %d, want %d", got, MinQueue)
	}
}

func TestLinkDownDrainsQueueAndCutsFrame(t *testing.T) {
	// 1 Mbps => 10 ms per 1250B frame. Burst of 5, link down at 15 ms:
	// frame 1 left the transmitter (propagating: survives), frame 2 is
	// mid-serialisation (cut), frames 3-5 are queued (drained).
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, 5*time.Millisecond, 100*unit.KB)
	rec := &recorder{loop: loop}
	net.AttachTap(rec)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	payload := 1250 - packet.IPv4HeaderLen - packet.UDPHeaderLen
	loop.Schedule(0, func() {
		for i := 0; i < 5; i++ {
			a.Send(dataPkt(aAddr, cAddr, 1, payload))
		}
	})
	ab := net.Link(0)
	loop.Schedule(15*time.Millisecond, ab.SetDown)
	// A late packet offered to the dead link is dropped on admission.
	loop.Schedule(30*time.Millisecond, func() { a.Send(dataPkt(aAddr, cAddr, 1, payload)) })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d, want 1 (only the frame already past the cut)", len(s.pkts))
	}
	if !ab.down {
		t.Fatal("link not down")
	}
	if got := ab.Counters.Drops[DropLinkDown]; got != 5 {
		t.Fatalf("link-down drops = %d, want 5 (3 queued + 1 cut + 1 late)", got)
	}
	if ab.queuedBytes != 0 {
		t.Fatalf("queue not drained: %v", ab.queuedBytes)
	}
}

func TestLinkUpResumesTraffic(t *testing.T) {
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, 100*unit.KB)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	ab := net.Link(0)
	loop.Schedule(0, ab.SetDown)
	payload := 1250 - packet.IPv4HeaderLen - packet.UDPHeaderLen
	loop.Schedule(10*time.Millisecond, func() { a.Send(dataPkt(aAddr, cAddr, 1, payload)) })
	loop.Schedule(20*time.Millisecond, ab.SetUp)
	loop.Schedule(30*time.Millisecond, func() { a.Send(dataPkt(aAddr, cAddr, 1, payload)) })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d, want 1 (the packet sent after SetUp)", len(s.pkts))
	}
	if ab.Counters.Drops[DropLinkDown] != 1 {
		t.Fatalf("link-down drops = %d, want 1", ab.Counters.Drops[DropLinkDown])
	}
}

func TestSetRateRepacesNextFrame(t *testing.T) {
	// Two back-to-back 1250B frames at 1 Mbps (10 ms each). Rate doubles at
	// 5 ms: frame 1 completes at the committed 10 ms pace, frame 2 at 5 ms.
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, 100*unit.KB)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	payload := 1250 - packet.IPv4HeaderLen - packet.UDPHeaderLen
	loop.Schedule(0, func() {
		a.Send(dataPkt(aAddr, cAddr, 1, payload))
		a.Send(dataPkt(aAddr, cAddr, 1, payload))
	})
	loop.Schedule(5*time.Millisecond, func() {
		net.Link(0).SetRate(2 * unit.Mbps)
		net.Link(1).SetRate(2 * unit.Mbps)
	})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.at) != 2 {
		t.Fatalf("delivered %d, want 2", len(s.at))
	}
	// Frame 1: 10ms (a->b, old rate) + 1ms + 5ms (b->c, new rate) + 1ms = 17ms.
	// Frame 2: starts a->b at 10ms at the new rate (5ms), b->c 5ms: 22ms.
	if s.at[0] != sim.Time(17*time.Millisecond) || s.at[1] != sim.Time(22*time.Millisecond) {
		t.Fatalf("arrivals %v, want [17ms 22ms]", s.at)
	}
}

func TestSetDelayNeverReorders(t *testing.T) {
	// A large delay cut between two frames: without the arrival clamp the
	// second frame would overtake the first inside the wire.
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, 50*time.Millisecond, 100*unit.KB)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	loop.Schedule(0, func() {
		a.Send(dataPkt(aAddr, cAddr, 1, 100))
		a.Send(dataPkt(aAddr, cAddr, 1, 200))
	})
	loop.Schedule(time.Millisecond, func() {
		net.Link(0).SetDelay(time.Microsecond)
		net.Link(1).SetDelay(time.Microsecond)
	})
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.pkts) != 2 {
		t.Fatalf("delivered %d, want 2", len(s.pkts))
	}
	if s.pkts[0].PayloadLen != 100 || s.pkts[1].PayloadLen != 200 {
		t.Fatalf("reordered: payloads %d, %d", s.pkts[0].PayloadLen, s.pkts[1].PayloadLen)
	}
	if s.at[1] < s.at[0] {
		t.Fatalf("arrival times inverted: %v", s.at)
	}
}

func TestSetLossProbRuntimeChange(t *testing.T) {
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Gbps, time.Microsecond, unit.MB)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	ab := net.Link(0)
	ab.SetLoss(0, sim.NewRand(5))
	if !ab.HasLossRng() {
		t.Fatal("loss RNG not installed")
	}
	const n = 500
	send := func() {
		for i := 0; i < n; i++ {
			a.Send(dataPkt(aAddr, cAddr, 1, 100))
		}
	}
	loop.Schedule(0, send)                                           // lossless phase
	loop.Schedule(10*time.Millisecond, func() { ab.SetLossProb(1) }) // total loss
	loop.Schedule(20*time.Millisecond, send)                         // all dropped
	loop.Schedule(30*time.Millisecond, func() { ab.SetLossProb(0) }) // restored
	loop.Schedule(40*time.Millisecond, send)                         // lossless again
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.pkts) != 2*n {
		t.Fatalf("delivered %d, want %d", len(s.pkts), 2*n)
	}
	if ab.Counters.Drops[DropRandom] != n {
		t.Fatalf("random drops = %d, want %d", ab.Counters.Drops[DropRandom], n)
	}
	if ab.LossProb() != 0 {
		t.Fatalf("loss prob = %v after restore", ab.LossProb())
	}
}

func TestCutFrameStaysCutAcrossQuickUp(t *testing.T) {
	// 1 Mbps => 10 ms per 1250B frame. The frame starts at t=0; the link
	// flaps down at 2 ms and up at 5 ms, both before tx-completion at
	// 10 ms: the severed frame must not be resurrected, but a packet sent
	// after the flap must flow.
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, 100*unit.KB)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	ab := net.Link(0)
	payload := 1250 - packet.IPv4HeaderLen - packet.UDPHeaderLen
	loop.Schedule(0, func() { a.Send(dataPkt(aAddr, cAddr, 1, payload)) })
	loop.Schedule(2*time.Millisecond, ab.SetDown)
	loop.Schedule(5*time.Millisecond, ab.SetUp)
	loop.Schedule(20*time.Millisecond, func() { a.Send(dataPkt(aAddr, cAddr, 1, payload)) })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d, want 1 (the post-flap packet only)", len(s.pkts))
	}
	if ab.Counters.Drops[DropLinkDown] != 1 {
		t.Fatalf("link-down drops = %d, want 1 (the cut frame)", ab.Counters.Drops[DropLinkDown])
	}
	// The resurrected-frame bug would also have counted it as transmitted.
	if ab.Counters.TxPackets != 1 {
		t.Fatalf("TxPackets = %d, want 1", ab.Counters.TxPackets)
	}
}

func TestQueueAfterQuickUpResumesOnCutCompletion(t *testing.T) {
	// A packet enqueued between SetUp and the severed frame's
	// tx-completion must not stall waiting for another enqueue.
	loop, net, a, c, aAddr, cAddr := lineNet(t, unit.Mbps, time.Millisecond, 100*unit.KB)
	s := &sink{loop: loop}
	if err := c.Register(9001, s); err != nil {
		t.Fatal(err)
	}
	ab := net.Link(0)
	payload := 1250 - packet.IPv4HeaderLen - packet.UDPHeaderLen
	loop.Schedule(0, func() { a.Send(dataPkt(aAddr, cAddr, 1, payload)) })
	loop.Schedule(2*time.Millisecond, ab.SetDown)
	loop.Schedule(5*time.Millisecond, ab.SetUp)
	// Enqueued at 7 ms: before the cut frame's completion at 10 ms.
	loop.Schedule(7*time.Millisecond, func() { a.Send(dataPkt(aAddr, cAddr, 1, payload)) })
	if err := loop.Run(); err != nil {
		t.Fatal(err)
	}
	if len(s.pkts) != 1 {
		t.Fatalf("delivered %d, want 1 (queued packet resumed after the cut)", len(s.pkts))
	}
}
