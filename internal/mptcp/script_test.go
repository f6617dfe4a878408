package mptcp

// Scripted conformance, one level above internal/tcp's: the script owns one
// link of the first subflow's path, drops the first of that subflow's data
// segments to reach it at or after a fixed virtual time (or every new one
// until the RTO), and records every mapping that passes, so the recovery can
// be asserted at exact times. The receive-window script watches the sending
// host instead: every segment it sends and every ACK it receives. The
// coupled-increase scripts (LIA, OLIA, BALIA) watch it too, and read both
// subflows' congestion windows around one ACK. The join-demultiplexing
// script watches the receiving host: every SYN, and which connection each
// data segment is accounted to.

import (
	"reflect"
	"testing"
	"time"

	"mptcpsim/internal/cc"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/tcp"
)

// mappedSeg is one data segment of the scripted subflow seen on the
// script's link.
type mappedSeg struct {
	at      sim.Time
	dss     packet.DSS
	dropped bool
}

// dropScript is the link's admission policy. It drops the first segment at
// or after dropAt; with blackout set it drops every new segment from then
// on, until the first retransmission (the RTO's) passes.
type dropScript struct {
	loop     *sim.Loop
	tag      packet.Tag
	dropAt   sim.Time
	blackout bool
	done     bool
	next     uint32 // the subflow sequence number past every segment seen
	seen     []mappedSeg
}

func (d *dropScript) OnEnqueue(_ *netem.Link, p *packet.Packet) bool {
	if p.IP.Tag != d.tag || p.TCP == nil || p.PayloadLen == 0 {
		return false
	}
	s := mappedSeg{at: d.loop.Now()}
	if dss := p.TCP.DSS(); dss != nil {
		s.dss = *dss // the packet's storage is recycled after delivery
	}
	switch {
	case d.done || s.at < d.dropAt:
	case d.blackout && s.dss.SubflowSeq < d.next:
		d.done = true
	default:
		d.done, s.dropped = !d.blackout, true
	}
	d.next = max(d.next, s.dss.SubflowSeq+uint32(p.PayloadLen))
	d.seen = append(d.seen, s)
	return s.dropped
}

// TestScriptRTOKeepsMapping: 20 segments over two subflows, Path 2 (RTT
// 8 ms, the script's) established first and Path 3 a millisecond later; the
// last segment the first subflow sends is dropped, so no duplicate ACK can
// follow and only the RTO repairs it. The retransmission must carry the
// dropped segment's own mapping, and the receiver must account for every
// byte once.
//
// minrtt: the first subflow's initial window is DSN 0–14000, the second
// takes the rest. Nine segments arrive; the ACK of the odd ninth is delayed
// 40 ms, reaches the sender at 59 ms and arms the 200 ms RTO for the last
// time. redundant: both subflows carry all 20, the first sends its second
// ten on the ACK clock of its first, 19 arrive, and the second subflow's
// copy of the dropped bytes is delivered long before the retransmission,
// which is a duplicate like everything else the second subflow carried.
func TestScriptRTOKeepsMapping(t *testing.T) {
	const mss, total = 1400, 20 * 1400
	for _, tc := range []struct {
		sched                    string
		dropAt, droppedAt, rtxAt sim.Time
		dsn                      uint64
		dupBytes                 uint64
	}{
		{"minrtt", 11_900_000, 11_981_278, 260_435_197, 9 * mss, 0},
		{"redundant", 21_000_000, 21_019_197, 270_856_013, 19 * mss, total},
	} {
		t.Run(tc.sched, func(t *testing.T) {
			r := newPaperRig(t, 23)
			script := &dropScript{loop: r.loop, tag: 2, dropAt: tc.dropAt}
			r.net.Link(r.pn.Paths[1].Links[1]).SetAQM(script)
			c := r.dial(t, Config{Algorithm: "reno", Scheduler: tc.sched, Source: &Fixed{Total: total},
				Subflows: []SubflowSpec{{Tag: 2, Label: "Path 2"}, {Tag: 3, Label: "Path 3", StartDelay: time.Millisecond}}})
			if err := r.loop.RunUntil(sim.Time(0).Add(time.Second)); err != nil {
				t.Fatal(err)
			}

			// Every first transmission in order, then the one retransmission.
			want := packet.DSS{HasMap: true, DSN: tc.dsn, SubflowSeq: uint32(tc.dsn), DataLen: mss}
			first := int(tc.dsn / mss)
			if len(script.seen) != first+2 {
				t.Fatalf("%d data segments crossed the link, want %d", len(script.seen), first+2)
			}
			for i, s := range script.seen[:first+1] {
				if s.dss.SubflowSeq != uint32(i*mss) || s.dropped != (i == first) {
					t.Fatalf("segment %d: %+v", i, s)
				}
			}
			dropped, rtx := script.seen[first], script.seen[first+1]
			if dropped.at != tc.droppedAt || dropped.dss != want {
				t.Fatalf("dropped %+v at %d, want %+v at %d", dropped.dss, dropped.at, want, tc.droppedAt)
			}
			if rtx.at != tc.rtxAt || rtx.dss != want {
				t.Fatalf("retransmitted %+v at %d, want %+v at %d", rtx.dss, rtx.at, want, tc.rtxAt)
			}
			st := c.Subflows()[0].TCP.Stats
			if st.RTOs != 1 || st.Retransmits != 1 || st.FastRecovery != 0 {
				t.Fatalf("first subflow: %d RTOs, %d retransmits, %d fast recoveries, want 1, 1, 0", st.RTOs, st.Retransmits, st.FastRecovery)
			}
			if n := c.Subflows()[1].TCP.Stats.Retransmits; n != 0 {
				t.Fatalf("second subflow retransmitted %d segments", n)
			}

			rc := r.recvConn(t)
			if rc.Delivered != c.AssignedBytes() || rc.Delivered != total {
				t.Fatalf("delivered %d of %d assigned, want %d", rc.Delivered, c.AssignedBytes(), total)
			}
			if rc.DupBytes != tc.dupBytes {
				t.Fatalf("duplicate bytes %d, want %d", rc.DupBytes, tc.dupBytes)
			}
		})
	}
}

// recvLog is a tap at the receiving host: the connection-level state as each
// data segment reaches it, before the host has processed the segment — so
// entry i+1 shows what arrival i did.
type recvLog struct {
	loop *sim.Loop
	node *netem.Node
	acc  *Acceptor
	seen []recvState
}

type recvState struct {
	at                      sim.Time
	tag                     packet.Tag
	dsn                     uint64
	delivered, ooo, dataAck uint64
}

func (l *recvLog) OnDeliver(nd *netem.Node, p *packet.Packet) {
	if nd != l.node || p.PayloadLen == 0 {
		return
	}
	rc := l.acc.Conns()[0] // opened by the first SYN, long before any data
	l.seen = append(l.seen, recvState{l.loop.Now(), p.IP.Tag, p.TCP.DSS().DSN,
		rc.Delivered, rc.OOOBytes(), rc.DataAck()})
}
func (*recvLog) OnDrop(string, *packet.Packet, netem.DropReason, sim.Time) {}

// TestScriptHeadOfLineBlocking is the receiver's side of the minrtt case
// above: reassembly behind a real hole. The first subflow's nine delivered
// segments take the connection to DSN 12600, the dropped tenth is the hole,
// and the second subflow's ten segments (DSN 14000–28000, arriving 22.6 to
// 24.4 ms) can only be parked: Delivered and the data ACK stand still while
// the out-of-order queue grows by one segment per arrival. The RTO
// retransmission reaches the receiver at 263.9 ms and that one arrival
// drains the whole queue.
func TestScriptHeadOfLineBlocking(t *testing.T) {
	const mss, total, hole = 1400, 20 * 1400, 9 * 1400
	r := newPaperRig(t, 23)
	r.net.Link(r.pn.Paths[1].Links[1]).SetAQM(&dropScript{loop: r.loop, tag: 2, dropAt: 11_900_000})
	log := &recvLog{loop: r.loop, node: r.net.Node(r.pn.D), acc: r.acc}
	r.net.AttachTap(log)
	c := r.dial(t, Config{Algorithm: "reno", Scheduler: "minrtt", Source: &Fixed{Total: total},
		Subflows: []SubflowSpec{{Tag: 2, Label: "Path 2"}, {Tag: 3, Label: "Path 3", StartDelay: time.Millisecond}}})
	if err := r.loop.RunUntil(sim.Time(0).Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if len(log.seen) != 20 {
		t.Fatalf("%d data segments reached the receiver, want 20", len(log.seen))
	}
	for i, s := range log.seen {
		want := recvState{at: s.at, tag: 2, dsn: uint64(i * mss), delivered: uint64(i * mss), dataAck: uint64(i * mss)}
		switch {
		case i >= 9 && i < 19: // blocked: the other subflow's arrivals pile up behind the hole
			want.tag, want.dsn = 3, uint64((i+1)*mss)
			want.delivered, want.ooo, want.dataAck = hole, uint64((i-9)*mss), hole
		case i == 19: // the retransmission finds all ten of them parked
			want.dsn, want.delivered, want.ooo, want.dataAck = hole, hole, 10*mss, hole
		}
		if s != want {
			t.Fatalf("arrival %d: %+v, want %+v", i, s, want)
		}
	}
	for i, at := range map[int]sim.Time{9: 22_618_370, 18: 24_370_364, 19: 263_863_463} {
		if log.seen[i].at != at {
			t.Fatalf("arrival %d at %d, want %d", i, log.seen[i].at, at)
		}
	}
	if st := c.Subflows()[0].TCP.Stats; st.RTOs != 1 || st.FastRecovery != 0 {
		t.Fatalf("first subflow: %d RTOs, %d fast recoveries, want the RTO alone", st.RTOs, st.FastRecovery)
	}
	// What the twentieth arrival did: one step from the hole to the end.
	rc := r.recvConn(t)
	if rc.Delivered != c.AssignedBytes() || rc.Delivered != total || rc.OOOBytes() != 0 ||
		rc.DataAck() != total || rc.DupBytes != 0 {
		t.Fatalf("after the retransmission: delivered %d of %d assigned, %d parked, data ACK %d, %d duplicate bytes",
			rc.Delivered, c.AssignedBytes(), rc.OOOBytes(), rc.DataAck(), rc.DupBytes)
	}
}

// TestScriptRTODoesNotReinject pins that the engine does not reinject: data
// a subflow lost stays on that subflow until its own RTO repairs it, even
// while another subflow sits idle. 60 segments over Path 2 (the script's)
// and Path 3 a millisecond later, minrtt. From 20 ms every new segment on
// Path 2 is dropped: the last six of its second flight and the whole third,
// 26 segments, DSN 36400–72800, with no ACK to clock a fast retransmit. Path
// 3 takes its initial window (DSN 14000–28000) and the last eight segments
// of the transfer, and has nothing to send after 30.6 ms. The RTO fires at
// 229.3 ms; Path 2 then resends all 26 segments itself, in order and under
// their own mappings, until 308.1 ms, and Path 3 carries none of them.
func TestScriptRTODoesNotReinject(t *testing.T) {
	const mss, total = 1400, 60 * 1400
	const lostFrom, lostTo = 36400, 72800 // the DSNs Path 2 lost
	r := newPaperRig(t, 23)
	lost := &dropScript{loop: r.loop, tag: 2, dropAt: 20_000_000, blackout: true}
	r.net.Link(r.pn.Paths[1].Links[1]).SetAQM(lost)
	other := &dropScript{loop: r.loop, tag: 3, dropAt: sim.End} // records, never drops
	r.net.Link(r.pn.Paths[2].Links[0]).SetAQM(other)
	c := r.dial(t, Config{Algorithm: "reno", Scheduler: "minrtt", Source: &Fixed{Total: total},
		Subflows: []SubflowSpec{{Tag: 2, Label: "Path 2"}, {Tag: 3, Label: "Path 3", StartDelay: time.Millisecond}}})
	if err := r.loop.RunUntil(sim.Time(0).Add(time.Second)); err != nil {
		t.Fatal(err)
	}

	// Path 2: 16 segments through, 26 dropped, then the same 26 again.
	const through, dropped = 16, (lostTo - lostFrom) / mss
	if len(lost.seen) != through+2*dropped {
		t.Fatalf("%d data segments crossed Path 2, want %d", len(lost.seen), through+2*dropped)
	}
	for i, s := range lost.seen[through:] {
		k := i % dropped
		want := packet.DSS{HasMap: true, DSN: uint64(lostFrom + k*mss), SubflowSeq: uint32((through + k) * mss), DataLen: mss}
		if s.dss != want || s.dropped != (i < dropped) {
			t.Fatalf("Path 2 segment %d at %d: %+v dropped %v, want %+v dropped %v", through+i, s.at, s.dss, s.dropped, want, i < dropped)
		}
	}
	for i, at := range map[int]sim.Time{through: 20_143_197, through + dropped: 229_298_685, len(lost.seen) - 1: 308_078_361} {
		if lost.seen[i].at != at {
			t.Fatalf("Path 2 segment %d at %d, want %d", i, lost.seen[i].at, at)
		}
	}

	// Path 3: only new data, all of it sent long before the RTO.
	if len(other.seen) != 18 {
		t.Fatalf("%d data segments crossed Path 3, want 18", len(other.seen))
	}
	for i, s := range other.seen {
		dsn := uint64(14000 + i*mss)
		if i >= 10 {
			dsn = uint64(lostTo + (i-10)*mss)
		}
		if s.dss.DSN != dsn || s.dss.SubflowSeq != uint32(i*mss) {
			t.Fatalf("Path 3 segment %d at %d: %+v, want DSN %d", i, s.at, s.dss, dsn)
		}
	}
	if at := other.seen[17].at; at != 30_612_153 {
		t.Fatalf("Path 3's last segment at %d, want 30612153", at)
	}

	if st := c.Subflows()[0].TCP.Stats; st.RTOs != 1 || st.Retransmits != dropped || st.FastRecovery != 0 {
		t.Fatalf("Path 2: %d RTOs, %d retransmits, %d fast recoveries, want 1, %d, 0", st.RTOs, st.Retransmits, st.FastRecovery, dropped)
	}
	if n := c.Subflows()[1].TCP.Stats.Retransmits; n != 0 {
		t.Fatalf("Path 3 retransmitted %d segments", n)
	}
	rc := r.recvConn(t)
	if rc.Delivered != total || rc.DupBytes != 0 {
		t.Fatalf("delivered %d, %d duplicate bytes, want %d, 0", rc.Delivered, rc.DupBytes, total)
	}
}

// windowLog is a tap at the sending host: every data segment it sends and
// every ACK it receives, per subflow, with subflow sequence numbers made
// relative to the subflow's initial sequence number.
type windowLog struct {
	loop *sim.Loop
	node *netem.Node
	iss  map[packet.Tag]uint32
	seen []windowEvent
}

// windowEvent is one data segment sent (end is one past its last byte) or
// one ACK received (end is the cumulative ACK, window the advertised
// window).
type windowEvent struct {
	at              sim.Time
	tag             packet.Tag
	ack             bool
	end             uint32
	window          uint32
	dsnEnd, dataAck uint64
}

func (l *windowLog) OnSend(nd *netem.Node, p *packet.Packet) {
	if nd != l.node || p.TCP == nil {
		return
	}
	if p.TCP.Flags&packet.FlagSYN != 0 {
		l.iss[p.IP.Tag] = p.TCP.Seq
	}
	if p.PayloadLen == 0 {
		return
	}
	e := windowEvent{at: l.loop.Now(), tag: p.IP.Tag, end: p.TCP.Seq + uint32(p.PayloadLen) - l.iss[p.IP.Tag] - 1}
	if dss := p.TCP.DSS(); dss != nil {
		e.dsnEnd = dss.DSN + uint64(dss.DataLen)
	}
	l.seen = append(l.seen, e)
}

func (l *windowLog) OnDeliver(nd *netem.Node, p *packet.Packet) {
	if nd != l.node || p.TCP == nil || p.TCP.Flags&packet.FlagACK == 0 {
		return
	}
	e := windowEvent{at: l.loop.Now(), tag: p.IP.Tag, ack: true, end: p.TCP.Ack - l.iss[p.IP.Tag] - 1, window: p.TCP.Window}
	if dss := p.TCP.DSS(); dss != nil && dss.HasAck {
		e.dataAck = dss.DataAck
	}
	l.seen = append(l.seen, e)
}
func (*windowLog) OnDrop(string, *packet.Packet, netem.DropReason, sim.Time) {}

// TestScriptReceiveWindow pins how the engine enforces a receiver's window:
// per subflow, and only per subflow. The receiver advertises an 8-segment
// RcvBuf on each of two subflows, Path 2 and Path 3 a
// millisecond later; 60 segments, minrtt, under Reno's 10-segment initial
// window. Each subflow's unacknowledged data never exceeds the window its
// own ACKs advertise: the first flights are 8 segments, not 10, and a
// subflow whose window is full is granted nothing until its next ACK
// (which carries the next data ACK) arrives, and then exactly the bytes
// that ACK freed, at the ACK's own virtual time. There is no
// connection-level receive window: with both first flights out at 15.04 ms
// the connection has twice the advertised window unacknowledged, and at
// 26.84 ms 19 segments, while Path 2's later segments, acknowledged on
// their subflow, wait at the receiver behind Path 3's slower first flight.
func TestScriptReceiveWindow(t *testing.T) {
	const mss, total, rcvBuf = 1400, 60 * 1400, 8 * 1400
	r := newPaperRig(t, 23)
	acc := &Acceptor{}
	if err := Listen(r.recvr, 5002, tcp.Config{RcvBuf: rcvBuf}, acc); err != nil {
		t.Fatal(err)
	}
	log := &windowLog{loop: r.loop, node: r.net.Node(r.pn.S), iss: map[packet.Tag]uint32{}}
	r.net.AttachTap(log)
	c, err := Dial(r.sender, sim.NewRand(100), Config{Algorithm: "reno", Scheduler: "minrtt", Source: &Fixed{Total: total},
		Subflows: []SubflowSpec{{Tag: 2, Label: "Path 2"}, {Tag: 3, Label: "Path 3", StartDelay: time.Millisecond}}},
		r.recvr.Addr, 5002)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.loop.RunUntil(sim.Time(0).Add(time.Second)); err != nil {
		t.Fatal(err)
	}

	acked := map[packet.Tag]windowEvent{} // each subflow's latest ACK
	var assigned, peak uint64             // DSN end granted so far; most ever unacknowledged
	var peakAt sim.Time
	sent, fills := map[packet.Tag]int{}, 0
	for i, e := range log.seen {
		last, ok := acked[e.tag]
		if e.ack {
			if e.window != rcvBuf {
				t.Fatalf("event %d: %+v advertises %d, want %d", i, e, e.window, rcvBuf)
			}
			acked[e.tag] = e
			continue
		}
		// Data: granted in DSN order, one new segment each (nothing is lost),
		// within the window of the subflow's latest ACK.
		if !ok || e.dsnEnd != assigned+mss || e.end-last.end > last.window {
			t.Fatalf("event %d: %+v sent over %+v after DSN %d", i, e, last, assigned)
		}
		assigned = e.dsnEnd
		if sent[e.tag]++; e.end-last.end == last.window {
			fills++
		}
		// A grant only ever comes from the ACK just received: a subflow
		// never sends later than the ACK that opened its window.
		if e.at != last.at {
			t.Fatalf("event %d: %+v sent at %d, its subflow's last ACK came at %d", i, e, e.at, last.at)
		}
		var dataAck uint64
		for _, a := range acked {
			dataAck = max(dataAck, a.dataAck)
		}
		if assigned-dataAck > peak {
			peak, peakAt = assigned-dataAck, e.at
		}
	}
	// Every burst fills its subflow's window: the two first flights and
	// each of the 15 + 7 two-segment grants that followed.
	if assigned != total || sent[2] != 38 || sent[3] != 22 || fills != 24 {
		t.Fatalf("granted %d bytes, %d segments on Path 2 and %d on Path 3, %d window fills; want %d, 38, 22, 24",
			assigned, sent[2], sent[3], fills, total)
	}
	if peak != 19*mss || peakAt != 26_838_689 {
		t.Fatalf("connection peak unacknowledged %d at %d, want %d at 26838689", peak, peakAt, 19*mss)
	}
	// Exact times: Path 2's 8-segment first flight at 8.05 ms, Path 3's at
	// 15.04 ms with no data ACK yet, and Path 2's first ACKs at 17.10 and
	// 17.68 ms, each freeing two segments.
	for i, want := range map[int]windowEvent{
		0:  {at: 8_053_278, tag: 2, ack: true, window: rcvBuf},
		8:  {at: 8_053_278, tag: 2, end: rcvBuf, dsnEnd: rcvBuf},
		9:  {at: 15_040_904, tag: 3, ack: true, window: rcvBuf},
		17: {at: 15_040_904, tag: 3, end: rcvBuf, dsnEnd: 2 * rcvBuf},
		18: {at: 17_099_197, tag: 2, ack: true, end: 2 * mss, window: rcvBuf, dataAck: 2 * mss},
		20: {at: 17_099_197, tag: 2, end: rcvBuf + 2*mss, dsnEnd: 2*rcvBuf + 2*mss},
		21: {at: 17_683_197, tag: 2, ack: true, end: 4 * mss, window: rcvBuf, dataAck: 4 * mss},
	} {
		if log.seen[i] != want {
			t.Fatalf("event %d: %+v, want %+v", i, log.seen[i], want)
		}
	}
	if rc := acc.Conns()[0]; rc.Delivered != total || c.AssignedBytes() != total {
		t.Fatalf("delivered %d of %d assigned, want %d", rc.Delivered, c.AssignedBytes(), total)
	}
}

// liaProbe is a tap at the sending host. At the first ACK on tag at or
// after from that acknowledges new data, it records how many bytes the ACK
// newly acknowledges and snapshots both subflows' congestion state: before
// the host processes the ACK, and again once the ACK's own event has
// finished.
type liaProbe struct {
	loop          *sim.Loop
	node          *netem.Node
	conn          *Conn
	tag           packet.Tag
	from          sim.Time
	lastAck       uint32 // the latest cumulative ACK on tag; 0 before the first
	at            sim.Time
	acked         uint32
	before, after [2]cc.Flow
	// onBefore, if set, runs beside the before snapshot, for the state an
	// algorithm keeps behind a flow's context pointer, which both share.
	onBefore func(*liaProbe)
}

func (p *liaProbe) flows() [2]cc.Flow {
	sfs := p.conn.Subflows()
	return [2]cc.Flow{sfs[0].TCP.Flow, sfs[1].TCP.Flow}
}

func (p *liaProbe) OnDeliver(nd *netem.Node, pkt *packet.Packet) {
	if nd != p.node || pkt.IP.Tag != p.tag || pkt.TCP == nil || pkt.TCP.Flags&packet.FlagACK == 0 {
		return
	}
	prev := p.lastAck
	p.lastAck = pkt.TCP.Ack
	if p.at != 0 || prev == 0 || p.loop.Now() < p.from || pkt.TCP.Ack == prev {
		return
	}
	p.at, p.acked, p.before = p.loop.Now(), pkt.TCP.Ack-prev, p.flows()
	if p.onBefore != nil {
		p.onBefore(p)
	}
	p.loop.Schedule(0, func() { p.after = p.flows() })
}
func (*liaProbe) OnDrop(string, *packet.Packet, netem.DropReason, sim.Time) {}

// probeIncrease runs a bulk connection under algo over Path 2 and Path 3
// (subflows 0 and 1), a millisecond apart, and probes the first ACK the
// path tag receives from 3 s on. By then each subflow has been through fast
// recovery and sits in congestion avoidance, and the other subflow's window
// must not move on the ACK: both are checked.
func probeIncrease(t *testing.T, algo string, tag packet.Tag, onBefore func(*liaProbe)) *liaProbe {
	t.Helper()
	r := newPaperRig(t, 23)
	p := &liaProbe{loop: r.loop, node: r.net.Node(r.pn.S), tag: tag, from: sim.Time(0).Add(3 * time.Second), onBefore: onBefore}
	r.net.AttachTap(p)
	p.conn = r.dial(t, Config{Algorithm: algo, Scheduler: "minrtt",
		Subflows: []SubflowSpec{{Tag: 2, Label: "Path 2"}, {Tag: 3, Label: "Path 3", StartDelay: time.Millisecond}}})
	if err := r.loop.RunUntil(p.from.Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for k, f := range p.before {
		if f.MSS != 1400 || f.InSlowStart() || f.SRTT <= 0 {
			t.Fatalf("subflow %d before the ACK: %+v, want congestion avoidance with an RTT sample", k, f)
		}
	}
	if o := 5 - tag; p.after[o-2].Cwnd != p.before[o-2].Cwnd {
		t.Fatalf("Path %d cwnd moved %v -> %v on Path %d's ACK", o, p.before[o-2].Cwnd, p.after[o-2].Cwnd, tag)
	}
	return p
}

// TestScriptLIAIncrease: under LIA, the first ACK Path 2 receives from 3 s
// on arrives at 3.000429283 s and newly acknowledges two segments. Its cwnd
// must grow by exactly the RFC 6356 §3 increase
//
//	min(alpha * acked * MSS / (w_1 + w_2), acked * MSS / w_i)
//	alpha = (w_1 + w_2) * max_k(w_k / rtt_k^2) / (sum_k w_k / rtt_k)^2
//
// computed here by hand from both subflows' windows at that instant and the
// smoothed RTTs the ACK left them with. The coupled term binds. Path 3's
// window does not move.
func TestScriptLIAIncrease(t *testing.T) {
	const mss = 1400
	probe := probeIncrease(t, "lia", 2, nil)
	if probe.at != 3_000_429_283 || probe.acked != 2*mss {
		t.Fatalf("probed ACK at %d acknowledges %d bytes, want 3000429283 and %d", probe.at, probe.acked, 2*mss)
	}
	b, a := probe.before, probe.after
	w1, w2 := b[0].Cwnd, b[1].Cwnd
	rtt1, rtt2 := a[0].SRTT.Seconds(), a[1].SRTT.Seconds()
	total := w1 + w2
	alpha := total * max(w1/(rtt1*rtt1), w2/(rtt2*rtt2)) / ((w1/rtt1 + w2/rtt2) * (w1/rtt1 + w2/rtt2))
	coupled := alpha * float64(probe.acked) * mss / total
	single := float64(probe.acked) * mss / w1
	if coupled >= single {
		t.Fatalf("coupled increase %v does not bind against %v", coupled, single)
	}
	if want := w1 + coupled; a[0].Cwnd != want {
		t.Fatalf("Path 2 cwnd %v -> %v (+%v), want +%v (alpha %v)", w1, a[0].Cwnd, a[0].Cwnd-w1, coupled, alpha)
	}
}

// oliaLoss reads OLIA's inter-loss byte counts off a flow: l1 since its
// last loss, l2 between the two before. cc keeps them behind the flow's
// private context.
func oliaLoss(f *cc.Flow) (l1, l2 float64) {
	st := reflect.ValueOf(f).Elem().FieldByName("ctx").Elem().Elem()
	return st.FieldByName("l1").Float(), st.FieldByName("l2").Float()
}

// TestScriptOLIAIncrease: the same ACK under OLIA (Khalili et al., "MPTCP
// Is Not Pareto-Optimal") arrives at 3.000134639 s and newly acknowledges
// two segments. With windows w in segments, l_k the larger of path k's two
// inter-loss byte counts (the ACK's own bytes counted in), M the paths of
// largest window and B those of largest l_k^2 / w_k, Path 2's cwnd must
// grow by exactly
//
//	( (w_2 / rtt_2^2) / (sum_k w_k / rtt_k)^2 + alpha_2 / w_2 ) * acked
//	alpha_r = 1 / (n * |B \ M|) for r in B \ M, -1 / (n * |M|) for r in M
//	          when B \ M is not empty, 0 otherwise.
//
// Path 2 holds the largest window and Path 3 the best inter-loss record, so
// Path 2 gives up window: alpha_2 = -1/2. Path 3's window does not move.
func TestScriptOLIAIncrease(t *testing.T) {
	const mss, n = 1400, 2
	var l [2]float64
	probe := probeIncrease(t, "olia", 2, func(p *liaProbe) {
		for k, sf := range p.conn.Subflows()[:2] {
			l1, l2 := oliaLoss(&sf.TCP.Flow)
			if k == 0 {
				l1 += float64(p.acked)
			}
			l[k] = max(l1, l2)
		}
	})
	if probe.at != 3_000_134_639 || probe.acked != 2*mss {
		t.Fatalf("probed ACK at %d acknowledges %d bytes, want 3000134639 and %d", probe.at, probe.acked, 2*mss)
	}
	b, a := probe.before, probe.after
	w := [2]float64{b[0].Cwnd / mss, b[1].Cwnd / mss}
	rtt := [2]float64{a[0].SRTT.Seconds(), a[1].SRTT.Seconds()}
	// The sets, strictly: no tie within the 1e-4 OLIA's implementation
	// allows for.
	if q0, q1 := l[0]*l[0]/w[0], l[1]*l[1]/w[1]; !(w[0] > 1.0001*w[1] && q1 > 1.0001*q0) {
		t.Fatalf("windows %v and l^2/w %v, %v: want Path 2 alone in M and Path 3 alone in B", w, q0, q1)
	}
	alpha := -1.0 / (n * 1)
	denom := w[0]/rtt[0] + w[1]/rtt[1]
	// float64() rounds the product before the sum, as OLIA does: no fused
	// multiply-add on any architecture.
	inc := float64(((w[0]/(rtt[0]*rtt[0]))/(denom*denom) + alpha/w[0]) * float64(probe.acked))
	if want := b[0].Cwnd + inc; a[0].Cwnd != want {
		t.Fatalf("Path 2 cwnd %v -> %v (%+v), want %+v", b[0].Cwnd, a[0].Cwnd, a[0].Cwnd-b[0].Cwnd, inc)
	}
}

// TestScriptBALIAIncrease: under BALIA (Peng et al., "Multipath TCP:
// Analysis, Design, and Implementation") the first ACK Path 3 receives from
// 3 s on arrives at 3.000995783 s and newly acknowledges two segments. With
// x_k = w_k / rtt_k (w in segments) and alpha = max_k x_k / x_3, Path 3's
// cwnd must grow by exactly
//
//	(x_3 / rtt_3) / (sum_k x_k)^2 * (1 + alpha)/2 * (4 + alpha)/5 * acked
//
// Path 2 carries about four times Path 3's rate, so alpha is near 4. Path
// 2's window does not move.
func TestScriptBALIAIncrease(t *testing.T) {
	const mss = 1400
	probe := probeIncrease(t, "balia", 3, nil)
	if probe.at != 3_000_995_783 || probe.acked != 2*mss {
		t.Fatalf("probed ACK at %d acknowledges %d bytes, want 3000995783 and %d", probe.at, probe.acked, 2*mss)
	}
	b, a := probe.before, probe.after
	rtt := [2]float64{a[0].SRTT.Seconds(), a[1].SRTT.Seconds()}
	x := [2]float64{b[0].Cwnd / mss / rtt[0], b[1].Cwnd / mss / rtt[1]}
	alpha := max(x[0], x[1]) / x[1]
	if alpha < 3 {
		t.Fatalf("rates %v give alpha %v, want Path 2's rate well above Path 3's", x, alpha)
	}
	inc := float64((x[1] / rtt[1]) / ((x[0] + x[1]) * (x[0] + x[1])) * (1 + alpha) / 2 * (4 + alpha) / 5 * float64(probe.acked))
	if want := b[1].Cwnd + inc; a[1].Cwnd != want {
		t.Fatalf("Path 3 cwnd %v -> %v (%+v), want %+v (alpha %v)", b[1].Cwnd, a[1].Cwnd, a[1].Cwnd-b[1].Cwnd, inc, alpha)
	}
}

// joinLog is a tap at the receiving host. It records every SYN as it
// arrives, before the acceptor matches it, and every data segment with the
// bytes each accepted connection had accounted for (delivered, parked or
// duplicate) at that moment, so entry i+1 shows what arrival i did.
type joinLog struct {
	loop  *sim.Loop
	node  *netem.Node
	acc   *Acceptor
	owner map[packet.Port]uint32 // each subflow's token, by sender port
	syns  []joinSyn
	data  []joinData
}

type joinSyn struct {
	at    sim.Time
	tag   packet.Tag
	token uint32
	join  bool
	conns int // connections accepted before this SYN
}

type joinData struct {
	at      sim.Time
	token   uint32
	n       int
	counted map[uint32]uint64
}

func (l *joinLog) OnDeliver(nd *netem.Node, p *packet.Packet) {
	if nd != l.node || p.TCP == nil {
		return
	}
	if p.TCP.Flags&packet.FlagSYN != 0 {
		s := joinSyn{at: l.loop.Now(), tag: p.IP.Tag, conns: len(l.acc.Conns())}
		switch o := p.TCP.Option(packet.KindMPTCP).(type) {
		case *packet.MPCapable:
			s.token = TokenFromKey(o.Key)
		case *packet.MPJoin:
			s.token, s.join = o.Token, true
		}
		l.owner[p.TCP.SrcPort] = s.token
		l.syns = append(l.syns, s)
	}
	if p.PayloadLen == 0 {
		return
	}
	d := joinData{at: l.loop.Now(), token: l.owner[p.TCP.SrcPort], n: p.PayloadLen, counted: l.counted()}
	l.data = append(l.data, d)
}
func (*joinLog) OnDrop(string, *packet.Packet, netem.DropReason, sim.Time) {}

// counted is what each accepted connection has accounted for, by token.
func (l *joinLog) counted() map[uint32]uint64 {
	m := map[uint32]uint64{}
	for _, rc := range l.acc.Conns() {
		m[rc.Token] = rc.Delivered + rc.OOOBytes() + rc.DupBytes
	}
	return m
}

// mappedData is a bare subflow's source: total bytes, each mapped at its
// own data sequence number from 0.
type mappedData struct{ sent, total int }

func (m *mappedData) Next(max int) (int, uint64, bool) {
	n := min(max, m.total-m.sent)
	m.sent += n
	return n, uint64(m.sent - n), n > 0
}

// TestScriptJoinDemultiplexing: two connections from one host dial one
// Acceptor, and their joins interleave. A opens on Path 2 at 0 and joins
// Path 1 at 1 ms and Path 3 at 2 ms (10 segments). B's MP_CAPABLE leaves on
// Path 1 only at 3 ms, but it joins Path 2 at 0 and Path 3 at 1.5 ms (7
// segments), so both of B's joins reach the receiver before its
// MP_CAPABLE. At 5 ms a bare subflow joins Path 3 with a token no
// connection has (3 segments).
//
// What the acceptor does with a token it does not know, pinned here and
// not endorsed: it opens a connection for it. B's first join opens B's
// connection at 4.04 ms, second in arrival order; B's later subflows,
// MP_CAPABLE included, attach to it by token. The bare subflow opens a
// stray third connection and its data is delivered there. Every data
// segment is accounted to the connection of the subflow that carried it,
// and to no other.
func TestScriptJoinDemultiplexing(t *testing.T) {
	const mss = 1400
	r := newPaperRig(t, 23)
	log := &joinLog{loop: r.loop, node: r.net.Node(r.pn.D), acc: r.acc, owner: map[packet.Port]uint32{}}
	r.net.AttachTap(log)
	a := r.dial(t, Config{Algorithm: "reno", Source: &Fixed{Total: 10 * mss}, Subflows: paperSubflows()})
	b := r.dial(t, Config{Algorithm: "reno", Source: &Fixed{Total: 7 * mss}, Subflows: []SubflowSpec{
		{Tag: 1, Label: "Path 1", StartDelay: 3 * time.Millisecond},
		{Tag: 2, Label: "Path 2"},
		{Tag: 3, Label: "Path 3", StartDelay: 1500 * time.Microsecond},
	}})
	const stray = 0x5eed
	r.loop.Schedule(5*time.Millisecond, func() {
		algo, err := cc.New("reno")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.sender.Dial(tcp.Config{Tag: 3, CC: algo, Source: &mappedData{total: 3 * mss},
			SynOptions: []packet.Option{&packet.MPJoin{Token: stray, AddrID: 1}}}, r.recvr.Addr, 5001); err != nil {
			t.Fatal(err)
		}
	})
	if err := r.loop.RunUntil(sim.Time(0).Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if a.Token == b.Token || a.Token == stray || b.Token == stray {
		t.Fatalf("tokens %x, %x and %x are not distinct", a.Token, b.Token, stray)
	}

	// In arrival order: A, then B's first join, which opens B; B's second
	// join, A's two, the bare subflow's, which opens the stray; B's
	// MP_CAPABLE last, 8 ms after B's connection opened.
	wantSyns := []joinSyn{
		{at: 4_029_600, tag: 2, token: a.Token, conns: 0},
		{at: 4_039_626, tag: 2, token: b.Token, join: true, conns: 1},
		{at: 8_522_026, tag: 3, token: b.Token, join: true, conns: 2},
		{at: 9_022_026, tag: 3, token: a.Token, join: true, conns: 2},
		{at: 10_025_760, tag: 1, token: a.Token, join: true, conns: 2},
		{at: 12_022_026, tag: 3, token: stray, join: true, conns: 2},
		{at: 12_027_600, tag: 1, token: b.Token, conns: 3},
	}
	if !reflect.DeepEqual(log.syns, wantSyns) {
		t.Fatalf("SYN arrivals:\n%+v\nwant\n%+v", log.syns, wantSyns)
	}

	conns := r.acc.Conns()
	if len(conns) != 3 {
		t.Fatalf("%d connections accepted, want 3", len(conns))
	}
	for i, want := range []struct {
		token     uint32
		subflows  int
		delivered uint64
	}{{a.Token, 3, 10 * mss}, {b.Token, 3, 7 * mss}, {stray, 1, 3 * mss}} {
		rc := conns[i]
		if rc.Token != want.token || rc.subflows != want.subflows || rc.Delivered != want.delivered || rc.DupBytes != 0 || rc.OOOBytes() != 0 {
			t.Fatalf("connection %d: token %x, %d subflows, %d delivered, %d duplicate, %d parked; want %x, %d, %d, 0, 0",
				i, rc.Token, rc.subflows, rc.Delivered, rc.DupBytes, rc.OOOBytes(), want.token, want.subflows, want.delivered)
		}
	}

	// Only the carrying subflow's connection moves between two arrivals.
	segs := map[uint32]int{}
	for i, d := range log.data {
		segs[d.token]++
		next := log.counted()
		if i+1 < len(log.data) {
			next = log.data[i+1].counted
		}
		for token, n := range next {
			want := d.counted[token]
			if token == d.token {
				want += uint64(d.n)
			}
			if n != want {
				t.Fatalf("data arrival %d (%d bytes of %x at %d): connection %x went from %d to %d bytes, want %d",
					i, d.n, d.token, d.at, token, d.counted[token], n, want)
			}
		}
	}
	if want := map[uint32]int{a.Token: 10, b.Token: 7, stray: 3}; !reflect.DeepEqual(segs, want) {
		t.Fatalf("data segments by connection %v, want %v", segs, want)
	}
}
