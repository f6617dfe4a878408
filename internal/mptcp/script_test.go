package mptcp

// Scripted conformance, one level above internal/tcp's: the script owns one
// link of the first subflow's path, drops the first of that subflow's data
// segments to reach it at or after a fixed virtual time (or every new one
// until the RTO), and records every mapping that passes, so the recovery can
// be asserted at exact times. The receive-window script watches the sending
// host instead: every segment it sends and every ACK it receives. The LIA
// script watches it too, and reads both subflows' congestion windows around
// one ACK.

import (
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
func (*recvLog) OnTransmit(*netem.Link, *packet.Packet, sim.Time) {}
func (*recvLog) OnDrop(string, *packet.Packet, netem.DropReason)  {}

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
func (*windowLog) OnTransmit(*netem.Link, *packet.Packet, sim.Time) {}
func (*windowLog) OnDrop(string, *packet.Packet, netem.DropReason)  {}

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
	p.loop.Schedule(0, func() { p.after = p.flows() })
}
func (*liaProbe) OnTransmit(*netem.Link, *packet.Packet, sim.Time) {}
func (*liaProbe) OnDrop(string, *packet.Packet, netem.DropReason)  {}

// TestScriptLIAIncrease: a bulk LIA connection over Path 2 and Path 3, a
// millisecond apart. By 3 s each subflow has been through fast recovery and
// sits in congestion avoidance. The first ACK Path 2 receives from 3 s on
// arrives at 3.000429283 s and newly acknowledges two segments. Its cwnd
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
	r := newPaperRig(t, 23)
	probe := &liaProbe{loop: r.loop, node: r.net.Node(r.pn.S), tag: 2, from: sim.Time(0).Add(3 * time.Second)}
	r.net.AttachTap(probe)
	probe.conn = r.dial(t, Config{Algorithm: "lia", Scheduler: "minrtt",
		Subflows: []SubflowSpec{{Tag: 2, Label: "Path 2"}, {Tag: 3, Label: "Path 3", StartDelay: time.Millisecond}}})
	if err := r.loop.RunUntil(probe.from.Add(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if probe.at != 3_000_429_283 || probe.acked != 2*mss {
		t.Fatalf("probed ACK at %d acknowledges %d bytes, want 3000429283 and %d", probe.at, probe.acked, 2*mss)
	}
	b, a := probe.before, probe.after
	for k, f := range b {
		if f.MSS != mss || f.InSlowStart() || f.SRTT <= 0 {
			t.Fatalf("subflow %d before the ACK: %+v, want congestion avoidance with an RTT sample", k, f)
		}
	}

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
	if a[1].Cwnd != w2 {
		t.Fatalf("Path 3 cwnd moved %v -> %v on Path 2's ACK", w2, a[1].Cwnd)
	}
}
