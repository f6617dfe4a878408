package mptcp

// Scripted conformance, one level above internal/tcp's: the script owns one
// link of the first subflow's path, drops the first of that subflow's data
// segments to reach it at or after a fixed virtual time, and records every
// mapping that passes, so the recovery can be asserted at exact times.

import (
	"testing"
	"time"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
)

// mappedSeg is one data segment of the scripted subflow seen on the
// script's link.
type mappedSeg struct {
	at      sim.Time
	dss     packet.DSS
	dropped bool
}

// dropScript is the link's admission policy.
type dropScript struct {
	loop   *sim.Loop
	tag    packet.Tag
	dropAt sim.Time
	done   bool
	seen   []mappedSeg
}

func (d *dropScript) OnEnqueue(_ *netem.Link, p *packet.Packet) bool {
	if p.IP.Tag != d.tag || p.TCP == nil || p.PayloadLen == 0 {
		return false
	}
	s := mappedSeg{at: d.loop.Now()}
	if dss := p.TCP.DSS(); dss != nil {
		s.dss = *dss // the packet's storage is recycled after delivery
	}
	if !d.done && s.at >= d.dropAt {
		d.done, s.dropped = true, true
	}
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
