package capture

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// rig: a -> b link with tag routes 1 and 2; returns sender node and dest.
type rig struct {
	loop *sim.Loop
	net  *netem.Network
	a, b topo.NodeID
	dst  packet.Addr
}

func newRig(t testing.TB) *rig {
	t.Helper()
	g := topo.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	ab, _ := g.AddDuplex(a, b, 100*unit.Mbps, time.Millisecond, unit.MB)
	loop := sim.NewLoop()
	tt := route.NewTagTable(g)
	n, err := netem.New(loop, g, tt)
	if err != nil {
		t.Fatal(err)
	}
	n.AssignAddr(a)
	dst := n.AssignAddr(b)
	p := topo.Path{Nodes: []topo.NodeID{a, b}, Links: []topo.LinkID{ab}}
	for _, tag := range []packet.Tag{1, 2} {
		if err := tt.AddPath(dst, tag, p); err != nil {
			t.Fatal(err)
		}
	}
	return &rig{loop: loop, net: n, a: a, b: b, dst: dst}
}

type devnull struct{}

func (devnull) Deliver(*packet.Packet) {}

func (r *rig) send(tag packet.Tag, payload int) {
	src, _ := r.net.AddrOf(r.a)
	r.net.Node(r.a).Send(&packet.Packet{
		IP:         packet.IPv4{Tag: tag, Proto: packet.ProtoUDP, Src: src, Dst: r.dst},
		UDP:        &packet.UDP{SrcPort: 1, DstPort: 2},
		PayloadLen: payload,
	})
}

func TestSnifferBinsByTag(t *testing.T) {
	r := newRig(t)
	if err := r.net.Node(r.b).Register(2, devnull{}); err != nil {
		t.Fatal(err)
	}
	sn := NewSniffer(r.net, r.b, 100*time.Millisecond)
	// 10 packets of tag 1 in bin 0; 5 of tag 2 in bin 1. A packet without
	// payload is not counted.
	r.loop.Schedule(10*time.Millisecond, func() {
		for i := 0; i < 10; i++ {
			r.send(1, 972) // 1000B wire
		}
		r.send(1, 0)
	})
	r.loop.Schedule(110*time.Millisecond, func() {
		for i := 0; i < 5; i++ {
			r.send(2, 972)
		}
	})
	if err := r.loop.RunUntil(sim.Time(300 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	s1 := sn.Series(1, "tag1", 300*time.Millisecond)
	s2 := sn.Series(2, "tag2", 300*time.Millisecond)
	// 10 * 1000B in a 100ms bin = 0.8 Mbps... wait: 10*1000*8 / 0.1s = 800 kbps.
	if got := s1.Mbps[0]; got < 0.79 || got > 0.81 {
		t.Fatalf("tag1 bin0 = %v Mbps, want 0.8", got)
	}
	if s1.Mbps[1] != 0 || s1.Mbps[2] != 0 {
		t.Fatalf("tag1 spill: %v", s1.Mbps)
	}
	if got := s2.Mbps[1]; got < 0.39 || got > 0.41 {
		t.Fatalf("tag2 bin1 = %v Mbps, want 0.4", got)
	}
	if sn.Packets() != 15 {
		t.Fatalf("packets = %d", sn.Packets())
	}
}

func TestSnifferSeriesLengthPadded(t *testing.T) {
	r := newRig(t)
	if err := r.net.Node(r.b).Register(2, devnull{}); err != nil {
		t.Fatal(err)
	}
	sn := NewSniffer(r.net, r.b, 10*time.Millisecond)
	if err := r.loop.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	s := sn.Series(1, "empty", time.Second)
	if s.Len() != 100 {
		t.Fatalf("len = %d, want 100", s.Len())
	}
}

func TestPCAPRoundTrip(t *testing.T) {
	r := newRig(t)
	if err := r.net.Node(r.b).Register(2, devnull{}); err != nil {
		t.Fatal(err)
	}
	sn := NewSniffer(r.net, r.b, 100*time.Millisecond)
	sn.Retain = true
	r.loop.Schedule(5*time.Millisecond, func() { r.send(1, 100) })
	r.loop.Schedule(15*time.Millisecond, func() { r.send(2, 200) })
	if err := r.loop.RunUntil(sim.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePCAP(&buf, sn.Records()); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadPCAP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records, want 2", len(recs))
	}
	// Frames must parse back into packets with the original tags.
	p0, err := packet.Unmarshal(recs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := packet.Unmarshal(recs[1].Data)
	if err != nil {
		t.Fatal(err)
	}
	if p0.Tag() != 1 || p1.Tag() != 2 {
		t.Fatalf("tags = %v %v", p0.Tag(), p1.Tag())
	}
	if p0.PayloadLen != 100 || p1.PayloadLen != 200 {
		t.Fatalf("payloads = %d %d", p0.PayloadLen, p1.PayloadLen)
	}
	// Timestamps preserved at microsecond resolution.
	if recs[0].At.Duration().Round(time.Microsecond) < 6*time.Millisecond {
		// 5ms send + ~1ms link
		t.Fatalf("timestamp = %v", recs[0].At)
	}
}

func TestPCAPRejectsGarbage(t *testing.T) {
	if _, err := ReadPCAP(bytes.NewReader([]byte("not a pcap"))); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	if err := WritePCAP(&buf, []Record{{}}); err == nil {
		t.Fatal("record without data accepted")
	}
}

// mixedCapture retains two frames at the receiver: a TCP data segment
// carrying an MPTCP DSS option, then a UDP datagram.
func mixedCapture(t testing.TB) []Record {
	r := newRig(t)
	if err := r.net.Node(r.b).Register(2, devnull{}); err != nil {
		t.Fatal(err)
	}
	sn := NewSniffer(r.net, r.b, 100*time.Millisecond)
	sn.Retain = true
	src, _ := r.net.AddrOf(r.a)
	r.loop.Schedule(0, func() {
		r.net.Node(r.a).Send(&packet.Packet{
			IP: packet.IPv4{Tag: 2, TTL: 64, Proto: packet.ProtoTCP, Src: src, Dst: r.dst},
			TCP: &packet.TCP{SrcPort: 40000, DstPort: 2, Seq: 2801, Ack: 1,
				Flags: packet.FlagACK | packet.FlagPSH, Window: 65536,
				Options: []packet.Option{&packet.DSS{HasMap: true, DSN: 2800, SubflowSeq: 2800, DataLen: 1400}}},
			PayloadLen: 1400,
		})
		r.send(1, 64)
	})
	if err := r.loop.RunUntil(sim.Time(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	recs := sn.Records()
	if len(recs) != 2 {
		t.Fatalf("retained %d frames", len(recs))
	}
	return recs
}

func TestFormatFrame(t *testing.T) {
	recs := mixedCapture(t)
	line, err := FormatFrame(recs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"tag:2", "seq 2801", "PSH|ACK", "DSS[dsn=2800 ssn=2800 len=1400]", "len 1400"} {
		if !strings.Contains(line, frag) {
			t.Fatalf("line missing %q: %s", frag, line)
		}
	}
	line, err = FormatFrame(recs[1])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(line, "UDP len 64") || !strings.Contains(line, "tag:1") {
		t.Fatalf("UDP line wrong: %s", line)
	}
	if _, err := FormatFrame(Record{Data: []byte{1, 2, 3}}); err == nil {
		t.Fatal("garbage frame formatted")
	}
}
