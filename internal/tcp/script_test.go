package tcp

// Scripted conformance cases, packetdrill style: the test is the peer. It
// hand-feeds a connection the exact ACK/SACK/data segments of a script at
// exact virtual times and asserts the exact reaction — which segments go
// out, in which order, and what the recovery state is. Everything the
// connection transmits is captured and dropped at the first link, so
// nothing but the script reaches it.

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"mptcpsim/internal/cc"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/unit"
)

const scriptMSS = 1000

// sentSeg is one captured transmission, in script units: the segment index
// (sequence offset / MSS) for data, and the SACK blocks of a pure ACK.
type sentSeg struct {
	seg    int
	sack   [][2]int
	hasTS  bool
	hasDSS bool
}

// scriptPeer owns a client connection whose peer is the test.
type scriptPeer struct {
	t  *testing.T
	tn *testNet
	c  *Conn
	// peerISS is the scripted peer's initial sequence number.
	peerISS uint32
	// synMSS is the MSS option of the connection's own SYN.
	synMSS int
	data   []sentSeg
	acks   []sentSeg
}

// OnEnqueue captures and swallows every packet the connection sends.
func (p *scriptPeer) OnEnqueue(_ *netem.Link, pk *packet.Packet) bool {
	t := pk.TCP
	if t == nil {
		return true
	}
	if t.Flags&packet.FlagSYN != 0 {
		if o, ok := t.Option(packet.KindMSS).(*packet.MSSOption); ok {
			p.synMSS = int(o.MSS)
		}
		return true
	}
	if pk.PayloadLen > 0 {
		p.data = append(p.data, sentSeg{seg: int(t.Seq-(p.c.iss+1)) / scriptMSS})
		return true
	}
	s := sentSeg{seg: -1, hasTS: t.Option(packet.KindTimestamps) != nil, hasDSS: t.DSS() != nil}
	if o, ok := t.Option(packet.KindSACK).(*packet.SACK); ok {
		for _, b := range o.Blocks {
			s.sack = append(s.sack, [2]int{p.recvSeg(b[0]), p.recvSeg(b[1])})
		}
	}
	p.acks = append(p.acks, s)
	return true
}

func (p *scriptPeer) recvSeg(seq uint32) int { return int(seq-(p.peerISS+1)) / scriptMSS }

// newScriptPeer dials a connection, answers its SYN by hand and returns
// with the connection established and its initial window captured. The
// SYN-ACK carries synOpts, then an MSS option of scriptMSS and
// SACK-permitted; an MSS option among synOpts comes first, so it is the one
// the connection reads.
func newScriptPeer(t *testing.T, cfg Config, synOpts ...packet.Option) *scriptPeer {
	t.Helper()
	tn := newTestNet(t, 100*unit.Mbps, time.Millisecond, 0)
	p := &scriptPeer{t: t, tn: tn, peerISS: 7000}
	tn.fwd.SetAQM(p)
	cfg.Tag = 1
	if cfg.CC == nil {
		cfg.CC, _ = cc.New("reno")
	}
	c, err := tn.client.Dial(cfg, tn.server.Addr, 80)
	if err != nil {
		t.Fatal(err)
	}
	p.c = c
	opts := append(synOpts, &packet.MSSOption{MSS: scriptMSS}, &packet.SACKPermitted{})
	p.inject(&packet.TCP{Seq: p.peerISS, Ack: c.iss + 1, Flags: packet.FlagSYN | packet.FlagACK, Options: opts}, 0)
	if c.State() != StateEstablished {
		t.Fatalf("state %v after the scripted SYN-ACK", c.State())
	}
	return p
}

// inject delivers one segment from the scripted peer.
func (p *scriptPeer) inject(t *packet.TCP, payload int) {
	t.SrcPort, t.DstPort = 80, p.c.local.Port
	t.Window = 1 << 20
	p.c.receive(&packet.Packet{
		IP:         packet.IPv4{Proto: packet.ProtoTCP, Src: p.tn.server.Addr, Dst: p.tn.client.Addr},
		TCP:        t,
		PayloadLen: payload,
	})
}

// ack delivers a pure ACK for everything below segment cum, with SACK
// blocks given in segment units.
func (p *scriptPeer) ack(cum int, blocks ...[2]int) {
	t := &packet.TCP{Seq: p.peerISS + 1, Ack: p.sndSeq(cum), Flags: packet.FlagACK}
	if len(blocks) > 0 {
		o := &packet.SACK{}
		for _, b := range blocks {
			o.Blocks = append(o.Blocks, [2]uint32{p.sndSeq(b[0]), p.sndSeq(b[1])})
		}
		t.Options = append(t.Options, o)
	}
	p.inject(t, 0)
}

func (p *scriptPeer) sndSeq(seg int) uint32 { return p.c.iss + 1 + uint32(seg*scriptMSS) }

// push delivers data segment seg (of the peer's stream) to the connection.
func (p *scriptPeer) push(seg int, opts ...packet.Option) {
	p.inject(&packet.TCP{Seq: p.peerISS + 1 + uint32(seg*scriptMSS), Ack: p.c.sndNxt,
		Flags: packet.FlagACK, Options: opts}, scriptMSS)
}

// advance lets virtual time pass (timers fire).
func (p *scriptPeer) advance(d time.Duration) {
	p.t.Helper()
	if err := p.tn.loop.RunUntil(p.tn.loop.Now().Add(d)); err != nil {
		p.t.Fatal(err)
	}
}

// expectData asserts the data segments transmitted since the last call.
func (p *scriptPeer) expectData(step string, want ...int) {
	p.t.Helper()
	got := make([]int, 0, len(p.data))
	for _, s := range p.data {
		got = append(got, s.seg)
	}
	p.data = p.data[:0]
	if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
		p.t.Fatalf("%s: sent data segments %v, want %v", step, got, want)
	}
}

// lastAck returns the most recent captured pure ACK and forgets the rest.
func (p *scriptPeer) lastAck(step string) sentSeg {
	p.t.Helper()
	if len(p.acks) == 0 {
		p.t.Fatalf("%s: no ACK was sent", step)
	}
	a := p.acks[len(p.acks)-1]
	p.acks = p.acks[:0]
	return a
}

func (p *scriptPeer) expectState(step string, inRec bool, fastRecoveries, rtos, retransmits uint64) {
	p.t.Helper()
	c := p.c
	got := fmt.Sprintf("inRec=%v fastRecoveries=%d rtos=%d retransmits=%d", c.inRec, c.Stats.FastRecovery, c.Stats.RTOs, c.Stats.Retransmits)
	want := fmt.Sprintf("inRec=%v fastRecoveries=%d rtos=%d retransmits=%d", inRec, fastRecoveries, rtos, retransmits)
	if got != want {
		p.t.Fatalf("%s: %s, want %s", step, got, want)
	}
}

func seq(from, to int) []int {
	var s []int
	for i := from; i < to; i++ {
		s = append(s, i)
	}
	return s
}

// Segment 0 is lost. Each of the first two duplicate ACKs sacks one more
// segment, which only frees pipe for new data; the third puts DupThresh
// segments above the hole, so it is marked lost (RFC 6675 IsLost), the
// connection enters recovery once and halves its window — and the
// retransmission waits, because the pipe (8 segments) is not below the
// halved window (5). Four more SACKs drain it to 4; then segment 0 goes
// out, exactly once.
func TestScriptThreeDupAckEntry(t *testing.T) {
	p := newScriptPeer(t, Config{Source: BulkSource{}})
	p.expectData("initial window", seq(0, 10)...)
	p.ack(0, [2]int{1, 2})
	p.expectData("1st dup ACK", 10)
	p.ack(0, [2]int{1, 3})
	p.expectData("2nd dup ACK", 11)
	p.expectState("before the threshold", false, 0, 0, 0)
	p.ack(0, [2]int{1, 4})
	p.expectData("3rd dup ACK: pipe 8 > cwnd 5")
	p.expectState("recovery entered", true, 1, 0, 0)
	if !p.c.rtx.At(0).lost || p.c.CwndBytes() != 5*scriptMSS {
		t.Fatalf("head lost=%v cwnd=%v, want lost and 5 segments", p.c.rtx.At(0).lost, p.c.CwndBytes())
	}
	for i := 5; i <= 7; i++ {
		p.ack(0, [2]int{1, i})
	}
	p.expectData("pipe 5 is not below cwnd 5")
	p.ack(0, [2]int{1, 8})
	p.expectData("pipe drained below the window", 0)
	p.ack(0, [2]int{1, 9})
	p.expectData("next SACK sends new data, not the hole again", 12)
	p.expectState("one retransmission", true, 1, 0, 1)
	p.ack(13)
	p.expectState("full ACK ends recovery", false, 1, 0, 1)
}

// Segments 0 and 5 are lost. The ACK that repairs 0 is a partial ACK: it
// stops short of recover, so recovery continues (no second episode, no
// window reduction) and the scoreboard drives segment 5 out.
func TestScriptPartialAck(t *testing.T) {
	p := newScriptPeer(t, Config{Source: &limitedSource{remaining: 10 * scriptMSS}})
	p.expectData("initial window", seq(0, 10)...)
	p.ack(0, [2]int{1, 5})
	p.expectState("4 segments sacked above 0", true, 1, 0, 0)
	p.ack(0, [2]int{1, 5}, [2]int{6, 10})
	p.expectData("both holes marked, pipe empty: repaired in order", 0, 5)
	cwnd := p.c.CwndBytes()
	p.ack(5, [2]int{6, 10})
	p.expectState("partial ACK", true, 1, 0, 2)
	if p.c.CwndBytes() != cwnd {
		t.Fatalf("partial ACK moved cwnd %v -> %v", cwnd, p.c.CwndBytes())
	}
	p.ack(10)
	p.expectState("full ACK", false, 1, 0, 2)
}

// Segments 0 and 5 are lost and repaired together; the retransmission of 5
// is lost too. The partial ACK for 0 restarts the RTO timer, so the timer is
// not what notices: the next SACK to arrive after the retransmission has
// been outstanding for more than an RTO re-sends the hole from the
// scoreboard — no timeout, no new episode — and one arriving before that
// does not.
func TestScriptLostRetransmissionSoftTimeout(t *testing.T) {
	p := newScriptPeer(t, Config{Source: &limitedSource{remaining: 12 * scriptMSS}})
	p.expectData("initial window", seq(0, 10)...)
	p.ack(0, [2]int{1, 5})
	p.ack(0, [2]int{1, 5}, [2]int{6, 10})
	p.expectData("both holes repaired, then new data", 0, 5, 10, 11)
	rto := p.c.rtt.RTO()
	p.advance(rto / 2)
	p.ack(5, [2]int{6, 10})
	p.expectData("partial ACK half an RTO later: retransmission of 5 not due")
	p.advance(rto/2 + time.Millisecond)
	p.ack(5, [2]int{6, 11})
	p.expectData("retransmission outstanding > RTO: sent again", 5)
	p.expectState("soft timeout", true, 1, 0, 3)
	p.ack(12)
	p.expectState("repaired", false, 1, 0, 3)
}

// An RTO in the middle of SACK recovery: every segment not sacked is
// presumed lost, retransmission restarts from the front in slow start (one
// segment), and the sacked segments are never re-sent.
func TestScriptRTOMidRecovery(t *testing.T) {
	p := newScriptPeer(t, Config{Source: &limitedSource{remaining: 10 * scriptMSS}})
	p.expectData("initial window", seq(0, 10)...)
	p.ack(0, [2]int{1, 6})
	p.expectData("hole repaired", 0)
	p.expectState("in recovery", true, 1, 0, 1)
	p.advance(p.c.rtt.RTO() + time.Millisecond)
	p.expectData("RTO: window of one segment, front first", 0)
	p.expectState("timeout inside the episode", true, 1, 1, 2)
	for i, s := range p.c.rtx.Live() {
		if want := i < 1 || i >= 6; s.lost != want || s.sacked == want {
			t.Fatalf("segment %d after RTO: lost=%v sacked=%v", i, s.lost, s.sacked)
		}
	}
	p.ack(6)
	p.expectData("slow-start repair resumes above the sacked run", 6, 7, 8)
	p.ack(9)
	p.expectData("and continues", 9)
	p.ack(10)
	p.expectState("done", false, 1, 1, 6)
}

// Receiver side: blocks are the parked ranges in sequence order with the
// one holding the latest arrival swapped to the front (RFC 2018), and a
// range that merges two neighbours is reported as one block.
func TestScriptSackBlockOrdering(t *testing.T) {
	p := newScriptPeer(t, Config{})
	for _, step := range []struct {
		seg  int
		want [][2]int
	}{
		{2, [][2]int{{2, 3}}},
		{6, [][2]int{{6, 7}, {2, 3}}},
		{4, [][2]int{{4, 5}, {2, 3}, {6, 7}}},
		{8, [][2]int{{8, 9}, {4, 5}, {6, 7}}}, // four ranges, three blocks: the first gives way
		{5, [][2]int{{4, 7}, {2, 3}, {8, 9}}}, // 4-5 and 6-7 join through 5
		{2, [][2]int{{2, 3}, {4, 7}, {8, 9}}}, // a duplicate still moves its range up
		{0, [][2]int{{2, 3}, {4, 7}, {8, 9}}}, // in order, gap remains: latest arrival unchanged
		{1, [][2]int{{4, 7}, {8, 9}}},         // fills up to 3: first range consumed
	} {
		p.push(step.seg)
		what := fmt.Sprintf("after segment %d", step.seg)
		if got := p.lastAck(what).sack; !reflect.DeepEqual(got, step.want) {
			t.Fatalf("%s: SACK blocks %v, want %v", what, got, step.want)
		}
	}
	if got := int(p.c.rcvNxt-(p.peerISS+1)) / scriptMSS; got != 3 {
		t.Fatalf("rcvNxt at segment %d, want 3", got)
	}
}

// With timestamps (12 bytes padded) and an MPTCP data ACK (12) in the
// 40-byte option space, one SACK block fits: the most recent.
func TestScriptSackOptionSpaceTruncation(t *testing.T) {
	p := newScriptPeer(t, Config{Timestamps: true, Sink: fakeDataAckSink{}},
		&packet.Timestamps{TSval: 1})
	for _, seg := range []int{2, 6, 4} {
		p.push(seg, &packet.Timestamps{TSval: 2})
	}
	a := p.lastAck("three ranges parked")
	if !a.hasTS || !a.hasDSS {
		t.Fatalf("ACK carries timestamps=%v dss=%v, want both", a.hasTS, a.hasDSS)
	}
	if want := [][2]int{{4, 5}}; !reflect.DeepEqual(a.sack, want) {
		t.Fatalf("SACK blocks %v, want %v", a.sack, want)
	}
}

// An immediate ACK leaves the delayed-ACK timer pending, to fire as a no-op.
// The next segment to wait for an ACK re-arms it, so that ACK goes out one
// DefaultDelAckTimeout after the segment, not when the first deadline falls.
func TestScriptDelayedAckRearm(t *testing.T) {
	p := newScriptPeer(t, Config{})
	p.acks = p.acks[:0]
	noAck := func(step string) {
		t.Helper()
		if len(p.acks) != 0 {
			t.Fatalf("%s: %d ACKs sent, want none", step, len(p.acks))
		}
	}
	p.push(0) // waits; the timer is due 40 ms on
	noAck("after segment 0")
	p.advance(10 * time.Millisecond)
	p.push(1) // the second segment is acknowledged at once
	p.lastAck("after segment 1")
	p.advance(20 * time.Millisecond)
	p.push(2) // waits; the timer moves to 40 ms from now
	p.advance(DefaultDelAckTimeout - time.Nanosecond)
	noAck("just before segment 2's deadline")
	p.advance(time.Nanosecond)
	p.lastAck("at segment 2's deadline")

	p.push(3)
	p.push(4)
	p.lastAck("after segment 4")
	p.advance(2 * DefaultDelAckTimeout)
	noAck("after the timer left by segment 4's ACK fired")
}
