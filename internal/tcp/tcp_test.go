package tcp

import (
	"testing"
	"testing/quick"
	"time"

	"mptcpsim/internal/cc"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// limitedSource sends a fixed number of bytes then stops.
type limitedSource struct{ remaining int }

func (s *limitedSource) Next(max int) (int, uint64, bool) {
	if s.remaining <= 0 {
		return 0, 0, false
	}
	n := max
	if s.remaining < n {
		n = s.remaining
	}
	s.remaining -= n
	return n, 0, false
}

// dropSeq is an AQM that deterministically drops data packets whose TCP
// sequence number matches, up to `times` occurrences.
type dropSeq struct {
	seq   uint32
	times int
}

func (d *dropSeq) OnEnqueue(_ *netem.Link, p *packet.Packet) bool {
	if d.times > 0 && p.TCP != nil && p.PayloadLen > 0 && p.TCP.Seq == d.seq {
		d.times--
		return true
	}
	return false
}

// dropNth drops the nth data packet it sees (1-based), once.
type dropNth struct {
	n     int
	count int
}

func (d *dropNth) OnEnqueue(_ *netem.Link, p *packet.Packet) bool {
	if p.TCP == nil || p.PayloadLen == 0 {
		return false
	}
	d.count++
	return d.count == d.n
}

// testNet is a two-host network joined by a single duplex link.
type testNet struct {
	loop   *sim.Loop
	net    *netem.Network
	client *Host
	server *Host
	fwd    *netem.Link // client -> server direction
}

func newTestNet(t *testing.T, rate unit.Rate, delay time.Duration, queue unit.ByteSize) *testNet {
	t.Helper()
	g := topo.New()
	a, b := g.AddNode("client"), g.AddNode("server")
	ab, _ := g.AddDuplex(a, b, rate, delay, queue)
	loop := sim.NewLoop()
	tt := route.NewTagTable(g)
	n, err := netem.New(loop, g, tt)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewHost(n, a, sim.NewRand(1))
	sh := NewHost(n, b, sim.NewRand(2))
	p := topo.Path{Nodes: []topo.NodeID{a, b}, Links: []topo.LinkID{ab}}
	if err := tt.AddPath(sh.Addr, 1, p); err != nil {
		t.Fatal(err)
	}
	rev, _ := topo.ReversePath(g, p)
	if err := tt.AddPath(ch.Addr, 1, rev); err != nil {
		t.Fatal(err)
	}
	return &testNet{loop: loop, net: n, client: ch, server: sh, fwd: n.Link(ab)}
}

// startBulk wires a server sink + client sender with the given source.
func (tn *testNet) startBulk(t *testing.T, src Source, algo cc.Algorithm) (*Conn, *CountSink) {
	t.Helper()
	sink := &CountSink{}
	err := tn.server.Listen(80, &Listener{
		ConfigFor: func([]packet.Option, packet.Endpoint) Config {
			return Config{Sink: sink, Tag: 1}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if algo == nil {
		algo, _ = cc.New("reno")
	}
	conn, err := tn.client.Dial(Config{
		Tag:    1,
		CC:     algo,
		Source: src,
		FlowID: "test",
	}, tn.server.Addr, 80)
	if err != nil {
		t.Fatal(err)
	}
	return conn, sink
}

func TestHandshakeEstablishes(t *testing.T) {
	tn := newTestNet(t, 10*unit.Mbps, 5*time.Millisecond, 0)
	conn, _ := tn.startBulk(t, &limitedSource{remaining: 0}, nil)
	if conn.State() != StateSynSent {
		t.Fatalf("state = %v before running", conn.State())
	}
	if err := tn.loop.RunUntil(tn.loop.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if conn.State() != StateEstablished {
		t.Fatalf("state = %v, want established", conn.State())
	}
	// SRTT should be about one RTT (10 ms + tx times).
	if conn.SRTT() < 10*time.Millisecond || conn.SRTT() > 15*time.Millisecond {
		t.Fatalf("SRTT = %v, want ~10ms", conn.SRTT())
	}
	if conn.mss != DefaultMSS {
		t.Fatalf("MSS = %d", conn.mss)
	}

	// MSS negotiation against a scripted peer. The connection's own SYN
	// advertises DefaultMSS; a smaller peer option lowers the MSS, the
	// congestion-control view and the initial window, and a larger one
	// leaves DefaultMSS.
	for _, tc := range []struct {
		name    string
		synOpts []packet.Option
		want    int
	}{
		{"peer advertises scriptMSS", nil, scriptMSS},
		{"peer advertises more than DefaultMSS", []packet.Option{&packet.MSSOption{MSS: 2 * DefaultMSS}}, DefaultMSS},
	} {
		p := newScriptPeer(t, Config{}, tc.synOpts...)
		if p.synMSS != DefaultMSS {
			t.Errorf("%s: own SYN advertises MSS %d, want %d", tc.name, p.synMSS, DefaultMSS)
		}
		if c := p.c; c.mss != tc.want || c.Flow.MSS != tc.want || c.CwndBytes() != float64(DefaultInitialCwnd*tc.want) {
			t.Errorf("%s: mss %d, Flow.MSS %d, initial window %v; want %d, %d, %d",
				tc.name, c.mss, c.Flow.MSS, c.CwndBytes(), tc.want, tc.want, DefaultInitialCwnd*tc.want)
		}
	}
}

func TestBulkTransferDeliversExactly(t *testing.T) {
	// Deep queue: slow start's burst must not overflow it, so the transfer
	// is loss-free.
	tn := newTestNet(t, 10*unit.Mbps, 5*time.Millisecond, unit.MB)
	const total = 200 * 1024
	conn, sink := tn.startBulk(t, &limitedSource{remaining: total}, nil)
	if err := tn.loop.RunUntil(tn.loop.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if sink.Bytes != total {
		t.Fatalf("delivered %d bytes, want %d", sink.Bytes, total)
	}
	if conn.Stats.Retransmits != 0 {
		t.Fatalf("unexpected retransmits: %d", conn.Stats.Retransmits)
	}
	if conn.Stats.RTOs != 0 {
		t.Fatalf("unexpected RTOs: %d", conn.Stats.RTOs)
	}
}

func TestThroughputReachesLineRate(t *testing.T) {
	// A few BDPs of buffer: the Reno sawtooth never drains the link. The
	// first ~1.5 s are the slow-start overshoot being repaired (NewReno
	// fixes one hole per RTT without SACK), so measure steady state after
	// a warmup.
	tn := newTestNet(t, 10*unit.Mbps, 5*time.Millisecond, 64*unit.KB)
	_, sink := tn.startBulk(t, BulkSource{}, nil)
	if err := tn.loop.RunUntil(tn.loop.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	warm := sink.Bytes
	if err := tn.loop.RunUntil(tn.loop.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// Payload goodput = rate * MSS/(MSS+headers). Headers: 40 bytes.
	gotMbps := float64(sink.Bytes-warm) * 8 / 5 / 1e6
	wantMbps := 10.0 * DefaultMSS / (DefaultMSS + 40)
	if gotMbps < wantMbps*0.95 || gotMbps > wantMbps*1.01 {
		t.Fatalf("steady-state goodput = %.2f Mbps, want ~%.2f", gotMbps, wantMbps)
	}
}

func TestSlowStartIsExponential(t *testing.T) {
	// On a fat link the transfer of ~100 segments should complete in a few
	// RTTs (IW=10: 10+20+40+80 > 100 => ~3 RTT + handshake), far faster
	// than the ~10 RTTs ACK-paced linear growth would need.
	tn := newTestNet(t, unit.Gbps, 10*time.Millisecond, unit.MB)
	const total = 100 * DefaultMSS
	_, sink := tn.startBulk(t, &limitedSource{remaining: total}, nil)
	deadline := 6 * 21 * time.Millisecond // 6 RTTs incl. handshake
	if err := tn.loop.RunUntil(tn.loop.Now().Add(deadline)); err != nil {
		t.Fatal(err)
	}
	if sink.Bytes != total {
		t.Fatalf("slow start too slow: %d/%d bytes after %v", sink.Bytes, total, deadline)
	}
}

func TestFastRetransmitSingleLoss(t *testing.T) {
	tn := newTestNet(t, 10*unit.Mbps, 5*time.Millisecond, unit.MB)
	tn.fwd.SetAQM(&dropNth{n: 30})
	const total = 300 * 1024
	conn, sink := tn.startBulk(t, &limitedSource{remaining: total}, nil)
	if err := tn.loop.RunUntil(tn.loop.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if sink.Bytes != total {
		t.Fatalf("delivered %d, want %d", sink.Bytes, total)
	}
	if conn.Stats.FastRecovery != 1 {
		t.Fatalf("fast recoveries = %d, want 1", conn.Stats.FastRecovery)
	}
	if conn.Stats.RTOs != 0 {
		t.Fatalf("RTOs = %d, want 0 (loss should be repaired by fast rtx)", conn.Stats.RTOs)
	}
	if conn.Stats.Retransmits != 1 {
		t.Fatalf("retransmits = %d, want 1", conn.Stats.Retransmits)
	}
}

func TestRecoveryWhenRetransmissionAlsoLost(t *testing.T) {
	tn := newTestNet(t, 10*unit.Mbps, 5*time.Millisecond, unit.MB)
	conn, sink := tn.startBulk(t, &limitedSource{remaining: 120 * 1024}, nil)
	// Drop one specific sequence twice: the original and its first
	// retransmission. The RACK-style re-arm (or ultimately the RTO) must
	// still complete the transfer with a second retransmission.
	var target uint32
	seen := 0
	tapAQM := &seqSniffer{pick: 20, target: &target, seen: &seen}
	tn.fwd.SetAQM(tapAQM)
	if err := tn.loop.RunUntil(tn.loop.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if sink.Bytes != 120*1024 {
		t.Fatalf("delivered %d, want %d", sink.Bytes, 120*1024)
	}
	if conn.Stats.Retransmits < 2 {
		t.Fatalf("retransmits = %d, want >= 2 (rtx itself was dropped)", conn.Stats.Retransmits)
	}
}

// seqSniffer drops the pick-th data packet and then every packet with the
// same sequence number once more (killing the fast retransmission).
type seqSniffer struct {
	pick   int
	seen   *int
	target *uint32
	drops  int
}

func (s *seqSniffer) OnEnqueue(_ *netem.Link, p *packet.Packet) bool {
	if p.TCP == nil || p.PayloadLen == 0 {
		return false
	}
	*s.seen++
	if *s.seen == s.pick {
		*s.target = p.TCP.Seq
		s.drops++
		return true
	}
	if s.drops == 1 && p.TCP.Seq == *s.target {
		s.drops++
		return true
	}
	return false
}

func TestDelayedAcksRoughlyHalveAckCount(t *testing.T) {
	tn := newTestNet(t, 10*unit.Mbps, 5*time.Millisecond, unit.MB)
	const total = 500 * DefaultMSS
	_, sink := tn.startBulk(t, &limitedSource{remaining: total}, nil)
	if err := tn.loop.RunUntil(tn.loop.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if sink.Bytes != total {
		t.Fatal("transfer incomplete")
	}
	// Count server-side ACKs: reach into its connection table.
	var acks uint64
	for _, e := range tn.server.conns {
		acks += e.c.Stats.AcksSent
	}
	// Roughly one ACK per two segments (plus delack-timeout stragglers).
	if acks < 220 || acks > 330 {
		t.Fatalf("ACKs sent = %d for 500 segments, want ~250", acks)
	}
}

func TestReceiverWindowLimitsFlight(t *testing.T) {
	tn := newTestNet(t, 100*unit.Mbps, 20*time.Millisecond, unit.MB)
	sink := &CountSink{}
	err := tn.server.Listen(80, &Listener{
		ConfigFor: func([]packet.Option, packet.Endpoint) Config {
			return Config{Sink: sink, RcvBuf: 16 * unit.KB}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	algo, _ := cc.New("reno")
	conn, err := tn.client.Dial(Config{Tag: 1, CC: algo, Source: BulkSource{}}, tn.server.Addr, 80)
	if err != nil {
		t.Fatal(err)
	}
	maxFlight := 0
	var probe func()
	probe = func() {
		if f := conn.BytesInFlight(); f > maxFlight {
			maxFlight = f
		}
		tn.loop.Schedule(time.Millisecond, probe)
	}
	tn.loop.Schedule(0, probe)
	if err := tn.loop.RunUntil(tn.loop.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// Wire window quantisation can exceed the buffer by <= WindowUnit.
	if maxFlight > 16*1024+packet.WindowUnit {
		t.Fatalf("in-flight %d exceeded receive window 16KB", maxFlight)
	}
	if sink.Bytes == 0 {
		t.Fatal("nothing delivered")
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	// Two Reno flows, same RTT, one bottleneck: long-run shares ~equal.
	g := topo.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	ab, _ := g.AddDuplex(a, b, 20*unit.Mbps, 5*time.Millisecond, 0)
	loop := sim.NewLoop()
	tt := route.NewTagTable(g)
	n, err := netem.New(loop, g, tt)
	if err != nil {
		t.Fatal(err)
	}
	ch := NewHost(n, a, sim.NewRand(1))
	sh := NewHost(n, b, sim.NewRand(2))
	p := topo.Path{Nodes: []topo.NodeID{a, b}, Links: []topo.LinkID{ab}}
	if err := tt.AddPath(sh.Addr, 1, p); err != nil {
		t.Fatal(err)
	}
	rev, _ := topo.ReversePath(g, p)
	if err := tt.AddPath(ch.Addr, 1, rev); err != nil {
		t.Fatal(err)
	}
	sinks := make([]*CountSink, 2)
	idx := 0
	err = sh.Listen(80, &Listener{
		ConfigFor: func([]packet.Option, packet.Endpoint) Config {
			s := &CountSink{}
			sinks[idx] = s
			idx++
			return Config{Sink: s}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		algo, _ := cc.New("reno")
		if _, err := ch.Dial(Config{Tag: 1, CC: algo, Source: BulkSource{}}, sh.Addr, 80); err != nil {
			t.Fatal(err)
		}
	}
	if err := loop.RunUntil(loop.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	b0, b1 := float64(sinks[0].Bytes), float64(sinks[1].Bytes)
	sum := b0 + b1
	// Aggregate should fill the pipe.
	if mbps := sum * 8 / 20 / 1e6; mbps < 17 {
		t.Fatalf("aggregate = %.1f Mbps on a 20 Mbps link", mbps)
	}
	jain := (b0 + b1) * (b0 + b1) / (2 * (b0*b0 + b1*b1))
	if jain < 0.90 {
		t.Fatalf("Jain index = %.3f (b0=%.0f b1=%.0f), want >= 0.90", jain, b0, b1)
	}
}

func TestTransferSurvivesRandomLoss(t *testing.T) {
	tn := newTestNet(t, 10*unit.Mbps, 5*time.Millisecond, unit.MB)
	tn.fwd.SetLoss(0.02, sim.NewRand(42))
	const total = 500 * 1024
	conn, sink := tn.startBulk(t, &limitedSource{remaining: total}, nil)
	if err := tn.loop.RunUntil(tn.loop.Now().Add(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if sink.Bytes != total {
		t.Fatalf("delivered %d, want %d (rtx=%d rto=%d)",
			sink.Bytes, total, conn.Stats.Retransmits, conn.Stats.RTOs)
	}
	if conn.Stats.Retransmits == 0 {
		t.Fatal("2% loss but no retransmissions?")
	}
}

func TestCubicTransferCompletes(t *testing.T) {
	tn := newTestNet(t, 50*unit.Mbps, 10*time.Millisecond, 0)
	algo, _ := cc.New("cubic")
	tn.fwd.SetLoss(0.001, sim.NewRand(7))
	const total = 2 * 1024 * 1024
	_, sink := tn.startBulk(t, &limitedSource{remaining: total}, algo)
	if err := tn.loop.RunUntil(tn.loop.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if sink.Bytes != total {
		t.Fatalf("delivered %d, want %d", sink.Bytes, total)
	}
}

func TestRTTEstimatorRFC6298(t *testing.T) {
	e := rttEstimator{}
	if e.RTO() != initialRTO {
		t.Fatalf("pre-sample RTO = %v, want 1s", e.RTO())
	}
	e.Sample(100 * time.Millisecond)
	if e.SRTT() != 100*time.Millisecond {
		t.Fatalf("first SRTT = %v", e.SRTT())
	}
	// rttvar = 50ms; RTO = 100 + 4*50 = 300ms.
	if e.RTO() != 300*time.Millisecond {
		t.Fatalf("RTO = %v, want 300ms", e.RTO())
	}
	e.Sample(100 * time.Millisecond)
	// rttvar = 3/4*50 + 1/4*0 = 37.5ms ; srtt stays 100ms; RTO = 250ms.
	if e.RTO() != 250*time.Millisecond {
		t.Fatalf("RTO after stable sample = %v, want 250ms", e.RTO())
	}
	// Clamping below MinRTO.
	for i := 0; i < 100; i++ {
		e.Sample(10 * time.Millisecond)
	}
	if e.RTO() != DefaultMinRTO {
		t.Fatalf("RTO = %v, want clamped to %v", e.RTO(), DefaultMinRTO)
	}
	if e.MinRTT() != 10*time.Millisecond {
		t.Fatalf("MinRTT = %v", e.MinRTT())
	}
}

// Property: sequence comparisons behave like signed distance even across
// the wrap point.
func TestQuickSeqArithmetic(t *testing.T) {
	f := func(a uint32, d uint16) bool {
		b := a + uint32(d)
		if d == 0 {
			return seqLEQ(a, b) && seqGEQ(a, b) && !seqLT(a, b) && !seqGT(a, b)
		}
		return seqLT(a, b) && seqLEQ(a, b) && seqGT(b, a) && seqGEQ(b, a) &&
			seqDiff(b, a) == int(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: transfers of arbitrary sizes deliver exactly once under a
// deterministic single loss at an arbitrary position.
func TestQuickExactDeliveryUnderLoss(t *testing.T) {
	f := func(sizeKB uint8, dropAt uint8) bool {
		tn := newTestNet(t, 20*unit.Mbps, 2*time.Millisecond, unit.MB)
		total := (int(sizeKB%64) + 1) * 1024
		tn.fwd.SetAQM(&dropNth{n: int(dropAt%40) + 1})
		_, sink := tn.startBulk(t, &limitedSource{remaining: total}, nil)
		if err := tn.loop.RunUntil(tn.loop.Now().Add(30 * time.Second)); err != nil {
			return false
		}
		return sink.Bytes == uint64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCloseStopsConnection(t *testing.T) {
	tn := newTestNet(t, 10*unit.Mbps, 5*time.Millisecond, 0)
	conn, _ := tn.startBulk(t, BulkSource{}, nil)
	tn.loop.Schedule(time.Second, func() { conn.Close() })
	if err := tn.loop.RunUntil(tn.loop.Now().Add(1100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if conn.State() != StateClosed {
		t.Fatalf("state = %v", conn.State())
	}
	sent := conn.Stats.SentSegments
	if err := tn.loop.RunUntil(tn.loop.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if conn.Stats.SentSegments != sent {
		t.Fatal("closed connection kept sending")
	}
}

func TestListenerRejectsDuplicatePort(t *testing.T) {
	tn := newTestNet(t, 10*unit.Mbps, time.Millisecond, 0)
	if err := tn.server.Listen(80, &Listener{}); err != nil {
		t.Fatal(err)
	}
	if err := tn.server.Listen(80, &Listener{}); err == nil {
		t.Fatal("duplicate Listen accepted")
	}
}
