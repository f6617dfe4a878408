package tcp

import (
	"testing"
	"time"

	"mptcpsim/internal/cc"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/unit"
)

// scoreboard unit tests operate on a Conn with hand-built state.
func scoreboardConn() *Conn {
	c := &Conn{
		cfg:       Config{}.withDefaults(),
		loop:      sim.NewLoop(),
		mss:       1000,
		oldestRtx: sim.End,
	}
	c.sackOK = true
	c.state = StateEstablished
	c.iss = 0
	c.sndUna = 1
	c.sndNxt = 1
	c.Flow.MSS = 1000
	// Ten 1000-byte segments: seqs 1..10001.
	for i := 0; i < 10; i++ {
		c.rtx.Push(seg{seq: uint32(1 + i*1000), length: 1000})
		c.sndNxt += 1000
	}
	c.pipe = c.scanOutstanding()
	return c
}

func TestApplySACKMarksExactRanges(t *testing.T) {
	c := scoreboardConn()
	// SACK covering segments 3 and 4 (seqs 2001..4001).
	changed := c.applySACK([][2]uint32{{2001, 4001}})
	if !changed {
		t.Fatal("no change reported")
	}
	for i, s := range c.rtx.Live() {
		want := i == 2 || i == 3
		if s.sacked != want {
			t.Fatalf("segment %d sacked=%v, want %v", i, s.sacked, want)
		}
	}
	// Reapplying is idempotent.
	if c.applySACK([][2]uint32{{2001, 4001}}) {
		t.Fatal("idempotent reapply reported change")
	}
	// Partial coverage must not mark (segments are the SACK granularity).
	if c.applySACK([][2]uint32{{4001, 4500}}) {
		t.Fatal("partial segment coverage marked something")
	}
	if c.sackTop != 4 {
		t.Fatalf("sackTop = %d, want 4 (one above the highest sacked segment)", c.sackTop)
	}
	// A block starting one byte past the sacked run covers the segment
	// after it only in part, so marks just the one above.
	c.applySACK([][2]uint32{{4002, 6001}})
	if c.rtx.At(4).sacked || !c.rtx.At(5).sacked || c.sackTop != 6 {
		t.Fatalf("block past the run: segment 4 sacked=%v, 5 sacked=%v, sackTop %d; want false, true, 6",
			c.rtx.At(4).sacked, c.rtx.At(5).sacked, c.sackTop)
	}
}

func TestApplySACKIgnoresInvalidBlocks(t *testing.T) {
	c := scoreboardConn()
	if c.applySACK([][2]uint32{{5000, 5000}, {6000, 5000}}) {
		t.Fatal("degenerate blocks changed the scoreboard")
	}
}

func TestMarkLostNeedsThreshold(t *testing.T) {
	c := scoreboardConn()
	// SACK only segment 2 (1000 bytes above segment 1): below 3*MSS.
	c.applySACK([][2]uint32{{1001, 2001}})
	if c.markLost() {
		t.Fatal("marked lost below the dupACK-equivalent threshold")
	}
	// SACK segments 2,3,4: 3000 bytes above segment 1 => lost.
	c.applySACK([][2]uint32{{1001, 4001}})
	if !c.markLost() {
		t.Fatal("did not mark the head segment lost")
	}
	if !c.rtx.At(0).lost || c.rtx.At(0).sacked {
		t.Fatal("wrong segment marked")
	}
	// Segments above the SACKed range are untouched.
	for i := 4; i < 10; i++ {
		if c.rtx.At(i).lost {
			t.Fatalf("segment %d beyond SACKed range marked lost", i)
		}
	}
}

func TestOutstandingPipeExcludesSackedAndLost(t *testing.T) {
	c := scoreboardConn()
	if got := c.outstanding(); got != 10000 {
		t.Fatalf("pipe = %d, want 10000", got)
	}
	c.applySACK([][2]uint32{{1001, 4001}}) // 3 segments sacked
	c.markLost()                           // head lost
	// pipe = 10 - 3 sacked - 1 lost = 6 segments.
	if got := c.outstanding(); got != 6000 {
		t.Fatalf("pipe = %d, want 6000", got)
	}
	// The incremental cache must track the reference scan.
	if c.pipe != c.scanOutstanding() {
		t.Fatalf("incremental pipe %d != scan %d", c.pipe, c.scanOutstanding())
	}
	// A retransmitted lost segment re-enters the pipe. The scoreboard is
	// poked directly here, so re-sync the cache from the reference scan.
	c.rtx.At(0).rtx = true
	c.pipe = c.scanOutstanding()
	if got := c.outstanding(); got != 7000 {
		t.Fatalf("pipe = %d, want 7000", got)
	}
}

func TestSACKBlocksFromOOOQueue(t *testing.T) {
	c := scoreboardConn()
	c.rcvNxt = 1
	// Two gaps: [2001,3001) and [5001,6001), arriving newest first.
	c.storeOOO(5001, 1000, 0, false)
	c.storeOOO(2001, 1000, 0, false)
	blocks := c.sackBlocks()
	if len(blocks) != 2 {
		t.Fatalf("blocks = %v", blocks)
	}
	// Most recent arrival's block first.
	if blocks[0] != [2]uint32{2001, 3001} {
		t.Fatalf("first block = %v, want the newest arrival", blocks[0])
	}
	// Adjacent OOO segments coalesce.
	c.storeOOO(3001, 1000, 0, false)
	blocks = c.sackBlocks()
	for _, b := range blocks {
		if b == [2]uint32{2001, 4001} {
			return
		}
	}
	t.Fatalf("coalesced block missing: %v", blocks)
}

func TestSACKBlockLimit(t *testing.T) {
	c := scoreboardConn()
	c.rcvNxt = 1
	for i := 0; i < 6; i++ {
		c.storeOOO(uint32(2001+i*2000), 1000, 0, false) // non-adjacent gaps
	}
	if got := len(c.sackBlocks()); got > packet.MaxSACKBlocks {
		t.Fatalf("emitted %d blocks, cap is %d", got, packet.MaxSACKBlocks)
	}
}

// Integration: with SACK disabled the same lossy transfer needs more time
// but still completes exactly.
func TestNoSACKTransferCompletes(t *testing.T) {
	run := func(disable bool) (time.Duration, uint64, uint64) {
		g := newTestNet(t, 20*unit.Mbps, 5*time.Millisecond, 32*unit.KB)
		sink := &CountSink{}
		err := g.server.Listen(80, &Listener{
			ConfigFor: func([]packet.Option, packet.Endpoint) Config {
				return Config{Sink: sink, DisableSACK: disable}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		algo, _ := cc.New("reno")
		const totalBytes = 2 << 20
		conn, err := g.client.Dial(Config{
			CC: algo, Tag: 1, DisableSACK: disable,
			Source: &limitedSource{remaining: totalBytes},
		}, g.server.Addr, 80)
		if err != nil {
			t.Fatal(err)
		}
		// Finish when everything is delivered.
		var done sim.Time
		var watch func()
		watch = func() {
			if sink.Bytes >= totalBytes {
				done = g.loop.Now()
				return
			}
			g.loop.Schedule(10*time.Millisecond, watch)
		}
		g.loop.Schedule(0, watch)
		if err := g.loop.RunUntil(g.loop.Now().Add(120 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if sink.Bytes != totalBytes {
			t.Fatalf("delivered %d, want %d (disable=%v)", sink.Bytes, totalBytes, disable)
		}
		return done.Duration(), conn.Stats.Retransmits, conn.Stats.RTOs
	}
	sackTime, _, _ := run(false)
	nosackTime, rtx, _ := run(true)
	if rtx == 0 {
		t.Fatal("32KB queue should force losses")
	}
	if nosackTime <= sackTime {
		t.Fatalf("NewReno-only (%v) should be slower than SACK (%v)", nosackTime, sackTime)
	}
}

// SYN loss: the handshake retries with backoff and still establishes.
func TestSYNRetransmission(t *testing.T) {
	tn := newTestNet(t, 10*unit.Mbps, 5*time.Millisecond, unit.MB)
	// Drop the first SYN only.
	tn.fwd.SetAQM(&dropNth{n: 0}) // dropNth counts data packets only; SYNs have no payload
	drops := 0
	tn.fwd.SetAQM(aqmFunc(func(l *netem.Link, p *packet.Packet) bool {
		if p.TCP != nil && p.TCP.Flags&packet.FlagSYN != 0 && p.TCP.Flags&packet.FlagACK == 0 && drops == 0 {
			drops++
			return true
		}
		return false
	}))
	conn, sink := tn.startBulk(t, &limitedSource{remaining: 10000}, nil)
	if err := tn.loop.RunUntil(tn.loop.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if conn.State() != StateEstablished {
		t.Fatalf("state = %v after SYN loss", conn.State())
	}
	if sink.Bytes != 10000 {
		t.Fatalf("delivered %d", sink.Bytes)
	}
	if conn.synSent < 2 {
		t.Fatal("SYN was not retransmitted")
	}
}

type aqmFunc func(*netem.Link, *packet.Packet) bool

func (f aqmFunc) OnEnqueue(l *netem.Link, p *packet.Packet) bool { return f(l, p) }

// RTO backoff: consecutive timeouts grow the timer exponentially.
func TestRTOBackoffGrows(t *testing.T) {
	e := rttEstimator{}
	e.Sample(50 * time.Millisecond)
	base := e.RTO()
	if base != DefaultMinRTO {
		t.Fatalf("base RTO = %v", base)
	}
	// Backoffs are applied by the conn as rto << backoff, capped at MaxRTO.
	for i := uint(0); i < 16; i++ {
		rto := base << i
		if rto > DefaultMaxRTO {
			rto = DefaultMaxRTO
		}
		if rto <= 0 || rto > DefaultMaxRTO {
			t.Fatalf("backoff %d produced %v", i, rto)
		}
	}
}

func TestTimestampsNegotiation(t *testing.T) {
	// Both sides on: tsOK; one side off: no timestamps anywhere.
	for _, serverOn := range []bool{true, false} {
		tn := newTestNet(t, 10*unit.Mbps, 5*time.Millisecond, unit.MB)
		sink := &CountSink{}
		err := tn.server.Listen(80, &Listener{
			ConfigFor: func([]packet.Option, packet.Endpoint) Config {
				return Config{Sink: sink, Timestamps: serverOn}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		algo, _ := cc.New("reno")
		conn, err := tn.client.Dial(Config{
			CC: algo, Tag: 1, Timestamps: true,
			Source: &limitedSource{remaining: 64 * 1024},
		}, tn.server.Addr, 80)
		if err != nil {
			t.Fatal(err)
		}
		if err := tn.loop.RunUntil(tn.loop.Now().Add(3 * time.Second)); err != nil {
			t.Fatal(err)
		}
		if sink.Bytes != 64*1024 {
			t.Fatalf("transfer incomplete with serverOn=%v", serverOn)
		}
		if conn.tsOK != serverOn {
			t.Fatalf("tsOK = %v, want %v", conn.tsOK, serverOn)
		}
		if serverOn && !conn.peerTSseen {
			t.Fatal("no peer timestamps recorded")
		}
	}
}

func TestTimestampsRTTSampling(t *testing.T) {
	// With timestamps, SRTT should track the true path RTT (about 10 ms
	// base + queueing) just like the timed-segment method, and the
	// transfer must survive loss (samples continue during recovery).
	tn := newTestNet(t, 10*unit.Mbps, 5*time.Millisecond, 64*unit.KB)
	tn.fwd.SetLoss(0.01, sim.NewRand(5))
	sink := &CountSink{}
	err := tn.server.Listen(80, &Listener{
		ConfigFor: func([]packet.Option, packet.Endpoint) Config {
			return Config{Sink: sink, Timestamps: true}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	algo, _ := cc.New("reno")
	conn, err := tn.client.Dial(Config{
		CC: algo, Tag: 1, Timestamps: true,
		Source: &limitedSource{remaining: 1 << 20},
	}, tn.server.Addr, 80)
	if err != nil {
		t.Fatal(err)
	}
	if err := tn.loop.RunUntil(tn.loop.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if sink.Bytes != 1<<20 {
		t.Fatalf("delivered %d", sink.Bytes)
	}
	if srtt := conn.SRTT(); srtt < 10*time.Millisecond || srtt > 80*time.Millisecond {
		t.Fatalf("SRTT = %v, want ~10-80ms", srtt)
	}
}

func TestOptionSpaceBudget(t *testing.T) {
	// A pure ACK with timestamps + MPTCP data-ack + SACK must fit the
	// 40-byte option space: header <= 60 bytes.
	c := scoreboardConn()
	c.tsOK = true
	c.cfg.Sink = &fakeDataAckSink{}
	c.rcvNxt = 1
	for i := 0; i < 5; i++ {
		c.storeOOO(uint32(2001+i*2000), 1000, 0, false)
	}
	tt := &packet.TCP{
		Flags:  packet.FlagACK,
		Window: 4096,
	}
	tt.Options = append(tt.Options, &packet.Timestamps{TSval: 1, TSecr: 2})
	tt.Options = append(tt.Options, &packet.DSS{HasAck: true, DataAck: 99})
	blocks := c.sackBlocks()
	budget := 40 - 12 - 12
	if max := (budget - 2) / 8; len(blocks) > max {
		blocks = blocks[:max]
	}
	if len(blocks) != 1 {
		t.Fatalf("budgeted blocks = %d, want 1", len(blocks))
	}
	tt.Options = append(tt.Options, &packet.SACK{Blocks: blocks})
	if hl := tt.HeaderLen(); hl > 60 {
		t.Fatalf("header length %d exceeds TCP maximum 60", hl)
	}
}

type fakeDataAckSink struct{}

func (fakeDataAckSink) OnData(int, uint64, bool) {}
func (fakeDataAckSink) DataAck() (uint64, bool)  { return 12345, true }
