package tcp

import (
	"fmt"
	"slices"
	"time"

	"mptcpsim/internal/cc"
	"mptcpsim/internal/fifo"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
)

// State is the connection state (the subset of RFC 793 the experiments
// exercise; connections live for the duration of a run, so there is no
// FIN/TIME-WAIT machinery).
type State int

// Connection states.
const (
	StateSynSent State = iota
	StateSynReceived
	StateEstablished
	StateClosed
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateSynSent:
		return "syn-sent"
	case StateSynReceived:
		return "syn-received"
	case StateEstablished:
		return "established"
	case StateClosed:
		return "closed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Stats counts per-connection events.
type Stats struct {
	SentSegments  uint64
	SentBytes     uint64
	Retransmits   uint64
	RTOs          uint64
	FastRecovery  uint64
	DeliveredData uint64
	AcksSent      uint64
}

// seg is a sender-side tracked segment awaiting acknowledgement. The
// sacked/lost flags form the SACK scoreboard (RFC 6675); rtx records that
// a retransmission of the segment is in flight. dsn is the data sequence
// number the Source mapped the segment to, meaningful when mapped: all a
// retransmission needs to rebuild the DSS option. Widest fields first: the
// record packs into 32 bytes (TestQueueRecordSizes).
type seg struct {
	dsn    uint64
	sentAt sim.Time
	length int
	seq    uint32
	rtx    bool
	sacked bool
	lost   bool
	mapped bool
}

// rseg is a receiver-side out-of-order segment, with the data sequence
// number its DSS mapping carried (meaningful when mapped); 16 bytes. A
// segment's length fits 16 bits: no sender's effective MSS exceeds the 16-bit
// MSS option its peer advertised.
type rseg struct {
	dsn    uint64
	seq    uint32
	length uint16
	mapped bool
}

// segBufs and rsegBufs keep released scoreboards and out-of-order queues.
var (
	segBufs  fifo.Pool[seg]
	rsegBufs fifo.Pool[rseg]
)

// Conn is one TCP connection endpoint. Small fields share words (bools
// beside a uint32) so the record stays within 696 bytes: with the 8-byte
// header the allocator puts in front of a pointerful object this large, that
// fills the 704-byte size class exactly (TestConnSize).
type Conn struct {
	host *Host
	loop *sim.Loop
	cfg  Config
	// arena supplies every outgoing packet's storage; the network engine
	// recycles it when the packet is delivered or dropped, so the
	// connection never touches a packet after Send.
	arena *packet.Arena

	state  State
	local  packet.Endpoint
	remote packet.Endpoint

	// Flow is the congestion-control view registered with cfg.CC.
	Flow cc.Flow

	// Sender state.
	iss      uint32
	sndUna   uint32
	sndNxt   uint32
	peerRwnd uint32
	peerMSS  int
	mss      int // effective MSS = min(cfg.MSS, peerMSS)
	// rtx is the scoreboard: every unacknowledged segment in send order,
	// contiguous in sequence space.
	rtx fifo.Queue[seg]
	// pipe is the incrementally maintained RFC 6675 pipe: the sum of
	// segPipe over rtx. Every scoreboard mutation updates it so
	// outstanding() is O(1); scanOutstanding is the reference scan.
	pipe int
	// The rest of this block keeps the SACK path's per-ACK work independent
	// of the window: what a walk over the whole scoreboard would find is
	// counted or bounded as the scoreboard changes. Segments are named by
	// ordinal — rtxPopped plus the index in rtx — which stays put when the
	// front is acknowledged away.
	//
	// sackedSegs and lostHoles count the live segments that are sacked, and
	// lost but not sacked (the holes sendScoreboard repairs). sackTop is the
	// ordinal above every sacked segment, and every segment from sackLow (or
	// the front, if that is higher) up to sackTop is sacked: the run a
	// growing top SACK block extends, which applySACK steps over instead of
	// re-walking. Below lostFloor every segment is sacked or lost already —
	// a set that only grows — so markLost has nothing left to decide there.
	// Below holeCursor no hole still awaits its first retransmission.
	// oldestRtx is a lower bound on sentAt over the retransmitted holes
	// (sim.End when there is none): until it is an RTO old, no
	// retransmission can be due for a soft-timeout re-send.
	rtxPopped  int
	sackedSegs int
	lostHoles  int
	sackTop    int
	sackLow    int
	lostFloor  int
	holeCursor int
	oldestRtx  sim.Time
	dupAcks    int
	inRec      bool
	recover    uint32
	sackOK     bool
	// RTT timing: one segment is timed at a time (RFC 6298 / Karn).
	timing   bool
	timedEnd uint32
	timedAt  sim.Time
	// Timestamps state (RFC 7323): tsOK after negotiation; peerTSval is
	// the latest value to echo.
	tsOK       bool
	peerTSval  uint32
	peerTSseen bool
	rtt        rttEstimator
	rtoTimer   sim.Timer
	backoff    uint
	synSent    int
	synTime    sim.Time
	// mssOpt holds the SYN's MSS option value; SYN packets (including
	// retransmissions) reference it in place.
	mssOpt packet.MSSOption

	// Receiver state.
	rcvNxt   uint32
	ooo      fifo.Queue[rseg]
	oooBytes int
	// sackRanges is the out-of-order queue coalesced into contiguous
	// ranges, in sequence order: what rebuildSackRanges computes from ooo,
	// kept current as segments are parked and drained. sackRebuild latches
	// that a parked segment overlapped another (senders are aligned, so
	// only hand-fed traffic does this); until the queue empties every
	// change recomputes the ranges instead of updating them.
	sackRanges  [][2]uint32
	sackRebuild bool
	lastOOOSeq  uint32
	ackPending  int
	delAckTimer sim.Timer
	// sackScratch holds the blocks of the outgoing ACK, which are copied
	// into the packet's own storage.
	sackScratch [packet.MaxSACKBlocks][2]uint32

	// rtoCall and delAckCall are the pre-bound timer callbacks: arming a
	// timer passes a pointer to these fields, so the per-packet timer
	// churn (every ACK re-arms the RTO) schedules without allocating.
	rtoCall    rtoCallback
	delAckCall delAckCallback

	// Stats accumulates counters.
	Stats Stats
}

func newConn(h *Host, cfg Config, local, remote packet.Endpoint) *Conn {
	cfg = cfg.withDefaults()
	c := &Conn{
		host:    h,
		loop:    h.loop,
		cfg:     cfg,
		arena:   h.net.Arena(),
		local:   local,
		remote:  remote,
		peerMSS: cfg.MSS,
		mss:     cfg.MSS,
		// Until the peer advertises, assume a modest window.
		peerRwnd:  65535,
		oldestRtx: sim.End,
	}
	if cfg.Source != nil { // only a sender's scoreboard fills
		c.rtx.Adopt(segBufs.Get(0))
	}
	if cfg.Sink != nil { // and only a receiver's out-of-order queue
		c.ooo.Adopt(rsegBufs.Get(0))
	}
	c.Flow.MSS = cfg.MSS
	c.Flow.ID = cfg.FlowID
	c.rtoCall.c = c
	c.delAckCall.c = c
	return c
}

// rtoCallback adapts the retransmission timeout to sim.Callback without a
// per-arm closure.
type rtoCallback struct{ c *Conn }

// Run implements sim.Callback.
func (r *rtoCallback) Run(sim.Time) { r.c.onRTO() }

// delAckCallback adapts the delayed-ACK timeout to sim.Callback.
type delAckCallback struct{ c *Conn }

// Run implements sim.Callback.
func (d *delAckCallback) Run(sim.Time) { d.c.onDelAck() }

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// SRTT returns the smoothed round-trip time estimate.
func (c *Conn) SRTT() time.Duration { return c.rtt.SRTT() }

// CwndBytes returns the current congestion window.
func (c *Conn) CwndBytes() float64 { return c.Flow.Cwnd }

// BytesInFlight returns outstanding unacknowledged bytes.
func (c *Conn) BytesInFlight() int { return seqDiff(c.sndNxt, c.sndUna) }

// startClient begins the three-way handshake.
func (c *Conn) startClient() {
	c.state = StateSynSent
	c.iss = c.host.rng.Uint32()
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.sendSYN(false)
}

// startServer answers a received SYN.
func (c *Conn) startServer(syn *packet.Packet) {
	c.state = StateSynReceived
	c.iss = c.host.rng.Uint32()
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.rcvNxt = syn.TCP.Seq + 1
	c.notePeerOptions(syn.TCP)
	c.sendSYN(true)
}

func (c *Conn) notePeerOptions(t *packet.TCP) {
	if o, ok := t.Option(packet.KindMSS).(*packet.MSSOption); ok {
		c.peerMSS = int(o.MSS)
	}
	if !c.cfg.DisableSACK && t.Option(packet.KindSACKPermitted) != nil {
		c.sackOK = true
	}
	if c.cfg.Timestamps && t.Option(packet.KindTimestamps) != nil {
		c.tsOK = true
	}
	if c.peerMSS < c.mss {
		c.mss = c.peerMSS
	}
	c.Flow.MSS = c.mss
	c.peerRwnd = t.Window
}

// sackPermittedOpt is the shared stateless SACK-permitted option value
// appended to every SYN; packets only read it.
var sackPermittedOpt packet.SACKPermitted

func (c *Conn) sendSYN(withAck bool) {
	p, t := c.arena.GetTCP()
	t.SrcPort = c.local.Port
	t.DstPort = c.remote.Port
	t.Seq = c.iss
	t.Flags = packet.FlagSYN
	t.Window = uint32(c.cfg.RcvBuf)
	c.mssOpt = packet.MSSOption{MSS: uint16(c.cfg.MSS)}
	t.Options = append(t.Options, &c.mssOpt)
	t.Options = append(t.Options, c.cfg.SynOptions...)
	if !c.cfg.DisableSACK {
		t.Options = append(t.Options, &sackPermittedOpt)
	}
	if c.cfg.Timestamps {
		t.UseTimestamps(c.tsNow(), c.peerTSval)
	}
	if withAck {
		t.Flags |= packet.FlagACK
		t.Ack = c.rcvNxt
	}
	if c.synSent == 0 {
		c.synTime = c.loop.Now()
	}
	c.transmit(p, 0)
	c.synSent++
	c.armRTO(c.rtt.RTO() << c.backoff)
}

// establish finishes the handshake on either side.
func (c *Conn) establish() {
	c.state = StateEstablished
	c.backoff = 0
	// Initial congestion state.
	c.Flow.Cwnd = float64(DefaultInitialCwnd * c.mss)
	c.Flow.Ssthresh = 1 << 30
	if c.cfg.CC != nil {
		c.cfg.CC.Register(&c.Flow, c.loop.Now())
	}
	c.trySend()
}

// Close tears the connection state down (no FIN exchange; the simulation
// endpoints simply stop).
func (c *Conn) Close() {
	if c.state == StateClosed {
		return
	}
	c.state = StateClosed
	if c.cfg.CC != nil {
		c.cfg.CC.Unregister(&c.Flow)
	}
	c.stopRTO()
	c.delAckTimer.Stop()
	h := c.host
	h.conns = slices.DeleteFunc(h.conns, func(e connEntry) bool { return e.c == c })
	// A dialled connection owns its ephemeral port; an accepted one shares
	// its listener's.
	if h.listener(c.local.Port) == nil {
		h.node.Unregister(c.local.Port)
	}
}

// receive dispatches an arriving segment by state.
func (c *Conn) receive(pkt *packet.Packet) {
	t := pkt.TCP
	switch c.state {
	case StateSynSent:
		if t.Flags&(packet.FlagSYN|packet.FlagACK) == packet.FlagSYN|packet.FlagACK &&
			t.Ack == c.iss+1 {
			c.stopRTO()
			c.rcvNxt = t.Seq + 1
			c.sndUna = c.iss + 1
			c.notePeerOptions(t)
			if c.synSent == 1 {
				// Karn's rule: sample only if the SYN was not retransmitted.
				c.rtt.Sample(c.loop.Now().Sub(c.synTime))
				c.syncFlowRTT()
			}
			c.sendPureAck()
			c.establish()
		}
	case StateSynReceived:
		if t.Flags&packet.FlagACK != 0 && t.Ack == c.iss+1 {
			c.stopRTO()
			c.sndUna = c.iss + 1
			c.peerRwnd = t.Window
			c.establish()
			// The ACK may carry data already.
			if pkt.PayloadLen > 0 {
				c.processData(pkt)
			}
		}
	case StateEstablished:
		if c.tsOK {
			c.noteTimestamps(t)
		}
		if t.Flags&packet.FlagACK != 0 {
			c.processAck(pkt)
		}
		if pkt.PayloadLen > 0 {
			c.processData(pkt)
		}
	case StateClosed:
	}
}

func (c *Conn) syncFlowRTT() {
	c.Flow.SRTT = c.rtt.SRTT()
	c.Flow.MinRTT = c.rtt.MinRTT()
}

// tsNow is the RFC 7323 timestamp clock: microseconds of virtual time
// (wraps after ~71 minutes, far beyond any experiment).
func (c *Conn) tsNow() uint32 {
	return uint32(c.loop.Now().Duration() / time.Microsecond)
}

// noteTimestamps records the peer's TSval for echoing and samples the RTT
// from an echoed value of our clock.
func (c *Conn) noteTimestamps(t *packet.TCP) {
	o, ok := t.Option(packet.KindTimestamps).(*packet.Timestamps)
	if !ok {
		return
	}
	c.peerTSval = o.TSval
	c.peerTSseen = true
	if o.TSecr != 0 && t.Flags&packet.FlagACK != 0 {
		rtt := time.Duration(c.tsNow()-o.TSecr) * time.Microsecond
		if rtt > 0 && rtt < time.Minute {
			c.rtt.Sample(rtt)
			c.syncFlowRTT()
		}
	}
}

// transmit stamps the network header on an arena-drawn packet and sends
// it with payload length n. The packet belongs to the network after Send:
// the engine recycles it at delivery or drop.
func (c *Conn) transmit(p *packet.Packet, n int) {
	p.IP = packet.IPv4{
		Tag:   c.cfg.Tag,
		TTL:   packet.DefaultTTL,
		Proto: packet.ProtoTCP,
		Src:   c.local.Addr,
		Dst:   c.remote.Addr,
		ID:    uint16(c.Stats.SentSegments),
	}
	p.PayloadLen = n
	c.Stats.SentSegments++
	c.Stats.SentBytes += uint64(n)
	c.host.node.Send(p)
}
