package tcp

import (
	"sort"
	"time"

	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
)

// effectiveWindow returns the sending window in bytes: the congestion
// window limited by the peer's advertised window. Without SACK, limited
// transmit (RFC 3042) adds headroom on the first two duplicate ACKs and
// NewReno inflation is folded into Cwnd by processAck; with SACK neither
// is needed because the pipe estimate shrinks as SACK blocks arrive.
func (c *Conn) effectiveWindow() int {
	wnd := int(c.Flow.Cwnd)
	if !c.sackOK && !c.inRec && c.dupAcks > 0 && c.dupAcks < 3 {
		wnd += c.dupAcks * c.mss
	}
	if pw := int(c.peerRwnd); pw < wnd {
		wnd = pw
	}
	return wnd
}

// outstanding estimates the bytes currently in the network: the SACK
// "pipe" of RFC 6675 when available, else plain flight size. The pipe is
// maintained incrementally (c.pipe) at every scoreboard mutation, since
// every ACK reads it; scanOutstanding is the reference recomputation.
func (c *Conn) outstanding() int {
	if !c.sackOK {
		return c.BytesInFlight()
	}
	return c.pipe
}

// segPipe is one segment's contribution to the RFC 6675 pipe.
func segPipe(s *seg) int {
	switch {
	case s.sacked:
		return 0 // left the network
	case s.lost:
		if s.rtx {
			return s.length // the retransmission is in flight
		}
		return 0
	default:
		return s.length
	}
}

// scanOutstanding recomputes the SACK pipe from the scoreboard. The
// incrementally maintained c.pipe must always equal it; tests that build
// scoreboards by hand use it to initialise the cache.
func (c *Conn) scanOutstanding() int {
	p := 0
	segs := c.rtx.Live()
	for i := range segs {
		p += segPipe(&segs[i])
	}
	return p
}

// trySend pulls data from the Source while window space allows.
func (c *Conn) trySend() {
	if c.state != StateEstablished || c.cfg.Source == nil {
		return
	}
	// The window inputs (cwnd, rwnd, dupAcks) cannot change inside the
	// loop — sends only schedule future events — so the pipe estimate is
	// computed once and advanced per segment instead of rescanning the
	// scoreboard for every packet of a burst.
	wnd := c.effectiveWindow()
	out := c.outstanding()
	for {
		avail := wnd - out
		if avail < 1 {
			return
		}
		chunk := c.mss
		if avail < chunk {
			// Avoid silly-window segments unless nothing is outstanding.
			if c.BytesInFlight() > 0 {
				return
			}
			chunk = avail
		}
		n, dsn, mapped := c.cfg.Source.Next(chunk)
		if n <= 0 {
			return
		}
		if n > chunk {
			n = chunk
		}
		sg := seg{seq: c.sndNxt, length: n, sentAt: c.loop.Now(), dsn: dsn, mapped: mapped}
		c.sendData(&sg, false)
		c.sndNxt += uint32(n)
		out += n
		c.rtx.Push(sg)
		c.pipe += n
		if !c.timing {
			// Time this segment for the next RTT sample (one at a time).
			c.timing = true
			c.timedEnd = c.sndNxt
			c.timedAt = c.loop.Now()
		}
		if !c.rtoTimer.Pending() {
			c.armRTO(c.rtt.RTO())
		}
	}
}

// sendData transmits one data segment (fresh or retransmission). The
// segment is built into arena storage: header and option values live in
// the packet's own slot, so nothing here allocates. A mapped segment's DSS
// option is built here and nowhere else: the data sequence number the
// Source gave, the subflow-relative sequence (the segment's offset in the
// stream) and its length.
func (c *Conn) sendData(s *seg, isRtx bool) {
	p, t := c.arena.GetTCP()
	t.SrcPort = c.local.Port
	t.DstPort = c.remote.Port
	t.Seq = s.seq
	t.Ack = c.rcvNxt
	t.Flags = packet.FlagACK | packet.FlagPSH
	t.Window = c.advertisedWindow()
	if c.tsOK {
		t.UseTimestamps(c.tsNow(), c.peerTSval)
	}
	if s.mapped {
		d := t.UseDSS(packet.DSS{HasMap: true, DSN: s.dsn, SubflowSeq: s.seq - (c.iss + 1), DataLen: uint16(s.length)})
		if ack, ok := c.dataAck(); ok {
			d.HasAck = true
			d.DataAck = ack
		}
	}
	if isRtx {
		c.Stats.Retransmits++
		// Karn's rule: a retransmission invalidates the running RTT timing.
		c.timing = false
	}
	c.transmit(p, s.length)
}

func (c *Conn) dataAck() (uint64, bool) {
	if c.cfg.Sink == nil {
		return 0, false
	}
	return c.cfg.Sink.DataAck()
}

// processAck handles the acknowledgement fields of an arriving segment.
func (c *Conn) processAck(pkt *packet.Packet) {
	t := pkt.TCP
	ack := t.Ack
	now := c.loop.Now()
	prevRwnd := c.peerRwnd
	c.peerRwnd = t.Window

	if seqGT(ack, c.sndNxt) {
		return // acks data never sent; ignore
	}

	sackAdvanced := false
	if c.sackOK {
		if o, ok := t.Option(packet.KindSACK).(*packet.SACK); ok {
			sackAdvanced = c.applySACK(o.Blocks)
		}
	}

	cumAdvanced := seqGT(ack, c.sndUna)
	if cumAdvanced {
		acked := seqDiff(ack, c.sndUna)
		c.sndUna = ack
		c.backoff = 0
		c.popAcked(ack, now)
		c.dupAcks = 0
		c.Flow.InFlight = c.outstanding()

		if c.inRec {
			if seqGEQ(ack, c.recover) {
				// Full acknowledgement: recovery ends.
				c.inRec = false
				if c.Flow.Cwnd > c.Flow.Ssthresh {
					c.Flow.Cwnd = c.Flow.Ssthresh
				}
			} else if !c.sackOK {
				// NewReno partial ACK: retransmit the next hole, deflate
				// the inflation by the amount acked, re-inflate one MSS.
				c.retransmitFront()
				c.Flow.Cwnd -= float64(acked)
				if c.Flow.Cwnd < float64(c.mss) {
					c.Flow.Cwnd = float64(c.mss)
				}
				c.Flow.Cwnd += float64(c.mss)
				if c.Flow.InSlowStart() {
					inc := acked
					if inc > 2*c.mss {
						inc = 2 * c.mss
					}
					c.Flow.Cwnd += float64(inc)
				}
				c.armRTO(c.rtt.RTO())
			} else {
				// SACK partial ACK: the scoreboard drives retransmission.
				// After an RTO the repair runs in slow start (RFC 5681), so
				// the window must grow or a large scoreboard drains at one
				// segment per RTT.
				if c.Flow.InSlowStart() {
					inc := acked
					if inc > 2*c.mss {
						inc = 2 * c.mss
					}
					c.Flow.Cwnd += float64(inc)
				}
				c.armRTO(c.rtt.RTO())
			}
		} else if c.cfg.CC != nil {
			c.cfg.CC.OnAck(&c.Flow, acked, now)
		}

		if c.BytesInFlight() == 0 {
			c.stopRTO()
		} else {
			c.armRTO(c.rtt.RTO())
		}
	} else if ack == c.sndUna && c.BytesInFlight() > 0 && pkt.PayloadLen == 0 &&
		t.Flags&packet.FlagSYN == 0 && (prevRwnd == t.Window || c.sackOK) {
		// Duplicate ACK.
		c.dupAcks++
		if !c.sackOK {
			if c.inRec {
				// NewReno window inflation: each dup ACK signals a departure.
				c.Flow.Cwnd += float64(c.mss)
			} else if c.dupAcks == 3 {
				c.enterRecovery(now)
			}
		}
	}

	if c.sackOK {
		// Scoreboard maintenance: mark losses, enter recovery, retransmit.
		if c.markLost() && !c.inRec {
			c.enterRecovery(now)
		} else if sackAdvanced || cumAdvanced {
			c.sendScoreboard()
		}
		// Fallback: three duplicate ACKs without SACK progress still
		// indicate the head segment is gone (e.g. single-segment flight).
		if !c.inRec && c.dupAcks >= 3 {
			if c.rtx.Len() > 0 {
				s := c.rtx.At(0)
				c.pipe -= segPipe(s)
				if !s.sacked && !s.lost {
					c.lostHoles++
				}
				s.lost = true
				s.rtx = false
				c.holeCursor = c.rtxPopped
			}
			c.enterRecovery(now)
		}
	}
	c.trySend()
}

// applySACK marks segments covered by the peer's SACK blocks; it reports
// whether any new byte was sacked. The scoreboard is contiguous and
// sorted by sequence (segments are appended in send order and popped
// from the front), so each block marks one run of segments. The run
// [sackLow, sackTop) is sacked already and is never walked again: a block
// starting inside it resumes at sackTop, a walk from below jumps over it,
// and only a block starting elsewhere pays a binary search.
func (c *Conn) applySACK(blocks [][2]uint32) bool {
	changed := false
	segs := c.rtx.Live()
	base := c.rtxPopped
	for _, b := range blocks {
		start, end := b[0], b[1]
		if !seqLT(start, end) {
			continue
		}
		low, top := max(c.sackLow-base, 0), c.sackTop-base
		var lo int
		if low < top && seqGEQ(start, segs[low].seq) && seqLEQ(start, segs[top-1].seq+uint32(segs[top-1].length)) {
			lo = top
		} else {
			lo = sort.Search(len(segs), func(i int) bool {
				return seqGEQ(segs[i].seq, start)
			})
		}
		i := lo
		for i < len(segs) {
			if i == low && low < top {
				i = top
				continue
			}
			s := &segs[i]
			if !seqLEQ(s.seq+uint32(s.length), end) {
				break
			}
			if !s.sacked {
				c.pipe -= segPipe(s)
				if s.lost {
					c.lostHoles--
				}
				s.sacked = true
				s.lost = false
				c.sackedSegs++
				changed = true
			}
			i++
		}
		// [lo, i) is sacked now: it joins the run if the two touch, and
		// replaces it if it lies above.
		switch {
		case lo <= top && i >= low:
			c.sackLow = base + min(lo, low)
		case i > lo && lo > top:
			c.sackLow = base + lo
		}
		if i > max(lo, top) {
			c.sackTop = base + i
		}
	}
	return changed
}

// markLost applies the RFC 6675 loss heuristic: a hole is lost once at
// least a dupACK-threshold's worth of bytes above it have been SACKed. It
// reports whether any segment was newly marked.
//
// Nothing above sackTop has sacked bytes above it, and nothing below
// lostFloor is left to mark, so the walk covers only the segments between
// the two: none at all while nothing is sacked, and in recovery the few
// that the latest SACK blocks added on top.
func (c *Conn) markLost() bool {
	if c.sackedSegs == 0 {
		return false
	}
	segs := c.rtx.Live()
	base := c.rtxPopped
	floor := max(c.lostFloor-base, 0)
	changed := false
	sackedAbove := 0
	thresh := 3 * c.mss
	// open is the lowest walked segment left neither sacked nor lost: the
	// bytes sacked above only grow on the way down, so all such segments
	// sit on top, and everything under the lowest is decided.
	open := -1
	for i := c.sackTop - base - 1; i >= floor; i-- {
		s := &segs[i]
		switch {
		case s.sacked:
			sackedAbove += s.length
		case s.lost:
		case sackedAbove >= thresh:
			c.pipe -= segPipe(s)
			s.lost = true
			s.rtx = false
			c.lostHoles++
			c.holeCursor = min(c.holeCursor, base+i)
			changed = true
		default:
			open = i
		}
	}
	if open >= 0 {
		c.lostFloor = base + open
	} else {
		c.lostFloor = max(c.lostFloor, c.sackTop)
	}
	return changed
}

// sendScoreboard retransmits lost segments while the pipe allows (the
// SACK-based recovery transmission rule): holes in sequence order, each
// once, and again when its retransmission has itself been outstanding for
// a full RTO — a per-segment soft timeout that repairs double losses
// without collapsing the window. SRTT lags queue growth too much for a
// tighter (RACK-style) bound.
func (c *Conn) sendScoreboard() {
	if c.state != StateEstablished {
		return
	}
	if c.lostHoles == 0 {
		c.oldestRtx = sim.End
		return
	}
	// One pass: window inputs are fixed for the burst, each retransmitted
	// hole adds its length to the pipe, and the candidate scan resumes
	// where it left off — a hole just marked rtx with a fresh sentAt
	// would fail the eligibility check anyway, so nothing behind the
	// cursor can become eligible mid-burst.
	wnd := c.effectiveWindow()
	out := c.outstanding()
	rearm := c.rtt.RTO()
	now := c.loop.Now()
	segs := c.rtx.Live()
	base := c.rtxPopped
	// While no retransmission can be an RTO old, only holes never yet
	// retransmitted qualify, and the first of them is at holeCursor or
	// above. Otherwise the whole scoreboard is walked, which also
	// re-measures oldestRtx.
	softDue := now.Sub(c.oldestRtx) > rearm
	scan := 0
	if !softDue {
		scan = max(c.holeCursor-base, 0)
	}
	oldest := sim.End
	for out < wnd {
		var hole *seg
		for ; scan < len(segs); scan++ {
			s := &segs[scan]
			if !s.lost || s.sacked {
				continue
			}
			if !s.rtx || now.Sub(s.sentAt) > rearm {
				hole = s
				break
			}
			oldest = min(oldest, s.sentAt)
		}
		c.holeCursor = max(c.holeCursor, base+scan)
		if hole == nil {
			// No repairable holes; trySend handles new data.
			if softDue {
				c.oldestRtx = oldest
			}
			return
		}
		scan++
		if !hole.rtx {
			// A first retransmission re-enters the pipe; a soft-timeout
			// re-send was already counted.
			out += hole.length
			c.pipe += hole.length
		}
		hole.rtx = true
		hole.sentAt = now
		oldest = min(oldest, now)
		c.oldestRtx = min(c.oldestRtx, now)
		c.sendData(hole, true)
	}
}

// enterRecovery starts a loss-recovery episode: NewReno fast retransmit
// without SACK, scoreboard-driven recovery with it.
func (c *Conn) enterRecovery(now sim.Time) {
	c.inRec = true
	c.recover = c.sndNxt
	c.Stats.FastRecovery++
	c.Flow.InFlight = c.outstanding()
	if c.cfg.CC != nil {
		c.cfg.CC.OnLoss(&c.Flow, now)
	} else {
		c.Flow.Ssthresh = c.Flow.Cwnd / 2
	}
	if c.sackOK {
		// Conservative SACK recovery: halve immediately; pipe gating
		// meters retransmissions.
		c.Flow.Cwnd = c.Flow.Ssthresh
		c.sendScoreboard()
	} else {
		// NewReno: inflate by the three duplicate ACKs and resend the head.
		c.Flow.Cwnd = c.Flow.Ssthresh + float64(3*c.mss)
		c.retransmitFront()
	}
	c.armRTO(c.rtt.RTO())
}

// popAcked removes fully acknowledged segments and samples the RTT from
// the timed segment (one sample at a time; Karn's rule cancels timing on
// retransmissions, so repair-delayed cumulative ACKs cannot inflate SRTT).
func (c *Conn) popAcked(ack uint32, now sim.Time) {
	if c.timing && seqGEQ(ack, c.timedEnd) {
		c.rtt.Sample(now.Sub(c.timedAt))
		c.syncFlowRTT()
		c.timing = false
	}
	segs := c.rtx.Live()
	n := 0
	for ; n < len(segs); n++ {
		s := &segs[n]
		if !seqLEQ(s.seq+uint32(s.length), ack) {
			break
		}
		c.pipe -= segPipe(s)
		switch {
		case s.sacked:
			c.sackedSegs--
		case s.lost:
			c.lostHoles--
		}
	}
	c.rtx.Pop(n)
	c.rtxPopped += n
}

// retransmitFront resends the first unacknowledged segment (NewReno path).
func (c *Conn) retransmitFront() {
	if c.rtx.Len() == 0 {
		return
	}
	s := c.rtx.At(0)
	c.pipe -= segPipe(s)
	s.rtx = true
	s.sentAt = c.loop.Now()
	c.pipe += segPipe(s)
	c.sendData(s, true)
}

// armRTO (re)starts the retransmission timer. The reset is allocation-free:
// a pending timer's own heap entry takes the new deadline (sim.Loop.Rearm),
// and the pre-bound callback struct needs no closure.
func (c *Conn) armRTO(d time.Duration) {
	c.rtoTimer = c.loop.Rearm(c.rtoTimer, d, &c.rtoCall)
}

func (c *Conn) stopRTO() {
	c.rtoTimer.Stop()
}

// onRTO fires on retransmission timeout.
func (c *Conn) onRTO() {
	switch c.state {
	case StateSynSent, StateSynReceived:
		if c.synSent > synRetries {
			c.Close()
			return
		}
		c.backoff++
		c.sendSYN(c.state == StateSynReceived)
		return
	case StateEstablished:
	default:
		return
	}
	if c.BytesInFlight() == 0 {
		return
	}
	c.Stats.RTOs++
	c.Flow.InFlight = c.outstanding()
	if c.cfg.CC != nil {
		c.cfg.CC.OnRTO(&c.Flow, c.loop.Now())
	} else {
		c.Flow.Ssthresh = c.Flow.Cwnd / 2
		c.Flow.Cwnd = float64(c.mss)
	}
	// Enter a recovery episode; every un-SACKed segment is presumed lost
	// and will be retransmitted as the window reopens.
	c.inRec = true
	c.recover = c.sndNxt
	c.dupAcks = 0
	segs := c.rtx.Live()
	for i := range segs {
		s := &segs[i]
		if !s.sacked {
			c.pipe -= segPipe(s)
			if !s.lost {
				c.lostHoles++
			}
			s.lost = true
			s.rtx = false
		}
	}
	// Every segment is now sacked or a hole awaiting retransmission.
	c.lostFloor = c.rtxPopped + len(segs)
	c.holeCursor = c.rtxPopped
	c.oldestRtx = sim.End
	if c.sackOK {
		c.sendScoreboard()
	} else {
		c.retransmitFront()
	}
	c.backoff++
	if c.backoff > 16 {
		c.backoff = 16
	}
	c.armRTO(min(c.rtt.RTO()<<c.backoff, DefaultMaxRTO))
}
