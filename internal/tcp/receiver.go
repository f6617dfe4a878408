package tcp

import (
	"sort"

	"mptcpsim/internal/packet"
	"mptcpsim/internal/unit"
)

// advertisedWindow computes the receive window to advertise. In-order data
// is consumed immediately by the Sink (a fast application reader), so the
// whole buffer is free relative to rcvNxt; out-of-order segments occupy
// sequence space *within* the advertised window and do not shrink it (as in
// real stacks — shrinking here would make duplicate ACKs carry changing
// windows and defeat the sender's dupACK counting).
func (c *Conn) advertisedWindow() uint32 {
	return uint32(c.cfg.RcvBuf)
}

// processData handles the payload of an arriving segment.
func (c *Conn) processData(pkt *packet.Packet) {
	n := pkt.PayloadLen
	seq := pkt.TCP.Seq
	// The one place a mapping is read. Only its data sequence number goes
	// further: the option's storage is recycled when this delivery returns.
	var dsn uint64
	mapped := false
	if d := pkt.TCP.DSS(); d != nil && d.HasMap {
		dsn, mapped = d.DSN, true
	}

	switch {
	case seqLEQ(seq+uint32(n), c.rcvNxt):
		// Entirely old: a retransmission the ACK for which was lost.
		c.sendPureAck()
	case seqGT(seq, c.rcvNxt):
		// Out of order: park it and send an immediate duplicate ACK
		// (RFC 5681 §4.2) so the sender's dupACK counter advances.
		c.storeOOO(seq, n, dsn, mapped)
		c.sendPureAck()
	default:
		// In-order (seq == rcvNxt for our aligned senders).
		hadGap := c.ooo.Len() > 0
		c.rcvNxt = seq + uint32(n)
		c.deliverData(n, dsn, mapped)
		c.drainOOO()
		c.ackPending++
		if hadGap {
			// RFC 5681 §4.2: ACK immediately when a segment fills a gap,
			// so the sender learns of the repair without delack latency.
			c.sendPureAck()
		} else if c.ackPending >= DefaultDelAckCount {
			c.sendPureAck()
		} else if c.ackPending == 1 {
			// The first segment to wait for an ACK arms the timer, which
			// an immediate ACK may have left pending: re-key it in place.
			c.delAckTimer = c.loop.Rearm(c.delAckTimer, DefaultDelAckTimeout, &c.delAckCall)
		}
	}
}

// onDelAck fires when the delayed-ACK timer expires; after an immediate ACK
// it has nothing to acknowledge.
func (c *Conn) onDelAck() {
	if c.ackPending > 0 {
		c.sendPureAck()
	}
}

func (c *Conn) deliverData(n int, dsn uint64, mapped bool) {
	c.Stats.DeliveredData += uint64(n)
	if c.cfg.Sink != nil {
		c.cfg.Sink.OnData(n, dsn, mapped)
	}
}

// storeOOO parks an out-of-order segment, ignoring exact duplicates.
func (c *Conn) storeOOO(seq uint32, n int, dsn uint64, mapped bool) {
	c.lastOOOSeq = seq
	ooo := c.ooo.Live()
	i := sort.Search(len(ooo), func(i int) bool { return seqGEQ(ooo[i].seq, seq) })
	if i < len(ooo) && ooo[i].seq == seq {
		return // duplicate
	}
	if unit.ByteSize(c.oooBytes+n) > c.cfg.RcvBuf {
		return // buffer full: arriving OOO data is dropped silently
	}
	end := seq + uint32(n)
	if (i > 0 && seqGT(ooo[i-1].seq+uint32(ooo[i-1].length), seq)) ||
		(i < len(ooo) && seqGT(end, ooo[i].seq)) {
		c.sackRebuild = true
	}
	c.ooo.Insert(i, rseg{seq: seq, length: uint16(n), dsn: dsn, mapped: mapped})
	c.oooBytes += n
	if c.sackRebuild {
		c.rebuildSackRanges()
		return
	}
	// The parked segments are disjoint, so the ranges are their maximal
	// runs: the new one extends the run ending at seq, the run starting at
	// end, joins the two, or stands alone.
	r := c.sackRanges
	j := sort.Search(len(r), func(j int) bool { return seqGEQ(r[j][0], seq) })
	left := j > 0 && r[j-1][1] == seq
	right := j < len(r) && r[j][0] == end
	switch {
	case left && right:
		r[j-1][1] = r[j][1]
		c.sackRanges = append(r[:j], r[j+1:]...)
	case left:
		r[j-1][1] = end
	case right:
		r[j][0] = seq
	default:
		r = append(r, [2]uint32{})
		copy(r[j+1:], r[j:])
		r[j] = [2]uint32{seq, end}
		c.sackRanges = r
	}
}

// rebuildSackRanges recomputes sackRanges from the out-of-order queue:
// runs of exactly adjacent segments, in sequence order. It is what the
// incremental updates in storeOOO and drainOOO must equal, and what they
// fall back on while parked segments overlap.
func (c *Conn) rebuildSackRanges() {
	r := c.sackRanges[:0]
	for _, s := range c.ooo.Live() {
		end := s.seq + uint32(s.length)
		if n := len(r); n > 0 && r[n-1][1] == s.seq {
			r[n-1][1] = end
			continue
		}
		r = append(r, [2]uint32{s.seq, end})
	}
	c.sackRanges = r
}

// drainOOO delivers any parked segments made contiguous by rcvNxt. The
// queue is walked in place and the drained prefix retired afterwards;
// nothing mutates c.ooo during the walk because delivery only schedules
// future events.
func (c *Conn) drainOOO() {
	ooo := c.ooo.Live()
	n := 0
	for n < len(ooo) {
		s := &ooo[n]
		if seqGT(s.seq, c.rcvNxt) {
			break
		}
		n++
		c.oooBytes -= int(s.length)
		if seqLEQ(s.seq+uint32(s.length), c.rcvNxt) {
			continue // stale overlap
		}
		c.rcvNxt = s.seq + uint32(s.length)
		c.deliverData(int(s.length), s.dsn, s.mapped)
	}
	if n == 0 {
		return
	}
	c.ooo.Pop(n)
	switch {
	case c.ooo.Len() == 0:
		c.sackRanges = c.sackRanges[:0]
		c.sackRebuild = false
	case c.sackRebuild:
		c.rebuildSackRanges()
	default:
		// A run whose first segment was drained went with it whole: each
		// segment delivered moves rcvNxt onto the start of the next.
		k := 0
		for k < len(c.sackRanges) && seqLEQ(c.sackRanges[k][0], c.rcvNxt) {
			k++
		}
		c.sackRanges = c.sackRanges[:copy(c.sackRanges, c.sackRanges[k:])]
	}
}

// sendPureAck emits an immediate acknowledgement carrying the
// connection-level data ACK when a Sink provides one. A pending delayed-ACK
// timer stays: onDelAck finds nothing to acknowledge, or a re-arm moves it.
func (c *Conn) sendPureAck() {
	c.ackPending = 0
	p, t := c.arena.GetTCP()
	t.SrcPort = c.local.Port
	t.DstPort = c.remote.Port
	t.Seq = c.sndNxt
	t.Ack = c.rcvNxt
	t.Flags = packet.FlagACK
	t.Window = c.advertisedWindow()
	// Option-space budget: 40 bytes. Timestamps (12 padded) and the MPTCP
	// data ACK (12) squeeze the SACK blocks, as on real stacks.
	budget := 40
	if c.tsOK {
		t.UseTimestamps(c.tsNow(), c.peerTSval)
		budget -= 12
	}
	if ack, ok := c.dataAck(); ok {
		t.UseDSS(packet.DSS{HasAck: true, DataAck: ack})
		budget -= 12
	}
	if blocks := c.sackBlocks(); len(blocks) > 0 {
		if max := (budget - 2) / 8; len(blocks) > max {
			if max <= 0 {
				blocks = nil
			} else {
				blocks = blocks[:max]
			}
		}
		if len(blocks) > 0 {
			// UseSACK copies the scratch-built blocks into the packet's
			// inline storage; the scratch is reused on the next ACK.
			t.UseSACK(blocks)
		}
	}
	c.Stats.AcksSent++
	c.transmit(p, 0)
}

// sackBlocks renders the out-of-order queue as SACK blocks: contiguous
// ranges in sequence order with the one containing the most recent arrival
// swapped to the front (RFC 2018), at most MaxSACKBlocks. The returned
// slice is connection-owned scratch, overwritten by the next call; the ACK
// path copies it into the outgoing packet's storage.
func (c *Conn) sackBlocks() [][2]uint32 {
	if !c.sackOK || c.ooo.Len() == 0 {
		return nil
	}
	blocks := c.sackScratch[:copy(c.sackScratch[:], c.sackRanges)]
	for i, r := range c.sackRanges {
		if seqGEQ(c.lastOOOSeq, r[0]) && seqLT(c.lastOOOSeq, r[1]) {
			if i < len(blocks) {
				blocks[0], blocks[i] = blocks[i], blocks[0]
			} else {
				blocks[0] = r
			}
			break
		}
	}
	return blocks
}
