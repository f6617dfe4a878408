package tcp

// Reference implementations for the scoreboard and SACK-range accelerators,
// next to scanOutstanding: the full walks the ACK path used to make on every
// segment. The production functions bound or skip those walks with counters,
// watermarks and cursors; the property tests below drive random
// ACK/SACK/RTO and reordering scripts through the real entry points and, at
// every step, require the production function and the walk to do exactly
// the same thing from the same state.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"mptcpsim/internal/fifo"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
)

// refMarkLost is the full-window RFC 6675 loss walk: top to bottom, summing
// the sacked bytes above every segment.
func refMarkLost(c *Conn) bool {
	changed := false
	sackedAbove := 0
	thresh := 3 * c.mss
	segs := c.rtx.Live()
	for i := len(segs) - 1; i >= 0; i-- {
		s := &segs[i]
		if s.sacked {
			sackedAbove += s.length
			continue
		}
		if !s.lost && sackedAbove >= thresh {
			c.pipe -= segPipe(s)
			s.lost = true
			s.rtx = false
			changed = true
		}
	}
	return changed
}

// refApplySACK is the per-block SACK walk: a binary search to the block's
// start, then every segment the block covers, sacked already or not.
func refApplySACK(c *Conn, blocks [][2]uint32) bool {
	changed := false
	segs := c.rtx.Live()
	for _, b := range blocks {
		start, end := b[0], b[1]
		if !seqLT(start, end) {
			continue
		}
		lo := sort.Search(len(segs), func(i int) bool {
			return seqGEQ(segs[i].seq, start)
		})
		for i := lo; i < len(segs); i++ {
			s := &segs[i]
			if !seqLEQ(s.seq+uint32(s.length), end) {
				break
			}
			if s.sacked {
				continue
			}
			c.pipe -= segPipe(s)
			if s.lost {
				c.lostHoles--
			}
			s.sacked = true
			s.lost = false
			c.sackedSegs++
			changed = true
			if top := c.rtxPopped + i + 1; top > c.sackTop {
				c.sackTop = top
			}
		}
	}
	return changed
}

// refSendScoreboard is the recovery transmission rule with the candidate
// scan started at the front of the scoreboard on every call.
func refSendScoreboard(c *Conn) {
	if c.state != StateEstablished {
		return
	}
	wnd := c.effectiveWindow()
	out := c.outstanding()
	rearm := c.rtt.RTO()
	now := c.loop.Now()
	segs := c.rtx.Live()
	scan := 0
	for {
		if out >= wnd {
			return
		}
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
		}
		if hole == nil {
			return
		}
		scan++
		if !hole.rtx {
			out += hole.length
			c.pipe += hole.length
		}
		hole.rtx = true
		hole.sentAt = now
		c.sendData(hole, true)
	}
}

// refSackBlocks rebuilds the SACK blocks from the out-of-order queue:
// coalesce exactly adjacent segments, swap the range holding the latest
// arrival to the front, truncate.
func refSackBlocks(c *Conn) [][2]uint32 {
	if !c.sackOK || c.ooo.Len() == 0 {
		return nil
	}
	var ranges [][2]uint32
	for _, s := range c.ooo.Live() {
		end := s.seq + uint32(s.length)
		if n := len(ranges); n > 0 && ranges[n-1][1] == s.seq {
			ranges[n-1][1] = end
			continue
		}
		ranges = append(ranges, [2]uint32{s.seq, end})
	}
	for i, r := range ranges {
		if seqGEQ(c.lastOOOSeq, r[0]) && seqLT(c.lastOOOSeq, r[1]) {
			ranges[0], ranges[i] = ranges[i], ranges[0]
			break
		}
	}
	if len(ranges) > packet.MaxSACKBlocks {
		ranges = ranges[:packet.MaxSACKBlocks]
	}
	return ranges
}

// cloneScoreboard copies a connection with its own scoreboard storage, so a
// walk can run on the copy without touching the original. The copy shares
// the host: whatever it transmits goes into the same (swallowing) network.
func cloneScoreboard(c *Conn) *Conn {
	cp := *c
	cp.rtx = fifo.Queue[seg]{}
	for _, s := range c.rtx.Live() {
		cp.rtx.Push(s)
	}
	cp.rtoTimer, cp.delAckTimer = sim.Timer{}, sim.Timer{}
	return &cp
}

// sameScoreboard compares what the walks decide: every segment's flags and
// timestamps, and the pipe.
func sameScoreboard(a, b *Conn) error {
	as, bs := a.rtx.Live(), b.rtx.Live()
	if len(as) != len(bs) {
		return fmt.Errorf("%d vs %d segments", len(as), len(bs))
	}
	for i := range as {
		if as[i] != bs[i] {
			return fmt.Errorf("segment %d: %+v vs %+v", i, as[i], bs[i])
		}
	}
	if a.pipe != b.pipe {
		return fmt.Errorf("pipe %d vs %d", a.pipe, b.pipe)
	}
	return nil
}

// checkAccelerators verifies every counter and watermark against a recount
// of the scoreboard.
func checkAccelerators(c *Conn) error {
	segs := c.rtx.Live()
	sacked, holes := 0, 0
	oldest := sim.End
	for i := range segs {
		s := &segs[i]
		ord := c.rtxPopped + i
		hole := s.lost && !s.sacked
		switch {
		case s.sacked:
			sacked++
			if ord >= c.sackTop {
				return fmt.Errorf("segment %d sacked at or above sackTop %d", ord, c.sackTop)
			}
		case hole:
			holes++
		}
		if !s.sacked && !s.lost && ord < c.lostFloor {
			return fmt.Errorf("segment %d below lostFloor %d is neither sacked nor lost", ord, c.lostFloor)
		}
		if hole && !s.rtx && ord < c.holeCursor {
			return fmt.Errorf("hole %d below holeCursor %d was never retransmitted", ord, c.holeCursor)
		}
		if hole && s.rtx && s.sentAt < oldest {
			oldest = s.sentAt
		}
		if ord >= c.sackLow && ord < c.sackTop && !s.sacked {
			return fmt.Errorf("segment %d in the sacked run [%d, %d) is not sacked", ord, c.sackLow, c.sackTop)
		}
	}
	if c.sackLow > c.sackTop {
		return fmt.Errorf("sackLow %d is above sackTop %d", c.sackLow, c.sackTop)
	}
	if sacked != c.sackedSegs || holes != c.lostHoles {
		return fmt.Errorf("sackedSegs %d lostHoles %d, recount %d %d", c.sackedSegs, c.lostHoles, sacked, holes)
	}
	if c.oldestRtx > oldest {
		return fmt.Errorf("oldestRtx %v is later than a retransmitted hole's sentAt %v", c.oldestRtx, oldest)
	}
	if c.pipe != c.scanOutstanding() {
		return fmt.Errorf("pipe %d, scan %d", c.pipe, c.scanOutstanding())
	}
	return nil
}

// peerModel is the scripted receiver of the sender property test: which of
// the sender's segments arrived, hence what to acknowledge.
type peerModel struct {
	got    map[int]bool
	cum    int
	latest int
}

func (m *peerModel) receive(seg int) {
	m.got[seg] = true
	m.latest = seg
	for m.got[m.cum] {
		m.cum++
	}
}

// blocks renders the out-of-order segments as up to limit SACK blocks, the
// one with the latest arrival first.
func (m *peerModel) blocks(top, limit int) [][2]int {
	var all [][2]int
	for s := m.cum; s < top; s++ {
		if !m.got[s] {
			continue
		}
		if n := len(all); n > 0 && all[n-1][1] == s {
			all[n-1][1] = s + 1
		} else {
			all = append(all, [2]int{s, s + 1})
		}
	}
	for i, b := range all {
		if m.latest >= b[0] && m.latest < b[1] {
			all[0], all[i] = all[i], all[0]
			break
		}
	}
	if len(all) > limit {
		all = all[:limit]
	}
	return all
}

// TestScoreboardMatchesReferenceWalks: random loss, reordering of ACKs and
// idle gaps (RTOs, soft timeouts) against a bulk sender, with one SACK
// block per ACK (what fits beside timestamps and a data ACK) and with
// MaxSACKBlocks. Before every ACK is delivered, it is applied to two copies —
// applySACK on one, refApplySACK on the other, then popAcked on both — and
// the copies must report the same change and hold the same scoreboard and
// counters. Then the production markLost and sendScoreboard on one copy must
// leave exactly the scoreboard, and send exactly the retransmissions, that
// the full walks leave and send on the other. After every step the counters
// and watermarks are recounted.
func TestScoreboardMatchesReferenceWalks(t *testing.T) {
	for _, perAck := range []int{1, packet.MaxSACKBlocks} {
		for seed := int64(1); seed <= 30; seed++ {
			scoreboardScript(t, seed, perAck)
		}
	}
}

// scoreboardScript runs one seed of TestScoreboardMatchesReferenceWalks with
// at most perAck SACK blocks on every ACK.
func scoreboardScript(t *testing.T, seed int64, perAck int) {
	rng := rand.New(rand.NewSource(seed))
	p := newScriptPeer(t, Config{Source: BulkSource{}})
	c := p.c
	m := &peerModel{got: map[int]bool{}}
	lossProb := []float64{0.02, 0.1, 0.3}[seed%3]
	var ackQ []func()
	what := func(step int) string { return fmt.Sprintf("%d blocks seed %d step %d", perAck, seed, step) }

	compareWalks := func(step int, cum int, blocks [][2]int) {
		var wire [][2]uint32
		for _, b := range blocks {
			wire = append(wire, [2]uint32{p.sndSeq(b[0]), p.sndSeq(b[1])})
		}
		prod, ref := cloneScoreboard(c), cloneScoreboard(c)
		gotChanged, wantChanged := prod.applySACK(wire), refApplySACK(ref, wire)
		if gotChanged != wantChanged {
			t.Fatalf("%s: applySACK(%v) reported %v, full walk %v", what(step), blocks, gotChanged, wantChanged)
		}
		if err := sameScoreboard(prod, ref); err != nil {
			t.Fatalf("%s: after applySACK(%v): %v", what(step), blocks, err)
		}
		if prod.sackedSegs != ref.sackedSegs || prod.lostHoles != ref.lostHoles || prod.sackTop != ref.sackTop {
			t.Fatalf("%s: after applySACK(%v): sackedSegs, lostHoles, sackTop %d %d %d, full walk %d %d %d", what(step), blocks,
				prod.sackedSegs, prod.lostHoles, prod.sackTop, ref.sackedSegs, ref.lostHoles, ref.sackTop)
		}
		for _, cp := range []*Conn{prod, ref} {
			if ack := p.sndSeq(cum); seqGT(ack, cp.sndUna) {
				cp.sndUna = ack
				cp.popAcked(ack, cp.loop.Now())
			}
		}
		// The copies transmit into the same capture as the connection.
		inFlight := p.data
		p.data = nil
		defer func() { p.data = inFlight }()
		gotChanged = prod.markLost()
		if wantChanged := refMarkLost(ref); gotChanged != wantChanged {
			t.Fatalf("%s: markLost reported %v, full walk %v", what(step), gotChanged, wantChanged)
		}
		if err := sameScoreboard(prod, ref); err != nil {
			t.Fatalf("%s: after markLost: %v", what(step), err)
		}
		prod.sendScoreboard()
		gotSent := append([]sentSeg(nil), p.data...)
		p.data = p.data[:0]
		refSendScoreboard(ref)
		if !reflect.DeepEqual(gotSent, p.data) {
			t.Fatalf("%s: sendScoreboard retransmitted %v, full walk %v", what(step), gotSent, p.data)
		}
		if err := sameScoreboard(prod, ref); err != nil {
			t.Fatalf("%s: after sendScoreboard: %v", what(step), err)
		}
		if err := checkAccelerators(prod); err != nil {
			t.Fatalf("%s: copy after the production walks: %v", what(step), err)
		}
	}

	for step := 0; step < 600; step++ {
		// Whatever the sender transmitted reaches the peer or is lost;
		// each arrival queues an ACK.
		for _, d := range p.data {
			if rng.Float64() < lossProb {
				continue
			}
			m.receive(d.seg)
			cum, blocks := m.cum, m.blocks(int(c.sndNxt-(c.iss+1))/scriptMSS, perAck)
			ackQ = append(ackQ, func() {
				compareWalks(step, cum, blocks)
				p.ack(cum, blocks...)
			})
		}
		p.data = p.data[:0]
		switch {
		case len(ackQ) == 0 || rng.Intn(12) == 0:
			// Idle: up to one and a half RTOs.
			p.advance(time.Duration(rng.Int63n(int64(c.rtt.RTO()) * 3 / 2)))
		default:
			// Deliver the next ACK, now and then a later one first.
			i := 0
			if rng.Intn(8) == 0 {
				i = rng.Intn(len(ackQ))
			}
			deliver := ackQ[i]
			ackQ = append(ackQ[:i], ackQ[i+1:]...)
			p.advance(time.Duration(rng.Intn(3)) * time.Millisecond)
			deliver()
		}
		if err := checkAccelerators(c); err != nil {
			t.Fatalf("%s: %v", what(step), err)
		}
	}
	if c.Stats.FastRecovery == 0 || c.Stats.Retransmits == 0 {
		t.Fatalf("seed %d: no recovery episode (%+v); the script exercises nothing", seed, c.Stats)
	}
}

// TestSackRangesMatchRebuild: segments arrive in random order, duplicated,
// occasionally misaligned so they overlap what is parked (the fallback), and
// after every arrival the incrementally kept ranges must equal a rebuild
// from the queue and the ACK that went out must carry the blocks the
// rebuild-and-swap reference computes.
func TestSackRangesMatchRebuild(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := newScriptPeer(t, Config{})
		c := p.c
		base := p.peerISS + 1
		overlaps := seed%3 == 0
		next := 0 // lowest segment never sent
		var pending []int
		for step := 0; step < 800; step++ {
			// Keep a window of segments in flight, delivered in random order.
			for len(pending) < 2+rng.Intn(30) {
				pending = append(pending, next)
				next++
			}
			i := rng.Intn(len(pending))
			if rng.Intn(4) > 0 {
				i = rng.Intn(min(len(pending), 3)) // mostly near in-order
			}
			s := pending[i]
			if rng.Intn(10) > 0 {
				pending = append(pending[:i], pending[i+1:]...)
			}
			seqNo, n := base+uint32(s*scriptMSS), scriptMSS
			if overlaps && rng.Intn(6) == 0 {
				seqNo -= uint32(rng.Intn(scriptMSS))
				n += rng.Intn(2 * scriptMSS)
			}
			p.inject(&packet.TCP{Seq: seqNo, Ack: c.sndNxt, Flags: packet.FlagACK}, n)

			what := fmt.Sprintf("seed %d step %d (seq +%d len %d)", seed, step, seqNo-base, n)
			got := append([][2]uint32(nil), c.sackRanges...)
			c.rebuildSackRanges()
			if !reflect.DeepEqual(got, append([][2]uint32(nil), c.sackRanges...)) {
				t.Fatalf("%s: ranges %v, rebuild %v", what, got, c.sackRanges)
			}
			want := refSackBlocks(c)
			if blocks := c.sackBlocks(); !reflect.DeepEqual(append([][2]uint32(nil), blocks...), want) {
				t.Fatalf("%s: sackBlocks %v, reference %v", what, blocks, want)
			}
			if len(p.acks) > 0 {
				var wire [][2]int
				for _, b := range want {
					wire = append(wire, [2]int{p.recvSeg(b[0]), p.recvSeg(b[1])})
				}
				if a := p.lastAck(what); !overlaps && !reflect.DeepEqual(a.sack, wire) {
					t.Fatalf("%s: ACK carried %v, reference %v", what, a.sack, wire)
				}
			}
			if c.oooBytes < 0 || (c.ooo.Len() == 0) != (c.oooBytes == 0) {
				t.Fatalf("%s: %d bytes accounted for %d parked segments", what, c.oooBytes, c.ooo.Len())
			}
		}
		if !overlaps && c.sackRebuild {
			t.Fatalf("seed %d: aligned traffic latched the rebuild fallback", seed)
		}
	}
}
