package packet

import (
	"bytes"
	"math/rand"
	"testing"
)

// tcpSpec is one randomly drawn TCP segment description. buildArena and
// buildRef construct the same segment through the arena and through plain
// composite literals; every observable byte must agree.
type tcpSpec struct {
	tag          Tag
	src, dst     Addr
	sport, dport Port
	seq, ack     uint32
	flags        TCPFlags
	window       uint32
	payload      int

	ts           bool
	tsval, tsecr uint32
	hasDSS       bool
	dss          DSS
	sack         [][2]uint32
}

func drawSpec(rng *rand.Rand) tcpSpec {
	s := tcpSpec{
		tag:     Tag(rng.Intn(4)),
		src:     Addr(rng.Uint32()),
		dst:     Addr(rng.Uint32()),
		sport:   Port(rng.Intn(1 << 16)),
		dport:   Port(rng.Intn(1 << 16)),
		seq:     rng.Uint32(),
		ack:     rng.Uint32(),
		flags:   FlagACK,
		window:  uint32(rng.Intn(1 << 20)),
		payload: rng.Intn(1460),
	}
	if rng.Intn(2) == 0 {
		s.ts = true
		s.tsval, s.tsecr = rng.Uint32(), rng.Uint32()
	}
	if rng.Intn(2) == 0 {
		s.hasDSS = true
		s.dss = DSS{HasMap: true, DSN: rng.Uint64(), SubflowSeq: rng.Uint32(),
			DataLen: uint16(s.payload)}
	}
	for i, n := 0, rng.Intn(MaxSACKBlocks+1); i < n; i++ {
		start := rng.Uint32()
		s.sack = append(s.sack, [2]uint32{start, start + uint32(rng.Intn(3000)+1)})
	}
	return s
}

func buildArena(a *Arena, s tcpSpec) *Packet {
	p, t := a.GetTCP()
	p.IP = IPv4{Tag: s.tag, Proto: ProtoTCP, Src: s.src, Dst: s.dst, TTL: 64}
	p.PayloadLen = s.payload
	t.SrcPort, t.DstPort = s.sport, s.dport
	t.Seq, t.Ack = s.seq, s.ack
	t.Flags, t.Window = s.flags, s.window
	if s.ts {
		t.UseTimestamps(s.tsval, s.tsecr)
	}
	if s.hasDSS {
		t.UseDSS(s.dss)
	}
	if len(s.sack) > 0 {
		t.UseSACK(s.sack)
	}
	return p
}

func buildRef(s tcpSpec) *Packet {
	tcp := &TCP{SrcPort: s.sport, DstPort: s.dport, Seq: s.seq, Ack: s.ack,
		Flags: s.flags, Window: s.window}
	if s.ts {
		tcp.Options = append(tcp.Options, &Timestamps{TSval: s.tsval, TSecr: s.tsecr})
	}
	if s.hasDSS {
		d := s.dss
		tcp.Options = append(tcp.Options, &d)
	}
	if len(s.sack) > 0 {
		blocks := make([][2]uint32, len(s.sack))
		copy(blocks, s.sack)
		tcp.Options = append(tcp.Options, &SACK{Blocks: blocks})
	}
	return &Packet{
		IP:         IPv4{Tag: s.tag, Proto: ProtoTCP, Src: s.src, Dst: s.dst, TTL: 64},
		TCP:        tcp,
		PayloadLen: s.payload,
	}
}

// TestQuickArenaMatchesReference interleaves draws, recycles and stale
// double-recycles against a plain-new reference: every arena-built packet
// must marshal byte-identically to its reference twin both when built and
// again at its terminal event, no matter how other slots churned in
// between. This is the differential oracle for slot reuse — aliasing
// between a live packet and a recycled slot shows up as a byte diff.
func TestQuickArenaMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var a Arena

		type pair struct {
			pkt  *Packet
			wire []byte // reference marshal captured at build time
		}
		var live []pair
		// freshDead holds packets recycled since the last draw. A stale
		// Recycle is a no-op only until the slot is redrawn — afterwards
		// the old pointer IS the new live packet (the ABA boundary the
		// arena documents), so the engine's one-terminal-event discipline
		// is what the differential models: stale recycles may race other
		// recycles, never a reuse.
		var freshDead []*Packet

		check := func(p pair, when string) {
			if got := p.pkt.Marshal(); !bytes.Equal(got, p.wire) {
				t.Fatalf("seed %d: %s: arena packet diverged from reference\n got %x\nwant %x",
					seed, when, got, p.wire)
			}
		}

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // draw and build
				s := drawSpec(rng)
				p := buildArena(&a, s)
				freshDead = freshDead[:0] // slots may be redrawn now
				pr := pair{pkt: p, wire: buildRef(s).Marshal()}
				check(pr, "at build")
				live = append(live, pr)
			case r < 8 && len(live) > 0: // terminal event: verify then recycle
				i := rng.Intn(len(live))
				check(live[i], "before recycle")
				a.Recycle(live[i].pkt)
				freshDead = append(freshDead, live[i].pkt)
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
			case r < 9 && len(freshDead) > 0: // stale recycle before any redraw
				a.Recycle(freshDead[rng.Intn(len(freshDead))])
			default: // recycle of a foreign composite-literal packet
				a.Recycle(buildRef(drawSpec(rng)))
			}
		}
		// Drain: every survivor must still match its reference.
		for _, p := range live {
			check(p, "at drain")
			a.Recycle(p.pkt)
		}
		// Exactly-once accounting: every slot ever created is back on the
		// free list once — a leak leaves it short of whole slabs, a stale
		// or foreign recycle that was not ignored adds a duplicate. A slot
		// pushed twice links the list into a cycle, so the walk is bounded
		// by one step more than there are slots.
		slots := len(a.slabs) * slabSize
		seen := make(map[*slot]bool, slots)
		for s := a.free; s != nil; s = s.next {
			if seen[s] {
				t.Fatalf("seed %d: a slot is on the free list twice", seed)
			}
			if len(seen) == slots {
				t.Fatalf("seed %d: the free list runs past all %d slots", seed, slots)
			}
			seen[s] = true
		}
		if n := len(seen); n == 0 || n%slabSize != 0 || n != slots {
			t.Fatalf("seed %d: %d free slots after the drain, want whole slabs of %d, all %d", seed, n, slabSize, slots)
		}
	}
}

// TestSlotReuseOverwritesHeldOptionPointers pins down the aliasing rule
// the arena documents: option values live in the slot and are overwritten
// on reuse, so holders must copy by value before the terminal event (a tap
// recording mappings does exactly this). The test asserts both halves —
// the value copy survives, the retained pointer does not.
func TestSlotReuseOverwritesHeldOptionPointers(t *testing.T) {
	var a Arena
	p1, t1 := a.GetTCP()
	orig := DSS{HasMap: true, DSN: 0x1111, SubflowSeq: 7, DataLen: 1400}
	attached := t1.UseDSS(orig)
	held := *attached // the discipline: copy by value before recycle
	a.Recycle(p1)

	p2, t2 := a.GetTCP()
	if p2 != p1 {
		t.Fatal("free list did not reuse the recycled slot")
	}
	next := DSS{HasMap: true, DSN: 0x9999, SubflowSeq: 21, DataLen: 500}
	t2.UseDSS(next)

	if held != orig {
		t.Fatalf("value copy corrupted by slot reuse: %+v", held)
	}
	if *attached != next {
		t.Fatalf("stale option pointer reads %+v; the slot was reused, so it must see the new mapping %+v — if this fails, Recycle stopped recycling option storage and the zero-alloc path is gone", *attached, next)
	}
}

// TestRecycleResetsOptionStorage verifies a reused slot starts from a
// clean state: no options, no SACK blocks, a zeroed header — exactly what
// a composite literal would give.
func TestRecycleResetsOptionStorage(t *testing.T) {
	var a Arena
	p, tb := a.GetTCP()
	tb.UseTimestamps(1, 2)
	tb.UseDSS(DSS{HasMap: true, DSN: 42})
	tb.UseSACK([][2]uint32{{1, 2}, {3, 4}})
	p.PayloadLen = 1000
	p.IP.Tag = 3
	_ = p.Size() // populate the wire cache; reuse must clear it
	a.Recycle(p)

	p2, tb2 := a.GetTCP()
	if len(tb2.Options) != 0 {
		t.Fatalf("reused slot carries %d stale options", len(tb2.Options))
	}
	if tb2.Seq != 0 || tb2.Ack != 0 || tb2.Flags != 0 || tb2.Window != 0 {
		t.Fatalf("reused slot carries stale header: %+v", tb2.TCP)
	}
	if p2.PayloadLen != 0 || p2.IP.Tag != 0 {
		t.Fatalf("reused packet carries stale IP/payload: %+v", p2)
	}
	if got := int(p2.Size()); got != IPv4HeaderLen+p2.TCP.HeaderLen() {
		t.Fatalf("reused packet's size cache is stale: %v", got)
	}
}
