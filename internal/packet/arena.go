package packet

// Arena is a per-run free list of packets and their transport storage.
// Senders draw fully reset packets with GetTCP/GetUDP; the network engine
// recycles every arena packet at its terminal event — delivery to a local
// handler, or a drop anywhere — so steady-state packet transit allocates
// nothing: construction reuses the slot of an earlier packet.
//
// Ownership and aliasing rules (the ABA discipline):
//
//   - A packet is live from Get until its terminal tap (deliver/drop) has
//     run. Taps and handlers observe the packet synchronously inside that
//     window and must copy anything they keep — the slot is reused for an
//     unrelated packet on the next Get.
//   - The per-packet option values (Timestamps, DSS, SACK blocks) live in
//     the slot's TCPBuf and are recycled with it.
//   - Recycle is idempotent and ignores foreign packets (constructed with
//     new/composite literals), so tests and external senders need no
//     arena awareness.
//
// An Arena is single-goroutine, like the sim.Loop that drives the run that
// owns it. The zero value is ready for use.
type Arena struct {
	free []*slot
}

// slabSize is the number of slots added per arena growth, amortising the
// warm-up allocations the same way the event-node arena grows.
const slabSize = 64

// slot bundles one packet with the transport storage recycled alongside
// it. The network and transport headers are distinct objects on a Packet,
// so the slot carries them all and Get wires up the variant requested.
type slot struct {
	owner *Arena
	pkt   Packet
	tcp   TCPBuf
	udp   UDP
}

// TCPBuf is the per-packet TCP storage recycled with its packet: the
// header plus inline values for the options hot senders attach per
// segment (timestamps, a DSS mapping, SACK blocks). Building a segment
// into a TCPBuf allocates nothing; the option pointers appended to
// Options point into the buf itself.
type TCPBuf struct {
	TCP
	// Ts, Dss and Sack are the inline option values; Use* helpers fill
	// them and append them to Options.
	Ts   Timestamps
	Dss  DSS
	Sack SACK

	blocks [MaxSACKBlocks][2]uint32
	opts   [4]Option
}

// UseTimestamps attaches an RFC 7323 timestamps option.
func (b *TCPBuf) UseTimestamps(tsval, tsecr uint32) {
	b.Ts = Timestamps{TSval: tsval, TSecr: tsecr}
	b.Options = append(b.Options, &b.Ts)
}

// UseDSS attaches a DSS option holding a copy of d and returns the
// attached copy for further adjustment (data-ACK piggybacking).
func (b *TCPBuf) UseDSS(d DSS) *DSS {
	b.Dss = d
	b.Options = append(b.Options, &b.Dss)
	return &b.Dss
}

// UseSACK attaches a SACK option carrying a copy of up to MaxSACKBlocks
// blocks in the buf's inline block storage, so callers may pass scratch
// slices they will overwrite before the packet is delivered.
func (b *TCPBuf) UseSACK(blocks [][2]uint32) {
	n := copy(b.blocks[:], blocks)
	b.Sack = SACK{Blocks: b.blocks[:n]}
	b.Options = append(b.Options, &b.Sack)
}

// get pops a slot from the free list, growing the arena by a slab when
// it is empty.
func (a *Arena) get() *slot {
	if n := len(a.free); n > 0 {
		s := a.free[n-1]
		a.free = a.free[:n-1]
		return s
	}
	slab := make([]slot, slabSize)
	for i := range slab {
		slab[i].owner = a
	}
	for i := len(slab) - 1; i >= 1; i-- {
		a.free = append(a.free, &slab[i])
	}
	return &slab[0]
}

// GetTCP draws a packet wired as a TCP segment: the packet's TCP header
// points at the returned TCPBuf, whose Options slice is reset onto its
// inline storage. Every field is freshly zeroed, exactly as a composite
// literal would build it.
func (a *Arena) GetTCP() (*Packet, *TCPBuf) {
	s := a.get()
	s.tcp.TCP = TCP{Options: s.tcp.opts[:0]}
	s.pkt = Packet{TCP: &s.tcp.TCP, slot: s}
	return &s.pkt, &s.tcp
}

// GetUDP draws a packet wired as a UDP datagram.
func (a *Arena) GetUDP() (*Packet, *UDP) {
	s := a.get()
	s.udp = UDP{}
	s.pkt = Packet{UDP: &s.udp, slot: s}
	return &s.pkt, &s.udp
}

// Recycle returns a packet to the arena at its terminal event. Packets
// the arena does not own — foreign composite literals, packets of another
// arena, or a packet already recycled — are ignored, so the
// call is safe at every terminal point. The idempotence window closes
// when the slot is redrawn: after the next Get the old pointer IS the new
// live packet, so callers must recycle exactly once, at the packet's
// single terminal event — the discipline the engine's tap order enforces.
func (a *Arena) Recycle(p *Packet) {
	s := p.slot
	if s == nil || s.owner != a {
		return
	}
	// Disown before anything else: a second Recycle of the same pointer
	// (or of the stale packet after the slot is reused) is a no-op.
	p.slot = nil
	// Drop the option references so a recycled slot does not pin
	// heap-grown option slices or foreign option structs (SYN options).
	for i := range s.tcp.opts {
		s.tcp.opts[i] = nil
	}
	s.tcp.Options = nil
	s.tcp.Sack.Blocks = nil
	a.free = append(a.free, s)
}
