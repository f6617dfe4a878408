package packet

import (
	"encoding/binary"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestAddrString(t *testing.T) {
	a := MakeAddr(10, 0, 0, 1)
	if a.String() != "10.0.0.1" {
		t.Fatalf("got %q", a.String())
	}
	if MakeAddr(192, 168, 255, 254).String() != "192.168.255.254" {
		t.Fatal("addr formatting broken")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example-style check: sum of buffer with embedded checksum is 0.
	h := IPv4{Tag: 3, ID: 7, TTL: 64, Proto: ProtoTCP,
		Src: MakeAddr(10, 0, 0, 1), Dst: MakeAddr(10, 0, 0, 2), TotalLen: 40}
	var b [IPv4HeaderLen]byte
	h.marshalInto(b[:])
	if Checksum(b[:]) != 0 {
		t.Fatal("checksum of checksummed header must be 0")
	}
	// Corrupt a byte: checksum must catch it.
	b[8] ^= 0xff
	if Checksum(b[:]) == 0 {
		t.Fatal("corruption not detected")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4{Tag: 2, ID: 1234, TTL: 61, Proto: ProtoUDP,
		Src: MakeAddr(10, 1, 2, 3), Dst: MakeAddr(10, 3, 2, 1), TotalLen: 28}
	var b [IPv4HeaderLen]byte
	h.marshalInto(b[:])
	var g IPv4
	if err := g.unmarshal(b[:]); err != nil {
		t.Fatal(err)
	}
	if g != h {
		t.Fatalf("round trip: got %+v want %+v", g, h)
	}
}

func TestIPv4UnmarshalErrors(t *testing.T) {
	var g IPv4
	if err := g.unmarshal(make([]byte, 10)); err == nil {
		t.Fatal("short buffer should fail")
	}
	b := make([]byte, IPv4HeaderLen)
	b[0] = 0x46 // IHL 6: options unsupported
	if err := g.unmarshal(b); err == nil {
		t.Fatal("IHL != 5 should fail")
	}
}

func mkDataPacket(tag Tag, seq uint32, payload int) *Packet {
	return &Packet{
		IP: IPv4{Tag: tag, TTL: DefaultTTL, Proto: ProtoTCP,
			Src: MakeAddr(10, 0, 0, 1), Dst: MakeAddr(10, 0, 0, 2)},
		TCP: &TCP{
			SrcPort: 5001, DstPort: 80,
			Seq: seq, Ack: 99, Flags: FlagACK, Window: 65536,
			Options: []Option{&DSS{
				HasAck: true, DataAck: 1 << 40,
				HasMap: true, DSN: 1<<40 + 5, SubflowSeq: seq, DataLen: uint16(payload),
			}},
		},
		PayloadLen: payload,
	}
}

func TestPacketMarshalUnmarshalTCP(t *testing.T) {
	p := mkDataPacket(3, 1000, 1460)
	wire := p.Marshal()
	if len(wire) != int(p.Size()) {
		t.Fatalf("wire len %d != Size %d", len(wire), p.Size())
	}
	q, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if q.IP.Tag != 3 || q.TCP == nil || q.TCP.Seq != 1000 || q.PayloadLen != 1460 {
		t.Fatalf("round trip mismatch: %s", q)
	}
	d := q.TCP.DSS()
	if d == nil {
		t.Fatal("DSS option lost")
	}
	if !d.HasAck || d.DataAck != 1<<40 || !d.HasMap || d.DSN != 1<<40+5 || d.DataLen != 1460 {
		t.Fatalf("DSS mismatch: %+v", d)
	}
	if q.Flow() != p.Flow() {
		t.Fatalf("flow mismatch: %v vs %v", q.Flow(), p.Flow())
	}
}

func TestPacketMarshalUnmarshalSYN(t *testing.T) {
	p := &Packet{
		IP: IPv4{TTL: DefaultTTL, Proto: ProtoTCP,
			Src: MakeAddr(10, 0, 0, 1), Dst: MakeAddr(10, 0, 0, 2)},
		TCP: &TCP{
			SrcPort: 5001, DstPort: 80, Seq: 7, Flags: FlagSYN, Window: 65536,
			Options: []Option{
				&MSSOption{MSS: 1460},
				&MPCapable{Key: 0xdeadbeefcafef00d},
			},
		},
	}
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q.TCP.Flags != FlagSYN {
		t.Fatalf("flags = %v", q.TCP.Flags)
	}
	mss, ok := q.TCP.Option(KindMSS).(*MSSOption)
	if !ok || mss.MSS != 1460 {
		t.Fatalf("MSS option lost: %+v", q.TCP.Options)
	}
	var cap *MPCapable
	for _, o := range q.TCP.Options {
		if c, ok := o.(*MPCapable); ok {
			cap = c
		}
	}
	if cap == nil || cap.Key != 0xdeadbeefcafef00d {
		t.Fatalf("MP_CAPABLE lost: %+v", q.TCP.Options)
	}
}

func TestPacketMarshalUnmarshalJoin(t *testing.T) {
	p := &Packet{
		IP: IPv4{Tag: 5, TTL: DefaultTTL, Proto: ProtoTCP,
			Src: MakeAddr(10, 0, 0, 1), Dst: MakeAddr(10, 0, 0, 2)},
		TCP: &TCP{SrcPort: 5002, DstPort: 80, Seq: 1, Flags: FlagSYN, Window: 4096,
			Options: []Option{&MPJoin{Token: 0xabc123, AddrID: 2}}},
	}
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	j, ok := q.TCP.Options[0].(*MPJoin)
	if !ok || j.Token != 0xabc123 || j.AddrID != 2 {
		t.Fatalf("MP_JOIN lost: %+v", q.TCP.Options)
	}
}

func TestPacketMarshalUnmarshalUDP(t *testing.T) {
	p := &Packet{
		IP: IPv4{Tag: 1, TTL: DefaultTTL, Proto: ProtoUDP,
			Src: MakeAddr(10, 0, 0, 9), Dst: MakeAddr(10, 0, 0, 2)},
		UDP:        &UDP{SrcPort: 9000, DstPort: 9001},
		PayloadLen: 500,
	}
	q, err := Unmarshal(p.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if q.UDP == nil || q.UDP.SrcPort != 9000 || q.PayloadLen != 500 {
		t.Fatalf("UDP round trip: %s", q)
	}
	if q.UDP.Length != UDPHeaderLen+500 {
		t.Fatalf("UDP length field = %d", q.UDP.Length)
	}
}

func TestCorruptedPacketRejected(t *testing.T) {
	wire := mkDataPacket(1, 42, 100).Marshal()
	wire[12] ^= 0x01 // flip a source-address bit
	if _, err := Unmarshal(wire); err == nil {
		t.Fatal("corrupted header accepted")
	}
}

// TestMalformedFramesRejected: frames whose IPv4 checksum holds but whose
// lengths do not are errors, never panics — pcapdump hands Unmarshal
// whatever a capture file holds.
func TestMalformedFramesRejected(t *testing.T) {
	// A total length shorter than the IPv4 header itself.
	short := mkDataPacket(1, 42, 100).Marshal()
	binary.BigEndian.PutUint16(short[2:], 10)
	binary.BigEndian.PutUint16(short[10:], 0)
	binary.BigEndian.PutUint16(short[10:], Checksum(short[:IPv4HeaderLen]))
	// A SYN whose 4-byte MSS option is overwritten with opt.
	withOption := func(opt ...byte) []byte {
		syn := &Packet{
			IP: IPv4{TTL: DefaultTTL, Proto: ProtoTCP, Src: MakeAddr(10, 0, 0, 1), Dst: MakeAddr(10, 0, 0, 2)},
			TCP: &TCP{SrcPort: 5001, DstPort: 80, Flags: FlagSYN, Window: 65536,
				Options: []Option{&MSSOption{MSS: 1460}}},
		}
		wire := syn.Marshal()
		copy(wire[IPv4HeaderLen+TCPHeaderLen:], opt)
		return wire
	}
	for name, frame := range map[string][]byte{
		"total length 10":          short,
		"MPTCP option of length 2": withOption(KindMPTCP, 2, optNOP, optNOP),
		"DSS option of length 3":   withOption(KindMPTCP, 3, subDSS<<4, optNOP),
	} {
		if Checksum(frame[:IPv4HeaderLen]) != 0 {
			t.Fatalf("%s: the IPv4 checksum does not hold", name)
		}
		if p, err := Unmarshal(frame); err == nil {
			t.Errorf("%s: accepted as %s", name, p)
		}
	}
}

func TestWireWindowRounding(t *testing.T) {
	tests := []struct {
		in   uint32
		want uint16
	}{
		{0, 0}, {1, 1}, {255, 1}, {256, 1}, {257, 2}, {65536, 256},
		{0xffffffff, 0xffff},
	}
	for _, tc := range tests {
		if got := wireWindow(tc.in); got != tc.want {
			t.Errorf("wireWindow(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

// Property: TCP packets with arbitrary field values round-trip through
// Marshal/Unmarshal (windows quantised to the wire unit).
func TestQuickTCPRoundTrip(t *testing.T) {
	f := func(tag uint8, seq, ack uint32, sp, dp uint16, payload uint16, winUnits uint16) bool {
		pl := int(payload % 1461)
		p := &Packet{
			IP: IPv4{Tag: Tag(tag), TTL: DefaultTTL, Proto: ProtoTCP,
				Src: MakeAddr(10, 0, 0, 1), Dst: MakeAddr(10, 0, 0, 2)},
			TCP: &TCP{SrcPort: Port(sp), DstPort: Port(dp), Seq: seq, Ack: ack,
				Flags: FlagACK, Window: uint32(winUnits) * WindowUnit},
			PayloadLen: pl,
		}
		q, err := Unmarshal(p.Marshal())
		if err != nil {
			return false
		}
		return q.IP.Tag == Tag(tag) && q.TCP.Seq == seq && q.TCP.Ack == ack &&
			q.TCP.Window == uint32(winUnits)*WindowUnit && q.PayloadLen == pl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: DSS options round-trip for arbitrary sequence values.
func TestQuickDSSRoundTrip(t *testing.T) {
	f := func(dack, dsn uint64, ssn uint32, dlen uint16, hasAck, hasMap bool) bool {
		if !hasAck && !hasMap {
			hasMap = true
		}
		in := &DSS{HasAck: hasAck, DataAck: dack, HasMap: hasMap, DSN: dsn, SubflowSeq: ssn, DataLen: dlen}
		b := make([]byte, in.wireLen())
		in.marshal(b)
		out, err := parseMPTCP(b)
		if err != nil {
			return false
		}
		d, ok := out.(*DSS)
		if !ok || d.HasAck != hasAck || d.HasMap != hasMap {
			return false
		}
		if hasAck && d.DataAck != dack {
			return false
		}
		if hasMap && (d.DSN != dsn || d.SubflowSeq != ssn || d.DataLen != dlen) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPacketSize pins the wire size of a data segment and a bare ACK, and
// the record at 72 bytes: Hop sits in what was tail padding after wire, and
// packet slabs and every frame's packet load stay the size they were.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 72 {
		t.Errorf("Packet is %d bytes, want <= 72", n)
	}
	p := mkDataPacket(1, 0, 1460)
	// IP 20 + TCP 20 + DSS(4+8+8+4+2=26 padded to 28) + payload.
	want := 20 + 20 + 28 + 1460
	if int(p.Size()) != want {
		t.Fatalf("Size = %d, want %d", p.Size(), want)
	}
	ack := &Packet{IP: IPv4{Proto: ProtoTCP}, TCP: &TCP{Flags: FlagACK}}
	if int(ack.Size()) != 40 {
		t.Fatalf("bare ACK size = %d, want 40", ack.Size())
	}
}

func TestStringsDoNotPanic(t *testing.T) {
	p := mkDataPacket(2, 9, 10)
	for _, s := range []string{p.String(), p.Flow().String(), p.Tag().String(),
		TagNone.String(), (FlagSYN | FlagACK).String(), TCPFlags(0).String(),
		ProtoTCP.String(), ProtoUDP.String(), Protocol(99).String()} {
		if s == "" {
			t.Fatal("empty String()")
		}
	}
}
