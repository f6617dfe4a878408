// Package packet defines the wire formats that travel through the simulated
// network: an IPv4-like network header (carrying the per-path tag in the
// DSCP byte, as the paper's tagging scheme "overloads specific bits in the
// IP header"), a TCP header with MPTCP options (RFC 6824 style), and a UDP
// header. Every flow a run starts is TCP, competing cross flows included;
// UDP is the neutral frame the netem, check, capture and telemetry tests and
// the layer benchmarks send when they exercise the network without a
// transport.
//
// Payloads are synthetic: a Packet records only its payload length, because
// TCP dynamics depend on byte counts, not byte values. Marshal fills
// payload bytes with zeros so captures still produce valid pcap files.
//
// The Flow/Endpoint types follow the gopacket design: small comparable
// values describing "from A to B" that can key maps.
package packet

import (
	"fmt"

	"mptcpsim/internal/unit"
)

// Addr is an IPv4-style 32-bit address.
type Addr uint32

// MakeAddr assembles an address from dotted-quad components.
func MakeAddr(a, b, c, d byte) Addr {
	return Addr(uint32(a)<<24 | uint32(b)<<16 | uint32(c)<<8 | uint32(d))
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
}

// Port is a transport-layer port number.
type Port uint16

// Protocol is the IP protocol number of the transport payload.
type Protocol uint8

// Protocol numbers (IANA).
const (
	ProtoTCP Protocol = 6
	ProtoUDP Protocol = 17
)

// String names the protocol.
func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Tag identifies the forwarding path of a packet. Tags are carried in the
// IPv4 DSCP/TOS byte: they have no global meaning, but routing is
// deterministic — packets with the same tag for the same destination always
// follow the same path.
type Tag uint8

// TagNone is the unset tag: an accepted connection configured with it
// answers along the tag its SYN carried.
const TagNone Tag = 0

// String renders the tag.
func (t Tag) String() string {
	if t == TagNone {
		return "tag:-"
	}
	return fmt.Sprintf("tag:%d", uint8(t))
}

// Endpoint is one side of a flow: an address and a port. Endpoints are
// comparable and can be used as map keys.
type Endpoint struct {
	Addr Addr
	Port Port
}

// String renders "addr:port".
func (e Endpoint) String() string { return fmt.Sprintf("%s:%d", e.Addr, e.Port) }

// Flow identifies a transport flow between two endpoints. Flows are
// comparable and can be used as map keys.
type Flow struct {
	Proto    Protocol
	Src, Dst Endpoint
}

// String renders "TCP 10.0.0.1:5001->10.0.0.2:80".
func (f Flow) String() string {
	return fmt.Sprintf("%s %s->%s", f.Proto, f.Src, f.Dst)
}

// Packet is one datagram in flight. Exactly one of TCP and UDP is non-nil
// for transport packets. Packets are passed by pointer through the network
// and must be treated as immutable after being sent; taps that need copies
// make them explicitly.
type Packet struct {
	// UID is a simulation-unique identifier assigned at send time, used to
	// correlate capture records of the same packet at different points.
	UID uint64
	// IP is the network header (always present).
	IP IPv4
	// TCP is the transport header for ProtoTCP packets.
	TCP *TCP
	// UDP is the transport header for ProtoUDP packets.
	UDP *UDP
	// PayloadLen is the synthetic application payload size in bytes.
	PayloadLen int

	// slot is the arena slot backing this packet, nil for packets built
	// with composite literals. Arena.Recycle uses it to return the packet
	// and its option storage to the owning arena's free list.
	slot *slot
	// wire caches Size: packets are immutable once sent, and the engine
	// asks for the size at every queue and serialisation step.
	wire int32
}

// Size returns the on-wire size of the packet in bytes. The first call
// walks the headers and caches the result; packets must be treated as
// immutable after being sent, so later calls just read the cache.
func (p *Packet) Size() unit.ByteSize {
	if p.wire != 0 {
		return unit.ByteSize(p.wire)
	}
	n := IPv4HeaderLen
	switch {
	case p.TCP != nil:
		n += p.TCP.HeaderLen()
	case p.UDP != nil:
		n += UDPHeaderLen
	}
	p.wire = int32(n + p.PayloadLen)
	return unit.ByteSize(p.wire)
}

// Flow returns the transport flow of the packet.
func (p *Packet) Flow() Flow {
	f := Flow{Proto: p.IP.Proto}
	f.Src.Addr, f.Dst.Addr = p.IP.Src, p.IP.Dst
	switch {
	case p.TCP != nil:
		f.Src.Port, f.Dst.Port = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		f.Src.Port, f.Dst.Port = p.UDP.SrcPort, p.UDP.DstPort
	}
	return f
}

// Tag returns the forwarding tag carried in the IP header.
func (p *Packet) Tag() Tag { return p.IP.Tag }

// String renders a one-line summary for logs and test failures.
func (p *Packet) String() string {
	switch {
	case p.TCP != nil:
		return fmt.Sprintf("%s %s seq=%d ack=%d len=%d %s",
			p.Flow(), p.TCP.Flags, p.TCP.Seq, p.TCP.Ack, p.PayloadLen, p.IP.Tag)
	case p.UDP != nil:
		return fmt.Sprintf("%s len=%d %s", p.Flow(), p.PayloadLen, p.IP.Tag)
	default:
		return fmt.Sprintf("ip %s->%s proto=%d len=%d", p.IP.Src, p.IP.Dst, p.IP.Proto, p.PayloadLen)
	}
}

// Marshal serialises the full packet (headers plus zero-filled payload)
// into wire format, suitable for pcap files.
func (p *Packet) Marshal() []byte {
	buf := make([]byte, int(p.Size()))
	p.IP.TotalLen = uint16(p.Size())
	p.IP.marshalInto(buf[:IPv4HeaderLen])
	rest := buf[IPv4HeaderLen:]
	switch {
	case p.TCP != nil:
		p.TCP.marshalInto(rest[:p.TCP.HeaderLen()], &p.IP, p.PayloadLen)
	case p.UDP != nil:
		p.UDP.marshalInto(rest[:UDPHeaderLen], p.PayloadLen)
	}
	return buf
}

// Unmarshal parses a packet previously produced by Marshal. It validates
// the IPv4 checksum and header structure.
func Unmarshal(data []byte) (*Packet, error) {
	var p Packet
	if err := p.IP.unmarshal(data); err != nil {
		return nil, err
	}
	if int(p.IP.TotalLen) > len(data) {
		return nil, fmt.Errorf("packet: truncated: total len %d > %d bytes", p.IP.TotalLen, len(data))
	}
	if p.IP.TotalLen < IPv4HeaderLen {
		return nil, fmt.Errorf("packet: total len %d is shorter than the IPv4 header", p.IP.TotalLen)
	}
	rest := data[IPv4HeaderLen:p.IP.TotalLen]
	switch p.IP.Proto {
	case ProtoTCP:
		var t TCP
		n, err := t.unmarshal(rest)
		if err != nil {
			return nil, err
		}
		p.TCP = &t
		p.PayloadLen = len(rest) - n
	case ProtoUDP:
		var u UDP
		if err := u.unmarshal(rest); err != nil {
			return nil, err
		}
		p.UDP = &u
		p.PayloadLen = len(rest) - UDPHeaderLen
	default:
		p.PayloadLen = len(rest)
	}
	return &p, nil
}
