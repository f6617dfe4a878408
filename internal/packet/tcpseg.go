package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// TCPFlags is the TCP control-flag byte.
type TCPFlags uint8

// TCP control flags.
const (
	FlagFIN TCPFlags = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
)

// String renders flags in tcpdump style, e.g. "SYN|ACK".
func (f TCPFlags) String() string {
	if f == 0 {
		return "-"
	}
	var parts []string
	for _, e := range []struct {
		bit  TCPFlags
		name string
	}{{FlagSYN, "SYN"}, {FlagFIN, "FIN"}, {FlagRST, "RST"}, {FlagPSH, "PSH"}, {FlagACK, "ACK"}} {
		if f&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	return strings.Join(parts, "|")
}

// WindowUnit is the fixed receive-window granularity on the wire. Both ends
// of a simulated connection use a constant window scale of 2^8, so the
// 16-bit wire field expresses windows up to 16 MB. Logical windows are
// rounded up to a multiple of WindowUnit when serialised.
const WindowUnit = 256

// TCPHeaderLen is the length of the option-less TCP header.
const TCPHeaderLen = 20

// TCP is the transport header of a TCP segment. Window is the logical
// receive window in bytes (see WindowUnit for its wire encoding).
type TCP struct {
	SrcPort, DstPort Port
	Seq, Ack         uint32
	Flags            TCPFlags
	Window           uint32
	Options          []Option
}

// HeaderLen returns the header length in bytes including padded options.
func (t *TCP) HeaderLen() int {
	n := 0
	for _, o := range t.Options {
		n += o.wireLen()
	}
	// Options pad to a 4-byte boundary with NOPs.
	n = (n + 3) &^ 3
	return TCPHeaderLen + n
}

// Option returns the first option of the given kind, or nil.
func (t *TCP) Option(kind uint8) Option {
	for _, o := range t.Options {
		if o.Kind() == kind {
			return o
		}
	}
	return nil
}

// DSS returns the first DSS option, nil if there is none: one walk over the
// options, past any other MPTCP option that comes before it.
func (t *TCP) DSS() *DSS {
	for _, o := range t.Options {
		if d, ok := o.(*DSS); ok {
			return d
		}
	}
	return nil
}

func (t *TCP) marshalInto(b []byte, ip *IPv4, payloadLen int) {
	hl := t.HeaderLen()
	binary.BigEndian.PutUint16(b[0:], uint16(t.SrcPort))
	binary.BigEndian.PutUint16(b[2:], uint16(t.DstPort))
	binary.BigEndian.PutUint32(b[4:], t.Seq)
	binary.BigEndian.PutUint32(b[8:], t.Ack)
	b[12] = byte(hl/4) << 4
	b[13] = byte(t.Flags)
	binary.BigEndian.PutUint16(b[14:], wireWindow(t.Window))
	binary.BigEndian.PutUint16(b[16:], 0) // checksum placeholder
	binary.BigEndian.PutUint16(b[18:], 0) // urgent pointer
	off := TCPHeaderLen
	for _, o := range t.Options {
		o.marshal(b[off:])
		off += o.wireLen()
	}
	for off < hl {
		b[off] = optNOP
		off++
	}
	binary.BigEndian.PutUint16(b[16:], tcpChecksum(b[:hl], ip, payloadLen))
}

func (t *TCP) unmarshal(b []byte) (headerLen int, err error) {
	if len(b) < TCPHeaderLen {
		return 0, fmt.Errorf("packet: TCP header truncated: %d bytes", len(b))
	}
	hl := int(b[12]>>4) * 4
	if hl < TCPHeaderLen || hl > len(b) {
		return 0, fmt.Errorf("packet: bad TCP data offset %d", hl)
	}
	t.SrcPort = Port(binary.BigEndian.Uint16(b[0:]))
	t.DstPort = Port(binary.BigEndian.Uint16(b[2:]))
	t.Seq = binary.BigEndian.Uint32(b[4:])
	t.Ack = binary.BigEndian.Uint32(b[8:])
	t.Flags = TCPFlags(b[13])
	t.Window = uint32(binary.BigEndian.Uint16(b[14:])) * WindowUnit
	t.Options, err = parseOptions(b[TCPHeaderLen:hl])
	if err != nil {
		return 0, err
	}
	return hl, nil
}

// wireWindow encodes a logical window, rounding up so a non-zero window is
// never advertised as zero.
func wireWindow(w uint32) uint16 {
	u := (uint64(w) + WindowUnit - 1) / WindowUnit
	if u > 0xffff {
		return 0xffff
	}
	return uint16(u)
}

// tcpChecksum computes the transport checksum over the RFC 793
// pseudo-header and the header bytes. The synthetic payload is all zeros,
// so it contributes only its length (via the pseudo-header).
func tcpChecksum(hdr []byte, ip *IPv4, payloadLen int) uint16 {
	var pseudo [12]byte
	binary.BigEndian.PutUint32(pseudo[0:], uint32(ip.Src))
	binary.BigEndian.PutUint32(pseudo[4:], uint32(ip.Dst))
	pseudo[9] = byte(ip.Proto)
	binary.BigEndian.PutUint16(pseudo[10:], uint16(len(hdr)+payloadLen))
	var sum uint32
	for i := 0; i < 12; i += 2 {
		sum += uint32(binary.BigEndian.Uint16(pseudo[i:]))
	}
	for i := 0; i+1 < len(hdr); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	if len(hdr)%2 == 1 {
		sum += uint32(hdr[len(hdr)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
