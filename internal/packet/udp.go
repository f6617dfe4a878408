package packet

import (
	"encoding/binary"
	"fmt"
)

// UDPHeaderLen is the UDP header length in bytes.
const UDPHeaderLen = 8

// UDP is a UDP header. No run sends one: it is the neutral frame the netem,
// check, capture and telemetry tests and the layer benchmarks push through
// the network.
type UDP struct {
	SrcPort, DstPort Port
	// Length is the UDP length field (header plus payload); computed on
	// Marshal.
	Length uint16
}

func (u *UDP) marshalInto(b []byte, payloadLen int) {
	u.Length = uint16(UDPHeaderLen + payloadLen)
	binary.BigEndian.PutUint16(b[0:], uint16(u.SrcPort))
	binary.BigEndian.PutUint16(b[2:], uint16(u.DstPort))
	binary.BigEndian.PutUint16(b[4:], u.Length)
	binary.BigEndian.PutUint16(b[6:], 0) // checksum optional in IPv4
}

func (u *UDP) unmarshal(b []byte) error {
	if len(b) < UDPHeaderLen {
		return fmt.Errorf("packet: UDP header truncated: %d bytes", len(b))
	}
	u.SrcPort = Port(binary.BigEndian.Uint16(b[0:]))
	u.DstPort = Port(binary.BigEndian.Uint16(b[2:]))
	u.Length = binary.BigEndian.Uint16(b[4:])
	return nil
}
