package packet

import (
	"encoding/binary"
	"fmt"
)

// TCP option kinds.
const (
	optEOL  = 0
	optNOP  = 1
	KindMSS = 2
	// KindSACKPermitted advertises SACK support on SYN segments (RFC 2018).
	KindSACKPermitted = 4
	// KindSACK carries selective-acknowledgement blocks (RFC 2018).
	KindSACK = 5
	// KindTimestamps is the RFC 7323 timestamps option.
	KindTimestamps = 8
	// KindMPTCP is the multipath TCP option kind (RFC 6824).
	KindMPTCP = 30
)

// Timestamps is the RFC 7323 option: TSval is the sender's clock, TSecr
// echoes the most recent TSval received, giving one RTT sample per ACK
// even during loss recovery (no Karn ambiguity).
type Timestamps struct {
	TSval, TSecr uint32
}

// Kind implements Option.
func (*Timestamps) Kind() uint8 { return KindTimestamps }

func (*Timestamps) wireLen() int { return 10 }

func (o *Timestamps) marshal(b []byte) {
	b[0], b[1] = KindTimestamps, 10
	binary.BigEndian.PutUint32(b[2:], o.TSval)
	binary.BigEndian.PutUint32(b[6:], o.TSecr)
}

// SACKPermitted advertises selective-acknowledgement support on SYNs.
type SACKPermitted struct{}

// Kind implements Option.
func (*SACKPermitted) Kind() uint8 { return KindSACKPermitted }

func (*SACKPermitted) wireLen() int { return 2 }

func (*SACKPermitted) marshal(b []byte) { b[0], b[1] = KindSACKPermitted, 2 }

// MaxSACKBlocks bounds the blocks per option; three fit alongside an MPTCP
// data ACK within the 40-byte option space.
const MaxSACKBlocks = 3

// SACK reports received out-of-order ranges [Start, End) so the sender's
// scoreboard can repair multiple holes per round trip.
type SACK struct {
	Blocks [][2]uint32
}

// Kind implements Option.
func (*SACK) Kind() uint8 { return KindSACK }

func (o *SACK) wireLen() int { return 2 + 8*len(o.Blocks) }

func (o *SACK) marshal(b []byte) {
	b[0], b[1] = KindSACK, byte(o.wireLen())
	for i, blk := range o.Blocks {
		binary.BigEndian.PutUint32(b[2+8*i:], blk[0])
		binary.BigEndian.PutUint32(b[6+8*i:], blk[1])
	}
}

// MPTCP option subtypes.
const (
	subMPCapable = 0x0
	subMPJoin    = 0x1
	subDSS       = 0x2
)

// Option is a TCP header option. Implementations are wire-serialisable and
// produced back by parseOptions.
type Option interface {
	// Kind returns the TCP option kind byte.
	Kind() uint8
	// wireLen returns the serialised length in bytes.
	wireLen() int
	// marshal writes the option at the start of b.
	marshal(b []byte)
}

// MSSOption advertises the maximum segment size on SYN segments.
type MSSOption struct {
	MSS uint16
}

// Kind implements Option.
func (o *MSSOption) Kind() uint8 { return KindMSS }

func (o *MSSOption) wireLen() int { return 4 }

func (o *MSSOption) marshal(b []byte) {
	b[0], b[1] = KindMSS, 4
	binary.BigEndian.PutUint16(b[2:], o.MSS)
}

// MPCapable starts an MPTCP connection on the initial subflow's handshake
// (subtype 0). Key is the sender's connection key.
type MPCapable struct {
	Key uint64
}

// Kind implements Option.
func (o *MPCapable) Kind() uint8 { return KindMPTCP }

func (o *MPCapable) wireLen() int { return 12 }

func (o *MPCapable) marshal(b []byte) {
	b[0], b[1] = KindMPTCP, 12
	b[2] = subMPCapable << 4
	b[3] = 0
	binary.BigEndian.PutUint64(b[4:], o.Key)
}

// MPJoin attaches an additional subflow to an existing MPTCP connection
// (subtype 1). Token identifies the connection; AddrID the subflow.
type MPJoin struct {
	Token  uint32
	AddrID uint8
}

// Kind implements Option.
func (o *MPJoin) Kind() uint8 { return KindMPTCP }

func (o *MPJoin) wireLen() int { return 8 }

func (o *MPJoin) marshal(b []byte) {
	b[0], b[1] = KindMPTCP, 8
	b[2] = subMPJoin << 4
	b[3] = o.AddrID
	binary.BigEndian.PutUint32(b[4:], o.Token)
}

// DSS is the MPTCP Data Sequence Signal option (subtype 2): it maps this
// segment's subflow sequence space onto the connection-level 64-bit data
// sequence space and/or acknowledges connection-level data.
type DSS struct {
	// HasAck indicates DataAck is meaningful.
	HasAck bool
	// DataAck is the connection-level cumulative acknowledgement.
	DataAck uint64
	// HasMap indicates the DSN/SubflowSeq/DataLen mapping is meaningful.
	HasMap bool
	// DSN is the data sequence number of the first payload byte.
	DSN uint64
	// SubflowSeq is the subflow-relative sequence of the first payload byte.
	SubflowSeq uint32
	// DataLen is the number of payload bytes covered by the mapping.
	DataLen uint16
}

// DSS flag bits (we always use 8-octet DSNs and acks).
const (
	dssFlagAck  = 0x01
	dssFlagAck8 = 0x02
	dssFlagMap  = 0x04
	dssFlagDSN8 = 0x08
)

// Kind implements Option.
func (o *DSS) Kind() uint8 { return KindMPTCP }

func (o *DSS) wireLen() int {
	n := 4
	if o.HasAck {
		n += 8
	}
	if o.HasMap {
		n += 8 + 4 + 2
	}
	return n
}

func (o *DSS) marshal(b []byte) {
	b[0], b[1] = KindMPTCP, byte(o.wireLen())
	b[2] = subDSS << 4
	var flags byte
	if o.HasAck {
		flags |= dssFlagAck | dssFlagAck8
	}
	if o.HasMap {
		flags |= dssFlagMap | dssFlagDSN8
	}
	b[3] = flags
	off := 4
	if o.HasAck {
		binary.BigEndian.PutUint64(b[off:], o.DataAck)
		off += 8
	}
	if o.HasMap {
		binary.BigEndian.PutUint64(b[off:], o.DSN)
		binary.BigEndian.PutUint32(b[off+8:], o.SubflowSeq)
		binary.BigEndian.PutUint16(b[off+12:], o.DataLen)
	}
}

// parseOptions decodes the option bytes of a TCP header.
func parseOptions(b []byte) ([]Option, error) {
	var opts []Option
	for len(b) > 0 {
		kind := b[0]
		switch kind {
		case optEOL:
			return opts, nil
		case optNOP:
			b = b[1:]
			continue
		}
		if len(b) < 2 {
			return nil, fmt.Errorf("packet: option kind %d truncated", kind)
		}
		l := int(b[1])
		if l < 2 || l > len(b) {
			return nil, fmt.Errorf("packet: option kind %d bad length %d", kind, l)
		}
		body := b[:l]
		switch kind {
		case KindMSS:
			if l != 4 {
				return nil, fmt.Errorf("packet: MSS option length %d", l)
			}
			opts = append(opts, &MSSOption{MSS: binary.BigEndian.Uint16(body[2:])})
		case KindSACKPermitted:
			if l != 2 {
				return nil, fmt.Errorf("packet: SACK-permitted option length %d", l)
			}
			opts = append(opts, &SACKPermitted{})
		case KindTimestamps:
			if l != 10 {
				return nil, fmt.Errorf("packet: timestamps option length %d", l)
			}
			opts = append(opts, &Timestamps{
				TSval: binary.BigEndian.Uint32(body[2:]),
				TSecr: binary.BigEndian.Uint32(body[6:]),
			})
		case KindSACK:
			if l < 10 || (l-2)%8 != 0 {
				return nil, fmt.Errorf("packet: SACK option length %d", l)
			}
			o := &SACK{}
			for off := 2; off < l; off += 8 {
				o.Blocks = append(o.Blocks, [2]uint32{
					binary.BigEndian.Uint32(body[off:]),
					binary.BigEndian.Uint32(body[off+4:]),
				})
			}
			opts = append(opts, o)
		case KindMPTCP:
			o, err := parseMPTCP(body)
			if err != nil {
				return nil, err
			}
			opts = append(opts, o)
		default:
			return nil, fmt.Errorf("packet: unknown option kind %d", kind)
		}
		b = b[l:]
	}
	return opts, nil
}

// parseMPTCP decodes one MPTCP option, b holding its kind and length bytes.
// Every subtype carries a subtype byte and a flags (or address-id) byte.
func parseMPTCP(b []byte) (Option, error) {
	if len(b) < 4 {
		return nil, fmt.Errorf("packet: MPTCP option length %d", len(b))
	}
	sub := b[2] >> 4
	switch sub {
	case subMPCapable:
		if len(b) != 12 {
			return nil, fmt.Errorf("packet: MP_CAPABLE length %d", len(b))
		}
		return &MPCapable{Key: binary.BigEndian.Uint64(b[4:])}, nil
	case subMPJoin:
		if len(b) != 8 {
			return nil, fmt.Errorf("packet: MP_JOIN length %d", len(b))
		}
		return &MPJoin{AddrID: b[3], Token: binary.BigEndian.Uint32(b[4:])}, nil
	case subDSS:
		o := &DSS{}
		flags := b[3]
		o.HasAck = flags&dssFlagAck != 0
		o.HasMap = flags&dssFlagMap != 0
		off := 4
		if o.HasAck {
			if len(b) < off+8 {
				return nil, fmt.Errorf("packet: DSS ack truncated")
			}
			o.DataAck = binary.BigEndian.Uint64(b[off:])
			off += 8
		}
		if o.HasMap {
			if len(b) < off+14 {
				return nil, fmt.Errorf("packet: DSS map truncated")
			}
			o.DSN = binary.BigEndian.Uint64(b[off:])
			o.SubflowSeq = binary.BigEndian.Uint32(b[off+8:])
			o.DataLen = binary.BigEndian.Uint16(b[off+12:])
		}
		return o, nil
	default:
		return nil, fmt.Errorf("packet: unknown MPTCP subtype %d", sub)
	}
}
