package capture

import (
	"fmt"
	"strings"

	"mptcpsim/internal/packet"
)

// FormatFrame renders one captured frame as a tcpdump-style line:
//
//	0.015204 tag:2 10.0.0.1:40000 > 10.0.0.2:5001 Flags [PSH|ACK] seq 2801 ack 1 win 4194304 len 1400 DSS[dsn=2800 ssn=2800 len=1400 ack=0]
//
// It parses the wire bytes, so it works on any pcap produced by this
// package (and fails loudly on anything else).
func FormatFrame(r Record) (string, error) {
	p, err := packet.Unmarshal(r.Data)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%.6f %s", r.At.Seconds(), p.IP.Tag)
	switch {
	case p.TCP != nil:
		t := p.TCP
		fmt.Fprintf(&sb, " %s:%d > %s:%d Flags [%s] seq %d ack %d win %d len %d",
			p.IP.Src, t.SrcPort, p.IP.Dst, t.DstPort, t.Flags, t.Seq, t.Ack, t.Window, p.PayloadLen)
		for _, o := range t.Options {
			switch v := o.(type) {
			case *packet.MSSOption:
				fmt.Fprintf(&sb, " mss %d", v.MSS)
			case *packet.SACKPermitted:
				sb.WriteString(" sackOK")
			case *packet.SACK:
				sb.WriteString(" sack")
				for _, b := range v.Blocks {
					fmt.Fprintf(&sb, " {%d:%d}", b[0], b[1])
				}
			case *packet.MPCapable:
				fmt.Fprintf(&sb, " mp_capable key=%#x", v.Key)
			case *packet.MPJoin:
				fmt.Fprintf(&sb, " mp_join token=%#x id=%d", v.Token, v.AddrID)
			case *packet.DSS:
				sb.WriteString(" DSS[")
				if v.HasMap {
					fmt.Fprintf(&sb, "dsn=%d ssn=%d len=%d", v.DSN, v.SubflowSeq, v.DataLen)
				}
				if v.HasAck {
					if v.HasMap {
						sb.WriteString(" ")
					}
					fmt.Fprintf(&sb, "ack=%d", v.DataAck)
				}
				sb.WriteString("]")
			}
		}
	case p.UDP != nil:
		fmt.Fprintf(&sb, " %s:%d > %s:%d UDP len %d",
			p.IP.Src, p.UDP.SrcPort, p.IP.Dst, p.UDP.DstPort, p.PayloadLen)
	default:
		fmt.Fprintf(&sb, " %s > %s proto %d len %d", p.IP.Src, p.IP.Dst, p.IP.Proto, p.PayloadLen)
	}
	return sb.String(), nil
}
