// Package capture is the simulator's tshark: it attaches to the engine's
// tap points, records packets, filters them by tag (exactly how the paper
// determines the per-subflow split at the receiver), and bins bytes into
// fixed intervals to produce throughput time series at 10 or 100 ms
// resolution. Captures can also be exported to standard pcap files.
package capture

import (
	"time"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/trace"
	"mptcpsim/internal/unit"
)

// Record is one frame: when it was delivered and its marshalled bytes. The
// sniffer retains them for WritePCAP and ReadPCAP reads them back.
type Record struct {
	At   sim.Time
	Data []byte
}

// Sniffer observes packets delivered to one node (receiver-side capture,
// like running tshark on the destination host) and accumulates the per-tag
// byte counts of payload-carrying packets in fixed bins.
type Sniffer struct {
	loop *sim.Loop
	node topo.NodeID
	step time.Duration

	// Retain keeps marshalled frames for pcap export.
	Retain bool

	// bins is indexed by tag and grown to the highest tag seen, so the
	// per-packet count is a slice index.
	bins    [][]float64
	records []Record
	total   uint64
}

var _ netem.Tap = (*Sniffer)(nil)

// NewSniffer captures packets delivered at node, binned at step.
func NewSniffer(n *netem.Network, node topo.NodeID, step time.Duration) *Sniffer {
	s := &Sniffer{loop: n.Loop, node: node, step: step}
	n.AttachTap(s)
	return s
}

// OnDeliver implements netem.Tap.
func (s *Sniffer) OnDeliver(nd *netem.Node, pkt *packet.Packet) {
	if nd.ID != s.node {
		return
	}
	// Only payload-carrying packets count: the paper's rate plots track
	// the data stream, not ACKs.
	if pkt.PayloadLen == 0 {
		return
	}
	// Full wire size: the paper measures wire throughput at the receiver.
	s.count(pkt.Tag(), pkt.Size())
	s.total++
	if s.Retain {
		s.records = append(s.records, Record{At: s.loop.Now(), Data: pkt.Marshal()})
	}
}

// OnDrop implements netem.Tap (receiver capture ignores it).
func (s *Sniffer) OnDrop(string, *packet.Packet, netem.DropReason) {}

func (s *Sniffer) count(tag packet.Tag, size unit.ByteSize) {
	idx := int(s.loop.Now().Duration() / s.step)
	for len(s.bins) <= int(tag) {
		s.bins = append(s.bins, nil)
	}
	b := s.bins[tag]
	for len(b) <= idx {
		b = append(b, 0)
	}
	b[idx] += float64(size)
	s.bins[tag] = b
}

// Packets returns the number of packets counted.
func (s *Sniffer) Packets() uint64 { return s.total }

// Records returns retained frames (Retain must have been set).
func (s *Sniffer) Records() []Record { return s.records }

// Series converts a tag's binned byte counts to a throughput series in
// Mbps, padded to the run length.
func (s *Sniffer) Series(tag packet.Tag, name string, until time.Duration) *trace.Series {
	nBins := int(until / s.step)
	out := &trace.Series{Name: name, Step: s.step, V: make([]float64, nBins)}
	var b []float64
	if int(tag) < len(s.bins) {
		b = s.bins[tag]
	}
	scale := 8 / s.step.Seconds() / 1e6 // bytes/bin -> Mbps
	for i := 0; i < nBins && i < len(b); i++ {
		out.V[i] = b[i] * scale
	}
	return out
}
