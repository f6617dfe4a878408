package tcp

// A retransmission fires long after the packet that first carried the
// segment was recycled and its slot redrawn. The scoreboard keeps only the
// segment's data sequence number and sendData rebuilds the option from it,
// so the retransmitted mapping must equal the original.

import (
	"testing"
	"time"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/unit"
)

// dssBulkSource grants MSS-sized chunks and maps each to the next data
// sequence numbers, like the MPTCP scheduler.
type dssBulkSource struct {
	remaining int
	next      uint64
}

func (s *dssBulkSource) Next(max int) (int, uint64, bool) {
	if s.remaining <= 0 || max <= 0 {
		return 0, 0, false
	}
	n := max
	if s.remaining < n {
		n = s.remaining
	}
	s.remaining -= n
	dsn := s.next
	s.next += uint64(n)
	return n, dsn, true
}

// dssTap records the mapping each delivered data packet carries.
type dssTap struct {
	got map[uint32]packet.DSS // TCP seq -> mapping
}

func (d *dssTap) OnDeliver(_ *netem.Node, p *packet.Packet) {
	if p.TCP == nil || p.PayloadLen == 0 {
		return
	}
	for _, o := range p.TCP.Options {
		if dss, ok := o.(*packet.DSS); ok && dss.HasMap {
			d.got[p.TCP.Seq] = *dss // copy: the packet is recycled after this tap
		}
	}
}

func (d *dssTap) OnDrop(string, *packet.Packet, netem.DropReason) {}

// TestRetransmitCarriesOriginalMapping drops an early data packet, lets
// dozens of later segments reuse its arena slot (overwriting the slot's
// DSS storage with later mappings), then checks the retransmission still
// carries the dropped segment's own mapping.
func TestRetransmitCarriesOriginalMapping(t *testing.T) {
	tn := newTestNet(t, 10*unit.Mbps, 5*time.Millisecond, unit.MB)
	tap := &dssTap{got: make(map[uint32]packet.DSS)}
	tn.net.AttachTap(tap)
	tn.fwd.SetAQM(&dropNth{n: 5})
	const total = 256 * 1024
	conn, sink := tn.startBulk(t, &dssBulkSource{remaining: total}, nil)
	if err := tn.loop.RunUntil(tn.loop.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if sink.Bytes != total {
		t.Fatalf("delivered %d bytes, want %d", sink.Bytes, total)
	}
	if conn.Stats.Retransmits == 0 {
		t.Fatal("test exercised nothing: no retransmission happened")
	}
	if len(tap.got) == 0 {
		t.Fatal("tap saw no mapped data packets")
	}
	// Grants are sequential, so a segment at subflow offset k carries
	// DSN == k. The dropped segment's retransmission must obey this too.
	for seq, dss := range tap.got {
		offset := seq - conn.iss - 1
		if dss.DSN != uint64(offset) {
			t.Fatalf("seq %d (offset %d) delivered with DSN %d", seq, offset, dss.DSN)
		}
		if dss.SubflowSeq != offset {
			t.Fatalf("seq %d: subflow seq %d, want %d", seq, dss.SubflowSeq, offset)
		}
		if want := min(conn.mss, total-int(offset)); int(dss.DataLen) != want {
			t.Fatalf("seq %d: data length %d, want %d", seq, dss.DataLen, want)
		}
	}
}
