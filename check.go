package mptcpsim

// The invariants Options.ValidateInvariants audits, in one place: the engine
// oracle (packet conservation, per-epoch capacity, FIFO), which attaches to
// the netem tap points, and the run-level checks that need the analytic
// baselines and the MPTCP endpoints (the optimality-gap sign, data-level
// conservation).

import (
	"fmt"
	"sort"

	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/stats"
	"mptcpsim/internal/unit"
)

const (
	// runGapTol is how far the measured mean may exceed the LP target
	// (a negative optimality gap) before the run is flagged. The measured
	// series bins at SampleInterval and the measurement window clips the
	// slow-start transient, so tiny negative gaps are measurement noise;
	// anything beyond this is the simulator beating a proven optimum.
	runGapTol = 0.02
	// epochGapTolFloor is the per-epoch equivalent. Epochs are short, so
	// binning noise is proportionally larger, and queues filled in an
	// earlier epoch legitimately drain into a slower one — the check adds
	// a data-derived drain allowance on top of this floor.
	epochGapTolFloor = 0.05
)

// oracle observes one simulation run through the engine's tap points and
// checks conservation, capacity and ordering invariants at the end:
//
//   - packet conservation, per link: every packet offered to a transmit
//     queue is eventually transmitted or dropped, or still sits in the
//     queue / mid-serialisation when the run ends — including link_down
//     drains and frames cut mid-serialisation;
//   - packet conservation, per flow and network-wide: every originated
//     packet is delivered or dropped exactly once, or still in flight;
//   - capacity, per epoch: the wire bytes crossing each directed link
//     inside one capacity epoch never exceed the epoch's rate × time
//     budget (plus a small boundary/rounding slack);
//   - FIFO: packets arrive at a link's far node in transmit order, even
//     across runtime delay changes (SetDelay must never reorder).
//
// Attach it with newOracle before traffic starts; it only observes and
// never schedules events, so an instrumented run is bit-identical to an
// uninstrumented one.
type oracle struct {
	net    *netem.Network
	epochs []epoch

	// Per-flow accounting, keyed by packet tag.
	sent      map[packet.Tag]uint64
	delivered map[packet.Tag]uint64
	dropped   map[packet.Tag]uint64
	// Network-wide totals of the same three events.
	sentTotal, deliveredTotal, droppedTotal uint64

	// pending holds, per directed link, the UIDs transmitted but not yet
	// arrived, in transmit order — the FIFO audit queue.
	pending [][]uint64
	// fifo records ordering violations as they happen.
	fifo []string

	// txBytes and txPkts count wire bytes/packets per [link][epoch].
	txBytes [][]float64
	txPkts  [][]uint64
	// maxPkt is the largest wire size observed, for boundary slack.
	maxPkt unit.ByteSize
}

var (
	_ netem.Tap        = (*oracle)(nil)
	_ netem.SendTap    = (*oracle)(nil)
	_ netem.ArrivalTap = (*oracle)(nil)
)

// newOracle attaches a fresh oracle to net. The epochs must tile the run in
// ascending order and carry one rate per directed link, as prepare's table
// does; the oracle only reads them.
func newOracle(net *netem.Network, epochs []epoch) *oracle {
	o := &oracle{
		net:       net,
		epochs:    epochs,
		sent:      make(map[packet.Tag]uint64),
		delivered: make(map[packet.Tag]uint64),
		dropped:   make(map[packet.Tag]uint64),
		pending:   make([][]uint64, net.Graph.NumLinks()),
		txBytes:   make([][]float64, net.Graph.NumLinks()),
		txPkts:    make([][]uint64, net.Graph.NumLinks()),
	}
	for i := range o.txBytes {
		o.txBytes[i] = make([]float64, len(epochs))
		o.txPkts[i] = make([]uint64, len(epochs))
	}
	net.AttachTap(o)
	return o
}

// OnSend implements netem.SendTap.
func (o *oracle) OnSend(_ *netem.Node, pkt *packet.Packet) {
	o.sent[pkt.Tag()]++
	o.sentTotal++
}

// OnDeliver implements netem.Tap.
func (o *oracle) OnDeliver(_ *netem.Node, pkt *packet.Packet) {
	o.delivered[pkt.Tag()]++
	o.deliveredTotal++
}

// OnDrop implements netem.Tap.
func (o *oracle) OnDrop(_ string, pkt *packet.Packet, _ netem.DropReason) {
	o.dropped[pkt.Tag()]++
	o.droppedTotal++
}

// OnTransmit implements netem.TransmitTap: it buckets the wire bytes into
// the epoch in force when the frame left — links report departures late
// and interleaved, so the epoch is looked up per call — and appends the
// packet to the link's FIFO audit queue.
func (o *oracle) OnTransmit(l *netem.Link, pkt *packet.Packet, at sim.Time) {
	ei := len(o.epochs) - 1
	for ei > 0 && at.Duration() < o.epochs[ei].Start {
		ei--
	}
	id := l.Spec.ID
	size := pkt.Size()
	o.txBytes[id][ei] += float64(size)
	o.txPkts[id][ei]++
	if size > o.maxPkt {
		o.maxPkt = size
	}
	o.pending[id] = append(o.pending[id], pkt.UID)
}

// OnArrive implements netem.ArrivalTap: every arrival must match the
// oldest outstanding transmission on its link (FIFO).
func (o *oracle) OnArrive(l *netem.Link, pkt *packet.Packet) {
	id := l.Spec.ID
	q := o.pending[id]
	if len(q) == 0 {
		o.fifo = append(o.fifo, fmt.Sprintf(
			"fifo: link %s: arrival of uid %d with no outstanding transmission", l.Name(), pkt.UID))
		return
	}
	if q[0] != pkt.UID {
		o.fifo = append(o.fifo, fmt.Sprintf(
			"fifo: link %s: uid %d arrived before uid %d (reordered)", l.Name(), pkt.UID, q[0]))
		// Resynchronise so one reorder reports once, not for every
		// subsequent arrival: drop the arrived UID wherever it is.
		for i, u := range q {
			if u == pkt.UID {
				o.pending[id] = append(q[:i], q[i+1:]...)
				return
			}
		}
		return
	}
	o.pending[id] = q[1:]
}

// capacitySlack bounds the bytes a link may legitimately carry beyond
// rate × time inside one epoch: up to two maximum-size frames straddling
// the epoch boundaries (a frame committed at the old rate completes after
// a boundary; its bytes land in the new epoch) plus the serialisation-time
// truncation error (TxTime rounds down to 1 ns, letting each packet finish
// marginally early).
func (o *oracle) capacitySlack(mbps float64, pkts uint64) float64 {
	slack := 2 * float64(o.maxPkt)
	slack += float64(mbps * 1e6 / 8 * float64(pkts) * 2e-9)
	return slack
}

// violations audits the run after the loop has finished and returns every
// violated invariant as a human-readable string (empty = all hold).
func (o *oracle) violations() []string {
	var v []string

	// Per-link packet conservation: offered = transmitted + dropped +
	// queued + mid-serialisation. Drains (SetDown) and cut frames are
	// drops, so the identity holds across dynamic events too.
	var residual uint64
	for _, l := range o.net.Links() {
		l.Settle()
		c := &l.Counters
		inFlight := uint64(l.QueueLen())
		if l.Transmitting() {
			inFlight++
		}
		residual += inFlight
		if got := c.TxPackets + c.DropTotal() + inFlight; c.Offered != got {
			v = append(v, fmt.Sprintf(
				"conservation: link %s: offered %d != transmitted %d + dropped %d + in-link %d",
				l.Name(), c.Offered, c.TxPackets, c.DropTotal(), inFlight))
		}
	}

	// The engine's propagation counter must agree with the FIFO audit's
	// outstanding-arrival queues.
	var outstanding int
	for _, q := range o.pending {
		outstanding += len(q)
	}
	if outstanding != o.net.Propagating() {
		v = append(v, fmt.Sprintf(
			"conservation: %d outstanding arrivals in the audit vs %d propagating in the engine",
			outstanding, o.net.Propagating()))
	}
	residual += uint64(outstanding)

	// Network-wide conservation: every originated packet was delivered or
	// dropped exactly once, or is still queued / serialising / propagating.
	if o.net.Originated() != o.deliveredTotal+o.droppedTotal+residual {
		v = append(v, fmt.Sprintf(
			"conservation: originated %d != delivered %d + dropped %d + residual %d",
			o.net.Originated(), o.deliveredTotal, o.droppedTotal, residual))
	}
	if o.sentTotal != o.net.Originated() {
		v = append(v, fmt.Sprintf(
			"conservation: send tap saw %d packets, engine originated %d",
			o.sentTotal, o.net.Originated()))
	}

	// Per-flow conservation: no tag may account for more deliveries and
	// drops than sends, and the per-tag residuals must sum to the global
	// one (packets do not change tags in flight). Tags are visited in
	// sorted order so a multi-tag failure reports deterministically — the
	// report's bytes must stay identical across reruns especially when
	// something is wrong.
	var tagResidual uint64
	for _, tag := range sortedTags(o.sent) {
		n := o.sent[tag]
		acc := o.delivered[tag] + o.dropped[tag]
		if acc > n {
			v = append(v, fmt.Sprintf(
				"conservation: tag %v: delivered %d + dropped %d exceeds sent %d",
				tag, o.delivered[tag], o.dropped[tag], n))
			continue
		}
		tagResidual += n - acc
	}
	for _, tag := range sortedTags(o.delivered) {
		if _, ok := o.sent[tag]; !ok {
			v = append(v, fmt.Sprintf("conservation: tag %v delivered but never sent", tag))
		}
	}
	for _, tag := range sortedTags(o.dropped) {
		if _, ok := o.sent[tag]; !ok {
			v = append(v, fmt.Sprintf("conservation: tag %v dropped but never sent", tag))
		}
	}
	if tagResidual != residual {
		v = append(v, fmt.Sprintf(
			"conservation: per-tag residual %d != network residual %d", tagResidual, residual))
	}

	// Per-epoch capacity: wire bytes on each directed link inside one
	// epoch never exceed the epoch's rate × time budget.
	for _, l := range o.net.Links() {
		id := l.Spec.ID
		for ei, ep := range o.epochs {
			bytes := o.txBytes[id][ei]
			if bytes == 0 {
				continue
			}
			budget := float64(ep.Mbps[id] * 1e6 / 8 * (ep.End - ep.Start).Seconds())
			if bytes > budget+o.capacitySlack(ep.Mbps[id], o.txPkts[id][ei]) {
				v = append(v, fmt.Sprintf(
					"capacity: link %s epoch [%v,%v): %.0f bytes exceed budget %.0f at %g Mbps",
					l.Name(), ep.Start, ep.End, bytes, budget, ep.Mbps[id]))
			}
		}
	}

	return append(v, o.fifo...)
}

// sortedTags returns a map's tags in ascending order.
func sortedTags(m map[packet.Tag]uint64) []packet.Tag {
	tags := make([]packet.Tag, 0, len(m))
	for t := range m {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(a, b int) bool { return tags[a] < tags[b] })
	return tags
}

// drainSlackBytes bounds the bytes that can reach the receiver in one
// epoch beyond the epoch's own optimum: everything parked in queues plus
// everything on the wire when the epoch began.
func drainSlackBytes(net *netem.Network) float64 {
	var slack float64
	for _, l := range net.Links() {
		slack += float64(l.QueueCap())
		slack += float64(l.Spec.Rate.Bytes(l.Spec.Delay))
	}
	return slack
}

// gapInvariants checks that measurement never beats the proven optimum:
// the LP gap must stay non-negative (within tolerance) for the whole run
// and inside every capacity epoch long enough to measure.
func gapInvariants(res *Result, slackBytes float64) []string {
	var v []string
	runTol := runGapTol
	if len(res.Epochs) > 1 && res.Summary.Target > 0 {
		// Dynamic runs: bytes queued during a fast epoch legitimately
		// drain into a slower one and arrive on top of the (already
		// lowered) piecewise target, so grant the same drain allowance
		// the per-epoch check gets, scaled to the measurement window —
		// the same bin-aligned window the mean and the piecewise target
		// integrate over.
		from, horizon := stats.MeasureWindow(res.Options.Duration, res.Options.SampleInterval)
		if window := horizon - from; window > 0 {
			runTol += slackBytes * 8 / (res.Summary.Target * 1e6 * window.Seconds())
		}
	}
	if res.Summary.Target > 0 && res.Summary.Gap < -runTol {
		v = append(v, fmt.Sprintf(
			"gap: measured %.2f Mbps beats the piecewise LP target %.2f Mbps (gap %.2f%%, tol %.2f%%)",
			res.Summary.TotalMean, res.Summary.Target, res.Summary.Gap*100, runTol*100))
	}
	for i, ep := range res.Epochs {
		// The epoch is measured over the whole bins strictly inside it
		// (stats.SummarizeEpoch); epochs with fewer than two such bins
		// cannot be checked against their own optimum — the fallback bin
		// mixes in the neighbouring epochs' traffic.
		step := res.Options.SampleInterval
		cf, ct := stats.EpochWindow(ep.Start, ep.End, step)
		win := ct - cf
		if ep.Optimum.Total <= 0 || win < 2*step {
			continue
		}
		// The drain allowance concentrates in the measured window: all the
		// bytes queued before a capacity cut arrive during its first bins.
		tol := epochGapTolFloor + slackBytes*8/(ep.Optimum.Total*1e6*win.Seconds())
		if ep.Gap < -tol {
			v = append(v, fmt.Sprintf(
				"gap: epoch %d [%v,%v): measured %.2f Mbps beats its LP optimum %.2f Mbps (gap %.2f%%, tol %.2f%%)",
				i+1, ep.Start, ep.End, ep.TotalMean, ep.Optimum.Total, ep.Gap*100, tol*100))
		}
	}
	return v
}

// dataInvariants checks MPTCP data-level conservation between the two
// endpoints: the receiver can never account for more payload than the
// sender transmitted, in-order delivery must equal the cumulative data
// ACK, and the ACK can never pass the sender's assignment cursor.
func dataInvariants(conn *mptcp.Conn, acc *mptcp.Acceptor) []string {
	var v []string
	sent := conn.SentPayloadBytes()
	assigned := conn.AssignedBytes()
	var accounted uint64
	for _, rc := range acc.Conns() {
		accounted += rc.Delivered + rc.DupBytes + rc.OOOBytes()
		if rc.Delivered != rc.DataAck() {
			v = append(v, fmt.Sprintf(
				"data: delivered %d bytes but data-ACK is %d (reassembly handed out a gap)",
				rc.Delivered, rc.DataAck()))
		}
		if rc.DataAck() > assigned {
			v = append(v, fmt.Sprintf(
				"data: data-ACK %d passed the sender's assignment cursor %d",
				rc.DataAck(), assigned))
		}
	}
	if accounted > sent {
		v = append(v, fmt.Sprintf(
			"data: receiver accounts for %d payload bytes, sender transmitted only %d",
			accounted, sent))
	}
	return v
}
