package cc

import "mptcpsim/internal/sim"

// Reno is standard NewReno congestion control (RFC 5681/6582 window
// dynamics; the NewReno recovery state machine itself lives in the TCP
// layer). Applied independently per subflow it is the "uncoupled"
// multipath baseline: each path behaves like a separate TCP connection.
type Reno struct{}

// Register implements Algorithm.
func (*Reno) Register(*Flow, sim.Time) {}

// Unregister implements Algorithm.
func (*Reno) Unregister(*Flow) {}

// OnAck implements Algorithm: exponential growth in slow start, one MSS
// per RTT in congestion avoidance (byte-counted).
func (*Reno) OnAck(f *Flow, acked int, _ sim.Time) {
	if f.InSlowStart() {
		acked = slowStart(f, acked)
		if acked == 0 {
			return
		}
	}
	f.Cwnd += float64(acked) * float64(f.MSS) / f.Cwnd
}

// OnLoss implements Algorithm.
func (*Reno) OnLoss(f *Flow, _ sim.Time) { halveOnLoss(f) }

// OnRTO implements Algorithm.
func (*Reno) OnRTO(f *Flow, _ sim.Time) { rtoCollapse(f) }
