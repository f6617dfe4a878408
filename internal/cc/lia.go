package cc

import "mptcpsim/internal/sim"

// LIA is the coupled Linked Increases Algorithm of RFC 6356, the original
// MPTCP congestion control (Wischik et al., NSDI'11). All subflows of a
// connection share one LIA instance. The congestion-avoidance increase on
// subflow i per ACK of `acked` bytes is
//
//	min( alpha * acked * MSS / cwnd_total ,  acked * MSS / cwnd_i )
//
// with the aggressiveness factor
//
//	alpha = cwnd_total * max_i(cwnd_i/rtt_i^2) / ( sum_i cwnd_i/rtt_i )^2
//
// which caps the aggregate at the throughput of a single TCP on the best
// path and shifts traffic away from more congested paths. Decrease is the
// standard halving. The paper observes that this coupling is stable but
// never reaches the LP optimum on the overlapping-path network (LIA is not
// Pareto-optimal — the observation that motivated OLIA).
type LIA struct {
	flows []*Flow
}

// Register implements Algorithm.
func (l *LIA) Register(f *Flow, _ sim.Time) { l.flows = append(l.flows, f) }

// Unregister implements Algorithm.
func (l *LIA) Unregister(f *Flow) {
	for i, g := range l.flows {
		if g == f {
			l.flows = append(l.flows[:i], l.flows[i+1:]...)
			return
		}
	}
}

// alpha computes the RFC 6356 aggressiveness factor in byte units.
func (l *LIA) alpha() (alpha, totalCwnd float64) {
	var best, denom float64
	for _, f := range l.flows {
		rtt := f.rtt()
		w := f.Cwnd
		totalCwnd += w
		if v := w / (rtt * rtt); v > best {
			best = v
		}
		denom += w / rtt
	}
	if denom <= 0 || totalCwnd <= 0 {
		return 1, totalCwnd
	}
	return totalCwnd * best / (denom * denom), totalCwnd
}

// OnAck implements Algorithm.
func (l *LIA) OnAck(f *Flow, acked int, _ sim.Time) {
	if f.InSlowStart() {
		// RFC 6356 leaves slow start per-subflow and unmodified.
		acked = slowStart(f, acked)
		if acked == 0 {
			return
		}
	}
	alpha, total := l.alpha()
	if total <= 0 {
		return
	}
	coupled := alpha * float64(acked) * float64(f.MSS) / total
	single := float64(acked) * float64(f.MSS) / f.Cwnd
	if coupled < single {
		f.Cwnd += coupled
	} else {
		f.Cwnd += single
	}
}

// OnLoss implements Algorithm.
func (*LIA) OnLoss(f *Flow, _ sim.Time) { halveOnLoss(f) }

// OnRTO implements Algorithm.
func (*LIA) OnRTO(f *Flow, _ sim.Time) { rtoCollapse(f) }
