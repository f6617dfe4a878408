package cc

import (
	"math"

	"mptcpsim/internal/sim"
)

// BALIA is the Balanced Linked Adaptation algorithm (Peng, Walid, Hwang,
// Low: "Multipath TCP: Analysis, Design, and Implementation", ToN 2014),
// included as an extension beyond the paper's three algorithms: it was
// designed to strike a balance between LIA's friendliness and OLIA's
// responsiveness problems.
//
// With x_p = w_p/rtt_p, and alpha_r = max_p(x_p)/x_r, each ACK on path r
// grows the window (in MSS) by
//
//	( x_r / rtt_r ) / ( sum_p x_p )^2 * (1+alpha_r)/2 * (4+alpha_r)/5
//
// and each loss shrinks it by w_r/2 * min(alpha_r, 1.5).
type BALIA struct {
	flows []*Flow
}

// Register implements Algorithm.
func (b *BALIA) Register(f *Flow, _ sim.Time) { b.flows = append(b.flows, f) }

// Unregister implements Algorithm.
func (b *BALIA) Unregister(f *Flow) {
	for i, g := range b.flows {
		if g == f {
			b.flows = append(b.flows[:i], b.flows[i+1:]...)
			return
		}
	}
}

// rates returns x_r for the flow and the total and max over the group, in
// MSS/second.
func (b *BALIA) rates(f *Flow) (xr, sum, max float64) {
	for _, g := range b.flows {
		x := g.wPkts() / g.rtt()
		sum += x
		if x > max {
			max = x
		}
		if g == f {
			xr = x
		}
	}
	return xr, sum, max
}

// OnAck implements Algorithm.
func (b *BALIA) OnAck(f *Flow, acked int, _ sim.Time) {
	if f.InSlowStart() {
		acked = slowStart(f, acked)
		if acked == 0 {
			return
		}
	}
	xr, sum, max := b.rates(f)
	if xr <= 0 || sum <= 0 {
		return
	}
	alpha := max / xr
	incPkts := (xr / f.rtt()) / (sum * sum) * (1 + alpha) / 2 * (4 + alpha) / 5
	f.Cwnd += float64(incPkts * float64(acked))
}

// OnLoss implements Algorithm.
func (b *BALIA) OnLoss(f *Flow, _ sim.Time) {
	xr, _, max := b.rates(f)
	alpha := 1.0
	if xr > 0 {
		alpha = max / xr
	}
	dec := float64(f.Cwnd / 2 * math.Min(alpha, 1.5))
	th := f.Cwnd - dec
	if th < minSsthresh(f) {
		th = minSsthresh(f)
	}
	f.Ssthresh = th
}

// OnRTO implements Algorithm.
func (b *BALIA) OnRTO(f *Flow, now sim.Time) {
	b.OnLoss(f, now)
	f.Cwnd = float64(f.MSS)
}
