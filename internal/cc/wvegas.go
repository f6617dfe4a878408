package cc

import (
	"time"

	"mptcpsim/internal/sim"
)

// WVegas is weighted Vegas (Cao, Xu, Fu: "Delay-based congestion control
// for multipath TCP", ICNP 2012), the delay-based coupled algorithm that
// shipped with the paper's MPTCP v0.94 kernel. Each subflow r estimates
// its queueing backlog the Vegas way,
//
//	diff_r = (expected - actual) * baseRTT
//	       = w_r * (1 - baseRTT_r/RTT_r)            [packets]
//
// and compares it against a per-path share alpha_r of the total backlog
// target; alpha_r is proportional to the subflow's share of the aggregate
// rate, which equalises marginal congestion across paths. Windows grow by
// one packet per RTT while below the target and shrink when above it —
// so, unlike the loss-based algorithms, wVegas backs off before drops.
type WVegas struct {
	// TotalAlpha is the aggregate backlog target in packets (the kernel
	// default is 10).
	TotalAlpha float64

	flows []*Flow
}

// NewWVegas returns a wVegas instance with kernel-default parameters.
func NewWVegas() *WVegas { return &WVegas{TotalAlpha: 10} }

// wvegasState is per-flow bookkeeping.
type wvegasState struct {
	// baseRTT is the smallest RTT seen (propagation estimate).
	baseRTT time.Duration
	// lastAdj paces window adjustments to once per RTT.
	lastAdj sim.Time
}

// Register implements Algorithm.
func (v *WVegas) Register(f *Flow, now sim.Time) {
	f.ctx = &wvegasState{lastAdj: now}
	v.flows = append(v.flows, f)
}

// Unregister implements Algorithm.
func (v *WVegas) Unregister(f *Flow) {
	for i, g := range v.flows {
		if g == f {
			v.flows = append(v.flows[:i], v.flows[i+1:]...)
			return
		}
	}
}

func wvegasStateOf(f *Flow) *wvegasState {
	s, ok := f.ctx.(*wvegasState)
	if !ok {
		s = &wvegasState{}
		f.ctx = s
	}
	return s
}

// rate returns the subflow's estimated rate in packets/second.
func rate(f *Flow) float64 {
	return f.wPkts() / f.rtt()
}

// alphaFor splits the aggregate backlog target across the subflows in
// proportion to their rates.
func (v *WVegas) alphaFor(f *Flow) float64 {
	var sum float64
	for _, g := range v.flows {
		sum += rate(g)
	}
	if sum <= 0 {
		return v.TotalAlpha / float64(len(v.flows))
	}
	a := v.TotalAlpha * rate(f) / sum
	if a < 1 {
		a = 1 // never starve a path of probing headroom
	}
	return a
}

// OnAck implements Algorithm.
func (v *WVegas) OnAck(f *Flow, acked int, now sim.Time) {
	s := wvegasStateOf(f)
	if s.baseRTT == 0 || (f.MinRTT > 0 && f.MinRTT < s.baseRTT) {
		s.baseRTT = f.MinRTT
	}
	if f.InSlowStart() {
		// Vegas-style slow start: gentler doubling, and leave slow start
		// as soon as a backlog builds.
		if acked = slowStart(f, acked); acked == 0 {
			if v.diffPkts(f) > v.alphaFor(f) {
				f.Ssthresh = f.Cwnd
			}
			return
		}
	}
	// Adjust once per RTT.
	if f.SRTT <= 0 || now.Sub(s.lastAdj) < f.SRTT {
		return
	}
	s.lastAdj = now
	diff := v.diffPkts(f)
	target := v.alphaFor(f)
	switch {
	case diff > target:
		f.Cwnd -= float64(f.MSS)
	case diff < target:
		f.Cwnd += float64(f.MSS)
	}
	if f.Cwnd < 2*float64(f.MSS) {
		f.Cwnd = 2 * float64(f.MSS)
	}
}

// diffPkts is the Vegas backlog estimate in packets.
func (v *WVegas) diffPkts(f *Flow) float64 {
	s := wvegasStateOf(f)
	if s.baseRTT <= 0 || f.SRTT <= 0 {
		return 0
	}
	ratio := float64(s.baseRTT) / float64(f.SRTT)
	if ratio > 1 {
		ratio = 1
	}
	return f.wPkts() * (1 - ratio)
}

// OnLoss implements Algorithm: losses still halve (delay-based control
// does not remove the loss response, it just makes it rare).
func (*WVegas) OnLoss(f *Flow, _ sim.Time) { halveOnLoss(f) }

// OnRTO implements Algorithm.
func (*WVegas) OnRTO(f *Flow, _ sim.Time) { rtoCollapse(f) }
