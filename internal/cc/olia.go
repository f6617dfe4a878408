package cc

import (
	"math"

	"mptcpsim/internal/sim"
)

// OLIA is the Opportunistic Linked Increases Algorithm (Khalili, Gast,
// Popovic, Le Boudec: "MPTCP Is Not Pareto-Optimal", ToN 2013), designed to
// fix LIA's suboptimality. All subflows of a connection share one
// instance. Per ACK of `acked` bytes on path r, the window (in MSS) grows
// by
//
//	( (w_r/rtt_r^2) / (sum_p w_p/rtt_p)^2  +  alpha_r / w_r ) * acked/MSS
//
// The first term is a coupled, Pareto-optimal version of the AIMD
// increase; the second is the "opportunistic" reallocation term: paths
// that recently carried the most bytes between losses but currently hold
// small windows (set B \ M) receive alpha = +1/(N*|B\M|), while
// maximum-window paths give up alpha = -1/(N*|M|). This slowly shifts
// window from saturated to promising paths — the behaviour the paper
// observes as slow (~20 s) but stable convergence to the optimum when
// Path 2 is the default subflow.
type OLIA struct {
	flows []*Flow
}

// oliaState tracks the inter-loss byte counters l1 (bytes acked since the
// last loss) and l2 (bytes acked between the previous two losses).
type oliaState struct {
	l1, l2 float64
}

// Register implements Algorithm.
func (o *OLIA) Register(f *Flow, _ sim.Time) {
	f.ctx = &oliaState{}
	o.flows = append(o.flows, f)
}

// Unregister implements Algorithm.
func (o *OLIA) Unregister(f *Flow) {
	for i, g := range o.flows {
		if g == f {
			o.flows = append(o.flows[:i], o.flows[i+1:]...)
			return
		}
	}
}

func oliaStateOf(f *Flow) *oliaState {
	s, ok := f.ctx.(*oliaState)
	if !ok {
		s = &oliaState{}
		f.ctx = s
	}
	return s
}

// interLoss returns l_r = max(l1, l2), the path quality estimate.
func interLoss(f *Flow) float64 {
	s := oliaStateOf(f)
	l := math.Max(s.l1, s.l2)
	if l <= 0 {
		// No loss yet: treat the path as promising proportionally to its
		// window, so startup does not deadlock the alpha sets.
		l = f.Cwnd
	}
	return l
}

// alphaFor returns f's alpha in the OLIA increase. M is the paths with the
// largest window, B the paths maximising l_r^2 / w_r (best transmission
// potential); OnAck runs on every ACK and needs only the caller's own
// alpha, so the membership sets are counted instead of collected. The
// tests keep the collecting form, alphas, as its reference.
func (o *OLIA) alphaFor(f *Flow) float64 {
	n := len(o.flows)
	if n == 0 {
		return 0
	}
	const tol = 1.0001
	var maxW, maxQ float64
	for _, g := range o.flows {
		if g.Cwnd > maxW {
			maxW = g.Cwnd
		}
		l := interLoss(g)
		if q := l * l / math.Max(g.Cwnd, 1); q > maxQ {
			maxQ = q
		}
	}
	nM, nColl := 0, 0
	fInM, fInColl := false, false
	for _, g := range o.flows {
		inM := g.Cwnd*tol >= maxW
		l := interLoss(g)
		inB := (l*l/math.Max(g.Cwnd, 1))*tol >= maxQ
		if inB && !inM {
			nColl++
			if g == f {
				fInColl = true
			}
		}
		if inM {
			nM++
			if g == f {
				fInM = true
			}
		}
	}
	switch {
	case nColl == 0:
		return 0
	case fInColl:
		return 1 / (float64(n) * float64(nColl))
	case fInM:
		return -1 / (float64(n) * float64(nM))
	}
	return 0
}

// OnAck implements Algorithm.
func (o *OLIA) OnAck(f *Flow, acked int, _ sim.Time) {
	oliaStateOf(f).l1 += float64(acked)
	if f.InSlowStart() {
		acked = slowStart(f, acked)
		if acked == 0 {
			return
		}
	}
	var denom float64
	for _, g := range o.flows {
		denom += g.Cwnd / float64(g.MSS) / g.rtt()
	}
	if denom <= 0 {
		return
	}
	wr := f.wPkts()
	rtt := f.rtt()
	term1 := (wr / (rtt * rtt)) / (denom * denom)
	alpha := o.alphaFor(f)
	incPkts := term1 + alpha/wr
	delta := float64(incPkts * float64(acked))
	f.Cwnd += delta
	// The negative alpha term may not shrink the window below one segment
	// per RTT-ish floor; OLIA never closes a path entirely.
	if f.Cwnd < float64(f.MSS) {
		f.Cwnd = float64(f.MSS)
	}
}

// OnLoss implements Algorithm.
func (*OLIA) OnLoss(f *Flow, _ sim.Time) {
	s := oliaStateOf(f)
	s.l2 = s.l1
	s.l1 = 0
	halveOnLoss(f)
}

// OnRTO implements Algorithm.
func (*OLIA) OnRTO(f *Flow, _ sim.Time) {
	s := oliaStateOf(f)
	s.l2 = s.l1
	s.l1 = 0
	rtoCollapse(f)
}
