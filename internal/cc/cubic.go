package cc

import (
	"math"

	"mptcpsim/internal/sim"
)

// CUBIC constants per RFC 8312: C is the cubic scaling factor in
// MSS/second^3 and beta the multiplicative decrease factor.
const (
	cubicC    = 0.4
	cubicBeta = 0.7
)

// Cubic is CUBIC congestion control (RFC 8312), Linux's default and the
// algorithm with which the paper's MPTCP always found the optimum. Window
// growth is a cubic function of the time since the last reduction —
// concave while approaching the previous saturation point W_max, then
// convex while probing beyond it — and is independent of RTT, plus a
// TCP-friendly region so short-RTT paths are not starved. Fast convergence
// releases capacity more quickly when a flow's share is shrinking.
//
// Applied per subflow (uncoupled), as the paper's "MPTCP-CUBIC".
// HyStart is not implemented; slow start is standard (RFC 3465).
type Cubic struct{}

type cubicState struct {
	// wLastMax is the window (MSS) just before the last reduction, after
	// fast-convergence shrinking.
	wLastMax float64
	// origin and k define the cubic curve: w(t) = origin + C*(t-k)^3.
	origin float64
	k      float64
	// epochStart is when the current growth epoch began; zero means unset.
	epochStart sim.Time
	epochSet   bool
	// wTCP is the TCP-friendly window estimate (MSS).
	wTCP float64
}

// Register implements Algorithm.
func (*Cubic) Register(f *Flow, _ sim.Time) { f.ctx = &cubicState{} }

// Unregister implements Algorithm.
func (*Cubic) Unregister(f *Flow) {}

func (c *Cubic) state(f *Flow) *cubicState {
	s, ok := f.ctx.(*cubicState)
	if !ok {
		s = &cubicState{}
		f.ctx = s
	}
	return s
}

// OnAck implements Algorithm.
func (c *Cubic) OnAck(f *Flow, acked int, now sim.Time) {
	if f.InSlowStart() {
		acked = slowStart(f, acked)
		if acked == 0 {
			return
		}
	}
	s := c.state(f)
	w := f.wPkts()
	if !s.epochSet {
		s.epochSet = true
		s.epochStart = now
		if w < s.wLastMax {
			s.k = math.Cbrt((s.wLastMax - w) / cubicC)
			s.origin = s.wLastMax
		} else {
			s.k = 0
			s.origin = w
		}
		if s.wTCP == 0 {
			s.wTCP = w
		}
	}
	t := now.Sub(s.epochStart).Seconds() + f.rtt()
	target := s.origin + float64(cubicC*math.Pow(t-s.k, 3))

	// cnt is "ACKed segments per +1 segment of growth".
	var cnt float64
	if target > w {
		cnt = w / (target - w)
	} else {
		cnt = 100 * w // minimal growth while below the curve
	}

	// TCP-friendly region (RFC 8312 §4.2): emulate an AIMD flow with the
	// same loss rate; never grow slower than it.
	s.wTCP += 3 * (1 - cubicBeta) / (1 + cubicBeta) * float64(acked) / f.Cwnd
	if s.wTCP > w {
		if c2 := w / (s.wTCP - w); c2 < cnt {
			cnt = c2
		}
	}
	if cnt < 0.5 {
		cnt = 0.5 // cap growth at 2 MSS per ACK
	}
	f.Cwnd += float64(acked) / cnt
}

// OnLoss implements Algorithm.
func (c *Cubic) OnLoss(f *Flow, _ sim.Time) {
	s := c.state(f)
	w := f.wPkts()
	// Fast convergence: if the window stopped short of the previous
	// maximum, capacity was lost to a newcomer — release more.
	if w < s.wLastMax {
		s.wLastMax = w * (2 - cubicBeta) / 2
	} else {
		s.wLastMax = w
	}
	s.epochSet = false
	s.wTCP = w * cubicBeta
	th := f.Cwnd * cubicBeta
	if th < minSsthresh(f) {
		th = minSsthresh(f)
	}
	f.Ssthresh = th
}

// OnRTO implements Algorithm.
func (c *Cubic) OnRTO(f *Flow, now sim.Time) {
	c.OnLoss(f, now)
	f.Cwnd = float64(f.MSS)
}
