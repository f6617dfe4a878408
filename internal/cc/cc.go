// Package cc implements the congestion-control algorithms the paper
// evaluates: per-subflow CUBIC (Linux's default) and Reno/NewReno, plus the
// coupled multipath controllers LIA (RFC 6356), OLIA (Khalili et al. 2013)
// and BALIA (Peng et al. 2014, an extension beyond the paper).
//
// The design mirrors the Linux MPTCP congestion-control framework: the TCP
// layer owns window bookkeeping (slow-start threshold, recovery
// inflation/deflation) and calls into an Algorithm at the decision points —
// per-ACK increase, loss response, RTO response. Coupled algorithms receive
// all subflows of a connection through Register and can therefore shift
// window growth between paths, which is exactly the mechanism whose
// optimisation behaviour the paper studies.
package cc

import (
	"fmt"
	"time"

	"mptcpsim/internal/sim"
)

// Flow is the congestion view of one TCP subflow. The TCP layer keeps the
// exported fields current before invoking Algorithm hooks; algorithms
// mutate Cwnd/Ssthresh and keep private state in ctx.
type Flow struct {
	// MSS is the sender maximum segment size in bytes.
	MSS int
	// Cwnd is the congestion window in bytes (fractional accumulation).
	Cwnd float64
	// Ssthresh is the slow-start threshold in bytes.
	Ssthresh float64
	// SRTT is the smoothed round-trip time; zero until the first sample.
	SRTT time.Duration
	// MinRTT is the smallest RTT observed.
	MinRTT time.Duration
	// InFlight is the sender's current outstanding byte count.
	InFlight int
	// ID labels the flow (tcp.Config.FlowID: a subflow's path label). No
	// algorithm reads it; it names the flow in a debugger or a test failure.
	ID string

	ctx any
}

// InSlowStart reports whether the flow is below its slow-start threshold.
func (f *Flow) InSlowStart() bool { return f.Cwnd < f.Ssthresh }

// rtt returns a safe RTT for rate calculations (guards the pre-sample and
// zero cases).
func (f *Flow) rtt() float64 {
	if f.SRTT <= 0 {
		return 0.001
	}
	return f.SRTT.Seconds()
}

// wPkts returns the window in MSS units, at least a small positive value.
func (f *Flow) wPkts() float64 {
	w := f.Cwnd / float64(f.MSS)
	if w < 0.01 {
		return 0.01
	}
	return w
}

// Algorithm is a congestion-control module. Hooks run inside the event
// loop; implementations must be deterministic.
type Algorithm interface {
	// Register attaches a flow (called when its connection establishes).
	// Coupled algorithms add it to their window-coupling group.
	Register(f *Flow, now sim.Time)
	// Unregister detaches a flow.
	Unregister(f *Flow)
	// OnAck processes a cumulative ACK of acked bytes outside recovery.
	OnAck(f *Flow, acked int, now sim.Time)
	// OnLoss processes entry into fast recovery: it must set f.Ssthresh
	// (and may adjust internal state). Window inflation during recovery is
	// the TCP layer's job.
	OnLoss(f *Flow, now sim.Time)
	// OnRTO processes a retransmission timeout.
	OnRTO(f *Flow, now sim.Time)
}

// minSsthresh is the floor for the slow-start threshold, per RFC 5681.
func minSsthresh(f *Flow) float64 { return float64(2 * f.MSS) }

// halveOnLoss is the standard multiplicative decrease shared by Reno, LIA
// and OLIA: ssthresh = max(inflight/2, 2*MSS).
func halveOnLoss(f *Flow) {
	fl := float64(f.InFlight)
	if fl < f.Cwnd {
		// Use at least the window: an application-limited flow should not
		// collapse below half its window.
		fl = f.Cwnd
	}
	s := fl / 2
	if s < minSsthresh(f) {
		s = minSsthresh(f)
	}
	f.Ssthresh = s
}

// rtoCollapse is the standard RTO response: halve the threshold and fall
// back to one segment.
func rtoCollapse(f *Flow) {
	halveOnLoss(f)
	f.Cwnd = float64(f.MSS)
}

// slowStart grows the window exponentially using appropriate byte counting
// (RFC 3465, L=2) and reports how many acked bytes remain for the
// congestion-avoidance phase after crossing ssthresh.
func slowStart(f *Flow, acked int) int {
	inc := float64(acked)
	if max := float64(2 * f.MSS); inc > max {
		inc = max
	}
	if f.Cwnd+inc <= f.Ssthresh {
		f.Cwnd += inc
		return 0
	}
	// Cross ssthresh exactly; leftover ACK bytes feed congestion avoidance.
	left := int((f.Cwnd + inc - f.Ssthresh) / 2)
	f.Cwnd = f.Ssthresh
	return left
}

// New returns a fresh instance of the algorithm of exactly this name.
// Coupled algorithms need one instance per MPTCP connection, so every call
// builds a new one.
func New(name string) (Algorithm, error) {
	switch name {
	case "balia":
		return &BALIA{}, nil
	case "cubic":
		return &Cubic{}, nil
	case "lia":
		return &LIA{}, nil
	case "olia":
		return &OLIA{}, nil
	case "reno":
		return &Reno{}, nil
	case "wvegas":
		return NewWVegas(), nil
	}
	return nil, fmt.Errorf("cc: unknown algorithm %q (have balia, cubic, lia, olia, reno, wvegas)", name)
}
