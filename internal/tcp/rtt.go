package tcp

import "time"

// rttEstimator implements the RFC 6298 smoothed RTT and retransmission
// timeout computation, with Linux-style clamping.
type rttEstimator struct {
	srtt, rttvar time.Duration
	hasSample    bool
	minRTT       time.Duration
}

// Sample folds a new RTT measurement in (Karn's rule: callers must not
// sample retransmitted segments).
func (e *rttEstimator) Sample(rtt time.Duration) {
	if rtt <= 0 {
		rtt = time.Microsecond
	}
	if !e.hasSample {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.minRTT = rtt
		e.hasSample = true
		return
	}
	if rtt < e.minRTT {
		e.minRTT = rtt
	}
	d := e.srtt - rtt
	if d < 0 {
		d = -d
	}
	e.rttvar = (3*e.rttvar + d) / 4
	e.srtt = (7*e.srtt + rtt) / 8
}

// SRTT returns the smoothed RTT (zero before the first sample).
func (e *rttEstimator) SRTT() time.Duration { return e.srtt }

// MinRTT returns the smallest sample seen.
func (e *rttEstimator) MinRTT() time.Duration { return e.minRTT }

// RTO returns the current retransmission timeout.
func (e *rttEstimator) RTO() time.Duration {
	if !e.hasSample {
		return initialRTO
	}
	rto := e.srtt + 4*e.rttvar
	return min(max(rto, DefaultMinRTO), DefaultMaxRTO)
}
