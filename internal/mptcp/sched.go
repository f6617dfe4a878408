package mptcp

import "fmt"

// Scheduler names how connection-level data is spread over subflows.
// Every subflow pulls data when its own congestion window opens, so with
// an infinite backlog each fills its window and the only decision left is
// whether the subflows share one data stream or each carry all of it.
type Scheduler struct {
	name string
	// redundant maps every data byte onto every subflow (the
	// latency-oriented scheduler of "Low Latency via Redundancy"; cited as
	// [5] in the paper's motivation). The receiver's overlap-tolerant
	// reassembly deduplicates.
	redundant bool
}

// Name returns the canonical registry name.
func (s Scheduler) Name() string { return s.name }

// NewScheduler looks a scheduler up by its exact name ("" selects min-RTT,
// the Linux MPTCP default the paper's measurements use). Under min-RTT every
// subflow with window space may send; the low-RTT subflow's ACK clock
// opens its window most often, which is the only preference for fast
// paths it has. Round-robin grants exactly as min-RTT does (a subflow out
// of turn has an open window; refusing it data would idle the path), so
// runs under either are identical and the two differ in name only.
func NewScheduler(name string) (Scheduler, error) {
	switch name {
	case "", "minrtt":
		return Scheduler{name: "minrtt"}, nil
	case "roundrobin":
		return Scheduler{name: "roundrobin"}, nil
	case "redundant":
		return Scheduler{name: "redundant", redundant: true}, nil
	default:
		return Scheduler{}, fmt.Errorf("mptcp: unknown scheduler %q (have minrtt, redundant, roundrobin)", name)
	}
}
