package mptcp

import (
	"fmt"
	"strings"

	"mptcpsim/internal/packet"
)

// Scheduler decides how connection-level data is spread over subflows.
// Every subflow pulls data when its own congestion window opens, so with
// an infinite backlog each fills its window and the scheduler only decides
// whether the subflows share one data stream or each carry all of it.
type Scheduler interface {
	// Name returns the registry name.
	Name() string
	// Grant returns how many of max bytes the subflow may map right now.
	Grant(sf *Subflow, max int) int
}

// NewScheduler instantiates a scheduler by name ("" selects min-RTT, the
// Linux MPTCP default the paper's measurements use).
func NewScheduler(name string) (Scheduler, error) {
	switch strings.ToLower(name) {
	case "", "minrtt", "default":
		return &MinRTT{}, nil
	case "roundrobin", "rr":
		return &RoundRobin{}, nil
	case "redundant":
		return &Redundant{}, nil
	default:
		return nil, fmt.Errorf("mptcp: unknown scheduler %q", name)
	}
}

// MinRTT is the default scheduler: every subflow with window space may
// send. The low-RTT subflow's ACK clock opens its window most often, which
// is the only preference for fast paths it has.
type MinRTT struct{}

// Name implements Scheduler.
func (*MinRTT) Name() string { return "minrtt" }

// Grant implements Scheduler.
func (*MinRTT) Grant(_ *Subflow, max int) int { return max }

// RoundRobin grants exactly as MinRTT does: a subflow out of turn still
// gets data (its window is open; refusing would idle the path). The two
// differ in name only, so runs under either are identical.
type RoundRobin struct{}

// Name implements Scheduler.
func (*RoundRobin) Name() string { return "roundrobin" }

// Grant implements Scheduler.
func (*RoundRobin) Grant(_ *Subflow, max int) int { return max }

// Redundant maps every data byte onto every subflow (the latency-oriented
// scheduler of "Low Latency via Redundancy"; cited as [5] in the paper's
// motivation). The receiver's overlap-tolerant reassembly deduplicates.
type Redundant struct{}

// Name implements Scheduler.
func (*Redundant) Name() string { return "redundant" }

// Grant implements Scheduler (unused: nextFor drives redundant mode).
func (*Redundant) Grant(_ *Subflow, max int) int { return max }

// nextFor assigns the subflow's private cursor range, duplicating data
// already assigned to other subflows. The shared dsnNext high-water mark
// only advances when the leading subflow requests fresh bytes.
func (r *Redundant) nextFor(sf *Subflow, max int) (int, *packet.DSS) {
	c := sf.conn
	n := max
	if sf.redundantCursor < c.dsnNext {
		// Catch up on bytes other subflows already carry.
		behind := c.dsnNext - sf.redundantCursor
		if uint64(n) > behind {
			n = int(behind)
		}
	} else {
		// Leading subflow: pull fresh data.
		n = c.source.NextData(n)
		if n <= 0 {
			return 0, nil
		}
		c.dsnNext += uint64(n)
	}
	sf.dssBuf = packet.DSS{HasMap: true, DSN: sf.redundantCursor, DataLen: uint16(n)}
	sf.redundantCursor += uint64(n)
	sf.assigned += uint64(n)
	return n, &sf.dssBuf
}
