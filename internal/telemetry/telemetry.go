// Package telemetry is the run-observability layer of the simulator:
// engine counters snapshotted per run, a fixed-size flight recorder of the
// last engine events (dumped as NDJSON when a run fails), and a progress
// meter that streams NDJSON heartbeats as a sweep's sink chain reports
// completions, optionally exposed over expvar for a debug HTTP endpoint.
//
// Everything here is observation-only by construction: nothing schedules
// events, consumes randomness, or feeds back into the models, so a run
// with telemetry attached is bit-identical to one without (the golden-hash
// property cmd/simcheck enforces).
package telemetry

import (
	"mptcpsim/internal/sim"
)

// SimCounters mirrors sim.Counters in a JSON-friendly form.
type SimCounters struct {
	// EventsScheduled counts events ever scheduled, EventsFired events
	// executed (stopped timers account for the difference).
	EventsScheduled uint64 `json:"events_scheduled"`
	EventsFired     uint64 `json:"events_fired"`
	// ArenaNodes is the pooled event arena's final size; Recycled counts
	// allocations served by the free list instead of arena growth.
	ArenaNodes int    `json:"arena_nodes"`
	Recycled   uint64 `json:"recycled"`
	// InUsePeak and HeapPeak are both the peak number of live pending
	// events: the kernel's heap holds exactly the pending events, so the
	// occupied arena and the queue depth are one high-water mark, kept
	// under both names for the readers of either.
	InUsePeak int `json:"in_use_peak"`
	HeapPeak  int `json:"heap_peak"`
}

// FromSim converts a kernel counter snapshot.
func FromSim(c sim.Counters) SimCounters {
	return SimCounters{
		EventsScheduled: c.Scheduled,
		EventsFired:     c.Fired,
		ArenaNodes:      c.ArenaNodes,
		Recycled:        c.Recycled,
		InUsePeak:       c.InUsePeak,
		HeapPeak:        c.HeapPeak,
	}
}

// LinkCounters is the per-link dataplane view: offered load, completed
// transmissions, drops by reason, and queue/utilisation peaks.
type LinkCounters struct {
	Name      string            `json:"name"`
	Offered   uint64            `json:"offered"`
	TxPackets uint64            `json:"tx_packets"`
	TxBytes   uint64            `json:"tx_bytes"`
	Drops     map[string]uint64 `json:"drops,omitempty"`
	// MaxQueueBytes is the queue-occupancy high-water mark.
	MaxQueueBytes int `json:"max_queue_bytes"`
	// Utilisation is the busy fraction of the transmitter over the run.
	Utilisation float64 `json:"utilisation"`
}

// SubflowCounters is the per-subflow transport view: loss-recovery
// activity, scheduler attention, and the congestion-window high-water.
type SubflowCounters struct {
	Path  int    `json:"path"`
	Label string `json:"label"`
	// RTOs and FastRecoveries count timeout and fast-retransmit recovery
	// episodes; Retransmits counts retransmitted segments.
	RTOs           uint64 `json:"rtos"`
	FastRecoveries uint64 `json:"fast_recoveries"`
	Retransmits    uint64 `json:"retransmits"`
	// SchedPicks counts scheduler grants that put data on this subflow.
	SchedPicks uint64 `json:"sched_picks"`
	// CwndPeakBytes is the congestion window's high-water mark.
	CwndPeakBytes int `json:"cwnd_peak_bytes"`
}

// Snapshot is one run's complete telemetry: collected after the loop
// drains, never during it, so the hot path pays nothing for it.
type Snapshot struct {
	Sim      SimCounters       `json:"sim"`
	Links    []LinkCounters    `json:"links,omitempty"`
	Subflows []SubflowCounters `json:"subflows,omitempty"`
	// FlightEvents is the number of engine events the flight recorder
	// retained (<= its ring capacity); FlightTotal the number observed.
	FlightEvents int    `json:"flight_events,omitempty"`
	FlightTotal  uint64 `json:"flight_total,omitempty"`
}

// Rollup accumulates Snapshots across the runs of a sweep. Every field is
// either a sum or a max, so the aggregate is identical for any worker
// count or completion order.
type Rollup struct {
	Runs uint64 `json:"runs"`

	EventsScheduled uint64 `json:"events_scheduled"`
	EventsFired     uint64 `json:"events_fired"`
	Recycled        uint64 `json:"recycled"`
	// HeapPeak and InUsePeak are maxima over runs.
	HeapPeak  int `json:"heap_peak"`
	InUsePeak int `json:"in_use_peak"`

	TxPackets uint64 `json:"tx_packets"`
	TxBytes   uint64 `json:"tx_bytes"`
	Offered   uint64 `json:"offered"`
	Drops     uint64 `json:"drops"`

	RTOs           uint64 `json:"rtos"`
	FastRecoveries uint64 `json:"fast_recoveries"`
	Retransmits    uint64 `json:"retransmits"`
	SchedPicks     uint64 `json:"sched_picks"`
}

// Add folds one run's snapshot into the rollup. A nil snapshot (run
// failed before telemetry collection) is ignored.
func (r *Rollup) Add(s *Snapshot) {
	if s == nil {
		return
	}
	r.Runs++
	r.EventsScheduled += s.Sim.EventsScheduled
	r.EventsFired += s.Sim.EventsFired
	r.Recycled += s.Sim.Recycled
	if s.Sim.HeapPeak > r.HeapPeak {
		r.HeapPeak = s.Sim.HeapPeak
	}
	if s.Sim.InUsePeak > r.InUsePeak {
		r.InUsePeak = s.Sim.InUsePeak
	}
	for _, l := range s.Links {
		r.TxPackets += l.TxPackets
		r.TxBytes += l.TxBytes
		r.Offered += l.Offered
		for _, n := range l.Drops {
			r.Drops += n
		}
	}
	for _, sf := range s.Subflows {
		r.RTOs += sf.RTOs
		r.FastRecoveries += sf.FastRecoveries
		r.Retransmits += sf.Retransmits
		r.SchedPicks += sf.SchedPicks
	}
}
