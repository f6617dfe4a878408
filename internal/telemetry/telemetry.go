// Package telemetry is the run-observability layer of the simulator:
// engine counters rolled up per run and per sweep, a fixed-size flight
// recorder of the last engine events (dumped as NDJSON when a run fails),
// and a progress meter that streams NDJSON heartbeats as a sweep's sink
// chain reports completions, optionally exposed over expvar for a debug
// HTTP endpoint.
//
// Everything here is observation-only by construction: nothing schedules
// events, consumes randomness, or feeds back into the models, so a run
// with telemetry attached is bit-identical to one without (the golden-hash
// property cmd/simcheck enforces).
package telemetry

// Rollup is the engine counters of one run (Runs == 1), collected after
// its loop drains, or of a sweep's runs merged. Every field is a sum or a
// max, so a merged rollup is identical for any worker count or completion
// order.
type Rollup struct {
	Runs uint64 `json:"runs"`

	// EventsScheduled counts kernel events scheduled, EventsFired those
	// executed (stopped timers account for the difference); Recycled counts
	// event nodes the free list served. HeapPeak, a max over runs, is the
	// peak number of pending events.
	EventsScheduled uint64 `json:"events_scheduled"`
	EventsFired     uint64 `json:"events_fired"`
	Recycled        uint64 `json:"recycled"`
	HeapPeak        int    `json:"heap_peak"`

	// Link totals: completed transmissions, packets offered to a queue and
	// drops of every reason.
	TxPackets uint64 `json:"tx_packets"`
	TxBytes   uint64 `json:"tx_bytes"`
	Offered   uint64 `json:"offered"`
	Drops     uint64 `json:"drops"`

	// Subflow totals: recovery episodes, retransmitted segments and
	// scheduler grants.
	RTOs           uint64 `json:"rtos"`
	FastRecoveries uint64 `json:"fast_recoveries"`
	Retransmits    uint64 `json:"retransmits"`
	SchedPicks     uint64 `json:"sched_picks"`
}

// Merge folds o into r. A nil o (a run that failed before its counters
// were collected) is skipped.
func (r *Rollup) Merge(o *Rollup) {
	if o == nil {
		return
	}
	r.Runs += o.Runs
	r.EventsScheduled += o.EventsScheduled
	r.EventsFired += o.EventsFired
	r.Recycled += o.Recycled
	r.HeapPeak = max(r.HeapPeak, o.HeapPeak)
	r.TxPackets += o.TxPackets
	r.TxBytes += o.TxBytes
	r.Offered += o.Offered
	r.Drops += o.Drops
	r.RTOs += o.RTOs
	r.FastRecoveries += o.FastRecoveries
	r.Retransmits += o.Retransmits
	r.SchedPicks += o.SchedPicks
}
