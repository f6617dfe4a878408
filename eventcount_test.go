package mptcpsim

import (
	"testing"
	"time"
)

// A link transit costs one kernel event: the arrival. Everything else a
// run fires — ACK-clocked sends ride on arrivals, so what remains is
// delayed-ACK and retransmission timers, subflow starts and the timeline —
// is a small fraction of that. A change that brings back a per-packet event
// (a scheduled end of serialisation, a per-segment timer that fires) shows
// up here as a ratio near 2, long before a benchmark run.
func TestOneEventPerPacketHop(t *testing.T) {
	flap := []Event{
		{At: 200 * time.Millisecond, Type: EventLinkDown, A: "s", B: "v1"},
		{At: 350 * time.Millisecond, Type: EventLinkUp, A: "s", B: "v1"},
		{At: 500 * time.Millisecond, Type: EventSetRate, A: "v3", B: "v4", Mbps: 20},
		{At: 700 * time.Millisecond, Type: EventLossBurst, A: "s", B: "v2", Loss: 0.3, Burst: 20 * time.Millisecond},
	}
	for _, tc := range []struct {
		name   string
		events []Event
	}{{"static", nil}, {"flap", flap}} {
		t.Run(tc.name, func(t *testing.T) {
			nw := PaperNetwork()
			for _, e := range tc.events {
				if err := nw.AddEvent(e); err != nil {
					t.Fatal(err)
				}
			}
			res, err := Run(nw, Options{CC: "cubic", Duration: time.Second, Seed: 1,
				SubflowPaths: []int{2, 1, 3}, Telemetry: true, ValidateInvariants: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Invariants) != 0 {
				t.Fatalf("invariants: %v", res.Invariants)
			}
			tx := res.Telemetry.TxPackets
			if tx < 10000 {
				t.Fatalf("only %d link transmissions in a 1 s run", tx)
			}
			if ratio := float64(res.LoopEvents) / float64(tx); ratio > 1.15 {
				t.Fatalf("%d events for %d link transmissions: %.3f per packet-hop, want at most 1.15",
					res.LoopEvents, tx, ratio)
			} else {
				t.Logf("%d events, %d link transmissions: %.3f per packet-hop", res.LoopEvents, tx, ratio)
			}
		})
	}
}
