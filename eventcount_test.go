package mptcpsim

import (
	"os"
	"slices"
	"testing"
	"time"
)

// A contended link transit costs one kernel event: the arrival at a node
// where links meet or the packet is delivered. A hop onto a link whose only
// feeder is the link the packet arrived over costs none: the feeder admits
// the packet to it (netem.Network.Fuse). Everything else a run fires —
// ACK-clocked sends ride on arrivals, so what remains is delayed-ACK and
// retransmission timers, subflow starts and the timeline — is a small
// fraction of the contended hops. A change that brings back a per-packet
// event (a scheduled end of serialisation, a per-segment timer that fires,
// an arrival at a single-feeder node) shows up here as a ratio near 2, long
// before a benchmark run; a change to the feeder relation moves the pinned
// count of fused links.
func TestOneEventPerContendedHop(t *testing.T) {
	flap := []ScenarioEvent{
		{AtMs: 200, Type: EventLinkDown, A: "s", B: "v1"},
		{AtMs: 350, Type: EventLinkUp, A: "s", B: "v1"},
		{AtMs: 500, Type: EventSetRate, A: "v3", B: "v4", Mbps: 20},
		{AtMs: 700, Type: EventLossBurst, A: "s", B: "v2", Loss: 0.3, DurationMs: 20},
	}
	f, err := os.Open("bench/scenarios/wide8.json")
	if err != nil {
		t.Fatal(err)
	}
	sf, err := LoadScenario(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	wide, err := sf.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		nw    *Network
		fused int
	}{
		// v1->v2, v1->v3, v3->d, v4->d (data) and v4->v3, v3->v1, v2->v1,
		// v2->s (ACKs).
		{"static", paperWith(t), 8},
		// The timeline mutates s-v1, v3-v4 and s-v2: v3->d and v2->v1 stay.
		{"flap", paperWith(t, flap...), 2},
		// Every link but the shared core m0-m1 and the host links s->ai and
		// d->bi: a data packet is an event at m0 and one at d.
		{"wide8", wide, 24},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{CC: "cubic", Duration: time.Second, Seed: 1, Telemetry: true, ValidateInvariants: true}
			if tc.name != "wide8" {
				opts.SubflowPaths = []int{2, 1, 3}
			}
			res, hr, err := runHops(tc.nw, opts, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Invariants) != 0 {
				t.Fatalf("invariants: %v", res.Invariants)
			}
			if hr.fused != tc.fused {
				t.Fatalf("Fuse joined %d links to their feeders, want %d", hr.fused, tc.fused)
			}
			// The fused links, from the feeder relation itself: every hop
			// onto one is admitted by its feeder, the rest are contended.
			var contended, fusedHops uint64
			fused := 0
			for _, l := range hr.net.Links() {
				u, ok := hr.net.Router.Feeder(l.Spec.ID)
				if ok && !slices.Contains(hr.mutated, l.Spec.ID) && !slices.Contains(hr.mutated, u) {
					fused++
					fusedHops += l.Counters.Offered
				} else {
					contended += l.Counters.Offered
				}
			}
			if fused != tc.fused {
				t.Fatalf("the feeder relation names %d fused links, Fuse %d", fused, tc.fused)
			}
			if contended < 5000 {
				t.Fatalf("only %d contended hops in a 1 s run", contended)
			}
			if ratio := float64(res.LoopEvents) / float64(contended); ratio > 1.15 {
				t.Fatalf("%d events for %d contended hops: %.3f per contended hop, want at most 1.15",
					res.LoopEvents, contended, ratio)
			} else {
				t.Logf("%d events, %d contended hops (%.3f per hop), %d fused hops, %d link transmissions",
					res.LoopEvents, contended, ratio, fusedHops, res.Telemetry.TxPackets)
			}

			// Every hop an event: the same run costs one event per hop.
			ref, _, err := runHops(tc.nw, opts, true, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tx := ref.Telemetry.TxPackets; float64(ref.LoopEvents)/float64(tx) > 1.15 {
				t.Fatalf("per-hop: %d events for %d link transmissions", ref.LoopEvents, tx)
			}
			if ref.LoopEvents <= res.LoopEvents {
				t.Fatalf("fused run fired %d events, per-hop %d", res.LoopEvents, ref.LoopEvents)
			}
		})
	}
}
