package mptcpsim

import (
	"runtime"
	"testing"
	"time"
)

// runAllocBudget is the whole-run allocation budget for the reference
// static scenario. A warm run costs under ~1000 objects (setup, baselines
// from cache, result series); the budget leaves ~2x headroom for noise. A
// 1 s run moves tens of thousands of packets, so any per-packet or
// per-event allocation sneaking back into the transit path blows the
// budget by an order of magnitude, not by percent.
const runAllocBudget = 2000

// runBytesBudget bounds the bytes of the same run (~605 KiB). The object
// count does not see the two queues slow-start overshoot fills: the TCP
// scoreboard and out-of-order queue are most of a run's bytes in a few
// dozen allocations, so a record that doubles (40 and 32 bytes today) adds
// some 400 KiB here and nothing there.
const runBytesBudget = 800 << 10

// TestRunSteadyStateAllocs gates the end-to-end allocation bill: packets
// and segments come from the per-run arena, events from the loop's node
// pool, so a full reference run allocates a fixed small amount regardless
// of how much traffic it moves.
func TestRunSteadyStateAllocs(t *testing.T) {
	opts := Options{CC: "cubic", Duration: time.Second, Seed: 1}
	// Warm-up: populate the process-wide baseline cache and libc/runtime
	// lazy paths so the measured runs see the steady state CI measures.
	if _, err := RunPaper(opts); err != nil {
		t.Fatal(err)
	}
	var worst, worstBytes uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunPaper(opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		worst = max(worst, after.Mallocs-before.Mallocs)
		worstBytes = max(worstBytes, after.TotalAlloc-before.TotalAlloc)
	}
	if worst > runAllocBudget {
		t.Fatalf("reference run allocates %d objects, budget %d", worst, runAllocBudget)
	}
	if worstBytes > runBytesBudget {
		t.Fatalf("reference run allocates %d KiB, budget %d KiB", worstBytes>>10, runBytesBudget>>10)
	}
}
