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

// runBytesBudget bounds the bytes of the same run at about twice the worst
// of the three measured runs (~280 KiB on amd64; 546 KiB before a run took
// its packet slabs, link queues, scoreboards and random streams from the
// runs before it). What is left is set-up, the result, and the queues still
// growing while the pools fill after one warm-up run: three senders draw
// scoreboards in whatever order the pool holds them. The object count does
// not see a queue record that doubles in size; the bytes do. Under the race
// detector sync.Pool drops some of what it is handed, and the bound holds
// even with no reuse at all.
const runBytesBudget = 560 << 10

// TestRunSteadyStateAllocs gates the end-to-end allocation bill: packets
// and segments come from the arena, events from the loop's node pool, so a
// full reference run allocates a fixed small amount regardless of how much
// traffic it moves.
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
