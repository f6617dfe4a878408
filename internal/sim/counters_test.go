package sim

import (
	"testing"
	"time"
)

// TestCountersAccounting pins the Counters snapshot against a scripted
// workload: sequential events recycle one arena node, a stopped timer
// counts as scheduled but not fired, a burst of concurrently pending
// events sets the high-water mark, and every ranked arm counts as
// scheduled, a second arm under a rank after a Stop included.
func TestCountersAccounting(t *testing.T) {
	l := NewLoop()

	// Phase 1: 10 strictly sequential events — each fires (and frees its
	// node) before the next is scheduled, so the arena stays at one node.
	n := 0
	var next func()
	next = func() {
		n++
		if n < 10 {
			l.Schedule(time.Millisecond, next)
		}
	}
	l.Schedule(time.Millisecond, next)
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	c := l.Counters()
	if c.Scheduled != 10 || c.Fired != 10 {
		t.Fatalf("sequential phase: scheduled=%d fired=%d, want 10/10", c.Scheduled, c.Fired)
	}
	if len(l.nodes) != 1 || c.Recycled != 9 {
		t.Fatalf("sequential phase: arena=%d recycled=%d, want 1/9 (one node reused)", len(l.nodes), c.Recycled)
	}
	if c.HeapPeak != 1 {
		t.Fatalf("sequential phase: heapPeak=%d, want 1", c.HeapPeak)
	}

	// Phase 2: 8 concurrently pending events push the high-water mark;
	// one stopped timer stays counted in Scheduled but never fires.
	for i := 0; i < 8; i++ {
		l.Schedule(time.Duration(i+1)*time.Millisecond, func() {})
	}
	stopped := l.Schedule(time.Hour, func() { t.Fatal("stopped timer fired") })
	if !stopped.Stop() {
		t.Fatal("timer did not report pending on Stop")
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	c = l.Counters()
	if c.Scheduled != 19 || c.Fired != 18 {
		t.Fatalf("burst phase: scheduled=%d fired=%d, want 19/18", c.Scheduled, c.Fired)
	}
	if c.HeapPeak != 9 {
		t.Fatalf("burst phase: heapPeak=%d, want 9", c.HeapPeak)
	}
	if len(l.nodes) != 9 || c.Recycled != 10 {
		t.Fatalf("burst phase: arena=%d recycled=%d, want 9/10", len(l.nodes), c.Recycled)
	}
	if got := c.Recycled + uint64(len(l.nodes)); got != c.Scheduled {
		t.Fatalf("recycled(%d) + arena(%d) = %d, want scheduled %d",
			c.Recycled, len(l.nodes), got, c.Scheduled)
	}

	// Phase 3: a link-like producer arms three ranked events, stops one and
	// arms its rank again: four arms, three fired, all on recycled nodes.
	cb := &countCall{}
	l.AtRanked(l.Now()+1, 0, cb)
	moved := l.AtRanked(l.Now()+2, 1, cb)
	l.AtRanked(l.Now()+3, 2, cb)
	moved.Stop()
	l.AtRanked(l.Now()+4, 1, cb)
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	c = l.Counters()
	if c.Scheduled != 23 || c.Fired != 21 || cb.n != 3 {
		t.Fatalf("ranked phase: scheduled=%d fired=%d ran=%d, want 23/21/3", c.Scheduled, c.Fired, cb.n)
	}
	if got := c.Recycled + uint64(len(l.nodes)); got != c.Scheduled {
		t.Fatalf("ranked phase: recycled(%d) + arena(%d) = %d, want scheduled %d",
			c.Recycled, len(l.nodes), got, c.Scheduled)
	}
}

// TestCountersZeroAlloc gates the snapshot itself and the high-water
// bookkeeping: reading counters mid-steady-state allocates nothing, like
// the schedule path it observes.
func TestCountersZeroAlloc(t *testing.T) {
	l := NewLoop()
	sink := Counters{}
	// Warm the arena so the measured loop stays on the free list.
	for i := 0; i < 64; i++ {
		l.Schedule(time.Millisecond, func() {})
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		l.Schedule(time.Millisecond, func() {})
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		sink = l.Counters()
	})
	if allocs != 0 {
		t.Fatalf("schedule+run+Counters allocates %.1f objects, want 0", allocs)
	}
	if sink.Fired == 0 {
		t.Fatal("gate measured nothing: no events fired")
	}
}
