package sim

// Tests for the pooled event arena: generation-counter (ABA) safety of
// recycled Timer handles, the winner tree's stops and in-place re-arms (the
// reference kernel of order_test.go checks their order), the hand-over of a
// loop's storage to the next loop, and the zero-allocation guarantees of the
// fast path.

import (
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// countCall is a minimal pre-bound callback for pool tests.
type countCall struct{ n int }

func (c *countCall) Run(Time) { c.n++ }

// TestTimerRecycledNodeABA is the ABA case: a held Timer whose event
// fired and whose node was immediately reused by an unrelated event must
// not be able to stop or observe the new occupant.
func TestTimerRecycledNodeABA(t *testing.T) {
	l := NewLoop()
	var stale Timer
	var fresh Timer
	ran := 0
	stale = l.Schedule(time.Millisecond, func() {
		// The node recycles the moment this callback starts; the next
		// schedule reuses it.
		fresh = l.Schedule(time.Millisecond, func() { ran++ })
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if fresh.id != stale.id {
		t.Fatalf("test setup: expected node reuse, got node %d then %d", stale.id, fresh.id)
	}
	if fresh.gen == stale.gen {
		t.Fatal("recycled node kept its generation; ABA guard is dead")
	}
	if ran != 1 {
		t.Fatalf("second event ran %d times, want 1", ran)
	}

	// And with the reused event still pending: the stale handle must see
	// nothing and stop nothing.
	l2 := NewLoop()
	heldRan := false
	held := l2.Schedule(time.Millisecond, func() {})
	if err := l2.Run(); err != nil {
		t.Fatal(err)
	}
	reuse := l2.Schedule(time.Millisecond, func() { heldRan = true })
	if reuse.id != held.id {
		t.Fatalf("test setup: expected node reuse, got node %d then %d", held.id, reuse.id)
	}
	if held.Pending() {
		t.Fatal("stale handle claims the new occupant is its own event")
	}
	if held.Stop() {
		t.Fatal("stale handle stopped the new occupant")
	}
	if err := l2.Run(); err != nil {
		t.Fatal(err)
	}
	if !heldRan {
		t.Fatal("new occupant did not run after a stale Stop attempt")
	}
}

// TestTimerStopDuringOwnCallback: stopping an event from inside its own
// callback is a no-op — the node was recycled before the callback began.
func TestTimerStopDuringOwnCallback(t *testing.T) {
	l := NewLoop()
	var tm Timer
	tm = l.Schedule(time.Millisecond, func() {
		if tm.Stop() {
			t.Error("Stop from inside the firing callback reported true")
		}
		if tm.Pending() {
			t.Error("Pending from inside the firing callback reported true")
		}
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTimerStopAfterLoopEnd: handles held past the end of the run are
// stale, whatever recycling happened meanwhile.
func TestTimerStopAfterLoopEnd(t *testing.T) {
	l := NewLoop()
	var timers []Timer
	for i := 0; i < 8; i++ {
		timers = append(timers, l.Schedule(time.Duration(i)*time.Millisecond, func() {}))
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	for i, tm := range timers {
		if tm.Stop() {
			t.Fatalf("timer %d: Stop after loop end reported true", i)
		}
		if tm.Pending() {
			t.Fatalf("timer %d: Pending after loop end reported true", i)
		}
	}
}

// TestTimerDoubleStopViaCopies: a Timer is a value; stopping through one
// copy stales every other copy.
func TestTimerDoubleStopViaCopies(t *testing.T) {
	l := NewLoop()
	a := l.Schedule(time.Millisecond, func() { t.Error("stopped event ran") })
	b := a
	if !a.Stop() {
		t.Fatal("first Stop should report true")
	}
	if b.Stop() {
		t.Fatal("Stop through a second copy should report false")
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroTimerInert: the zero value is safe to use.
func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Stop() || tm.Pending() {
		t.Fatal("zero Timer is not inert")
	}
}

// TestStopRemovesEntryInPlace: Stop idles the timer's leaf, and a fresh
// schedule keys the leaf of the node Stop freed, so re-arming k live timers
// any number of times keeps the pending set at k (k+1 while the fresh timer
// is armed before the old one stops), the arena and the high-water mark at
// k+1, and the tree at the 128 leaves that cover them.
func TestStopRemovesEntryInPlace(t *testing.T) {
	const k = 100
	l := NewLoop()
	cb := &countCall{}
	timers := make([]Timer, k)
	for i := range timers {
		timers[i] = l.ScheduleCall(time.Duration(i+1)*time.Second, cb)
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 10000; n++ {
		i := rng.Intn(k)
		fresh := l.ScheduleCall(time.Duration(1+rng.Intn(1000))*time.Second, cb)
		if !timers[i].Stop() {
			t.Fatalf("re-arm %d: Stop on a live timer reported false", n)
		}
		timers[i] = fresh
		if l.Len() != k {
			t.Fatalf("re-arm %d: Len() = %d, want %d", n, l.Len(), k)
		}
	}
	checkTree(t, l)
	c := l.Counters()
	if c.HeapPeak > k+1 || len(l.nodes) > k+1 || len(l.tree) != 2*128 {
		t.Fatalf("HeapPeak=%d, arena %d, %d tree leaves after 10000 re-arms of %d timers, want <= %d, <= %d, 128",
			c.HeapPeak, len(l.nodes), len(l.tree)/2, k, k+1, k+1)
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if cb.n != k {
		t.Fatalf("%d timers fired, want the %d live ones", cb.n, k)
	}
}

// TestRearmKeysEntryInPlace: Rearm re-keys a pending event's own leaf, so
// re-arming k live events any number of times keeps the pending set, its
// high-water mark and the arena at exactly k, never touches the free list,
// and leaves each re-arm's timer key in its node's leaf. Half the events
// start ranked, and Scheduled counts their arms and every re-arm.
func TestRearmKeysEntryInPlace(t *testing.T) {
	const k = 100
	l := NewLoop()
	cb := &countCall{}
	timers := make([]Timer, k)
	for i := range timers {
		at := Time(i+1) * Time(time.Second)
		if i%2 == 0 {
			timers[i] = l.AtCall(at, cb)
		} else {
			timers[i] = l.AtRanked(at, uint32(i), cb)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 10000; n++ {
		i := rng.Intn(k)
		old := timers[i]
		timers[i] = l.Rearm(old, time.Duration(1+rng.Intn(1000))*time.Second, cb)
		if old.Pending() || !timers[i].Pending() || timers[i].id != old.id {
			t.Fatalf("re-arm %d: old handle pending=%v, new pending=%v, node %d -> %d; want a fresh handle to the same node",
				n, old.Pending(), timers[i].Pending(), old.id, timers[i].id)
		}
		if l.Len() != k {
			t.Fatalf("re-arm %d: Len() = %d, want %d", n, l.Len(), k)
		}
		if leaf := l.tree[len(l.tree)/2+int(old.id)]; leaf.packed>>idBits != timerClass|(l.seq-1) {
			t.Fatalf("re-arm %d: node %d's leaf holds order %#x, want the re-arm's timer seq %d", n, old.id, leaf.packed>>idBits, l.seq-1)
		}
	}
	checkTree(t, l)
	c := l.Counters()
	if c.HeapPeak != k || len(l.nodes) != k || c.Recycled != 0 || c.Scheduled != k+10000 {
		t.Fatalf("HeapPeak=%d, arena %d, recycled %d, scheduled %d after 10000 re-arms of %d timers; want %d, %d, 0, %d",
			c.HeapPeak, len(l.nodes), c.Recycled, c.Scheduled, k, k, k, k+10000)
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if cb.n != k {
		t.Fatalf("%d timers fired, want the %d live ones", cb.n, k)
	}
}

// TestFirstScheduleInsideCallbackTakesTheRoot: an event that re-arms itself
// over other pending timers never pops: its first schedule re-keys the
// fired event's held leaf, on the same node, without a free-list round trip,
// and its key is the tree's winner again.
func TestFirstScheduleInsideCallbackTakesTheRoot(t *testing.T) {
	const others, events = 16, 10000
	l := NewLoop()
	idle := &countCall{}
	for i := 0; i < others; i++ {
		l.ScheduleCall(time.Hour+time.Duration(i), idle)
	}
	var chain Timer
	var step func()
	step = func() {
		if len(l.free) != 0 {
			t.Fatalf("event %d: free list holds %d nodes, want it untouched", l.Processed(), len(l.free))
		}
		next := l.Schedule(time.Microsecond, step)
		if next.id != chain.id {
			t.Fatalf("event %d: chain moved from node %d to node %d", l.Processed(), chain.id, next.id)
		}
		if l.held >= 0 || l.tree[1].id() != next.id {
			t.Fatalf("event %d: held = %d, winner node %d after the chain's schedule; want none held and node %d",
				l.Processed(), l.held, l.tree[1].id(), next.id)
		}
		chain = next
	}
	chain = l.Schedule(time.Microsecond, step)
	if err := l.RunUntil(Time(events * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	c := l.Counters()
	if c.Fired != events || c.Recycled != events {
		t.Fatalf("fired %d, recycled %d nodes, want %d and one per event", c.Fired, c.Recycled, events)
	}
	if len(l.nodes) != others+1 || len(l.free) != 0 || l.Len() != others+1 {
		t.Fatalf("arena %d, free %d, pending %d; want %d, 0, %d", len(l.nodes), len(l.free), l.Len(), others+1, others+1)
	}
	if idle.n != 0 {
		t.Fatalf("%d far timers fired", idle.n)
	}
}

// TestPoolRecyclesNodes: the arena must stop growing once the pending set
// stops growing — scheduling N sequential events reuses a bounded pool.
func TestPoolRecyclesNodes(t *testing.T) {
	l := NewLoop()
	cb := &countCall{}
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 10000 {
			l.Schedule(time.Microsecond, tick)
			l.ScheduleCall(time.Microsecond, cb)
		}
	}
	l.Schedule(0, tick)
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if len(l.nodes) > 8 {
		t.Fatalf("arena grew to %d nodes for a ~2-pending workload", len(l.nodes))
	}
	if cb.n != 9999 {
		t.Fatalf("callback ran %d times, want 9999", cb.n)
	}
}

// TestScheduleCallZeroAllocSteadyState is the allocation gate for the
// tentpole: once the arena is warm, scheduling and firing pre-bound
// callbacks allocates nothing.
func TestScheduleCallZeroAllocSteadyState(t *testing.T) {
	l := NewLoop()
	cb := &countCall{}
	// Warm the arena, the tree and the free list well past the test's
	// working set.
	var warm []Timer
	for i := 0; i < 64; i++ {
		warm = append(warm, l.ScheduleCall(time.Duration(i)*time.Microsecond, cb))
	}
	for _, tm := range warm {
		tm.Stop()
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}

	allocs := testing.AllocsPerRun(1000, func() {
		l.ScheduleCall(time.Microsecond, cb)
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ScheduleCall+Run allocates %.1f objects per event, want 0", allocs)
	}
}

// TestTimerResetZeroAlloc is the timer-reset gate: neither the stop and
// re-arm cycle nor the Rearm every TCP ACK performs may allocate.
func TestTimerResetZeroAlloc(t *testing.T) {
	l := NewLoop()
	cb := &countCall{}
	tm := l.ScheduleCall(time.Second, cb)
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Stop()
		tm = l.ScheduleCall(time.Second, cb)
	})
	if allocs != 0 {
		t.Fatalf("timer reset allocates %.1f objects, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		tm = l.Rearm(tm, time.Second, cb)
	})
	if allocs != 0 {
		t.Fatalf("Rearm allocates %.1f objects, want 0", allocs)
	}
}

// TestScheduleFuncZeroAllocNonCapturing: even the classic func() form is
// allocation-free for non-capturing closures (the compiler makes them
// static); only capturing closures pay.
func TestScheduleFuncZeroAllocNonCapturing(t *testing.T) {
	l := NewLoop()
	for i := 0; i < 8; i++ {
		l.Schedule(time.Microsecond, func() {})
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l.Schedule(time.Microsecond, func() {})
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("static func() schedule allocates %.1f objects, want 0", allocs)
	}
}

// TestLoopReleaseReusesStorage: Release hands a loop's arena and tree to the
// next NewLoop, which runs the reference program as a fresh loop does,
// allocates nothing but the Loop itself, and starts its tree with one leaf
// however far the arrays' last owner grew. sync.Pool may drop what it is
// handed (the race detector drops a quarter on purpose), so the test
// releases grown loops until a NewLoop draws one's arrays.
func TestLoopReleaseReusesStorage(t *testing.T) {
	const pending = 4096
	cb := &countCall{}
	for range 100 {
		big := NewLoop()
		for i := range pending {
			big.ScheduleCall(time.Duration(i), cb)
		}
		if err := big.Run(); err != nil {
			t.Fatal(err)
		}
		nodes, tree := cap(big.nodes), cap(big.tree)
		big.Release()

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		l := NewLoop()
		runtime.ReadMemStats(&after)
		if cap(l.nodes) < nodes || cap(l.tree) < tree {
			l.Release()
			continue
		}
		if n := after.Mallocs - before.Mallocs; n != 1 {
			t.Fatalf("NewLoop on released storage made %d allocations, want 1 (the Loop)", n)
		}
		if len(l.nodes) != 0 || len(l.free) != 0 || len(l.tree) != 2 || l.tree[1] != idle {
			t.Fatalf("NewLoop on released storage starts with %d nodes, %d free, %d tree slots; want 0, 0 and one idle leaf",
				len(l.nodes), len(l.free), len(l.tree))
		}
		var cases heldCases
		matchReference(t, l, 1, collisions, &cases)
		if k := len(l.tree) / 2; k < len(l.nodes) || 2*len(l.nodes) <= k {
			t.Fatalf("tree has %d leaves for an arena of %d nodes, want the least power of two covering it", k, len(l.nodes))
		}
		return
	}
	t.Fatal("NewLoop never drew a released loop's arrays")
}
