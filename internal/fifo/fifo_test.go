package fifo

import (
	"math/rand"
	"slices"
	"testing"
)

// TestQueueMatchesSlice drives random pushes, inserts and pops through a
// Queue and a plain slice and requires identical contents throughout.
func TestQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			q.Push(next)
			ref = append(ref, next)
			next++
		case op < 6:
			i := rng.Intn(len(ref) + 1)
			q.Insert(i, next)
			ref = slices.Insert(ref, i, next)
			next++
		case op < 7 && rng.Intn(8) == 0:
			n := rng.Intn(len(ref) + 1)
			q.Truncate(n)
			ref = ref[:n]
		default:
			n := rng.Intn(len(ref) + 1)
			if rng.Intn(4) > 0 {
				n = min(n, 2)
			}
			q.Pop(n)
			ref = ref[n:]
		}
		if q.Len() != len(ref) || !slices.Equal(q.Live(), ref) {
			t.Fatalf("step %d: queue %v, want %v", step, q.Live(), ref)
		}
		if len(ref) > 0 && *q.At(len(ref) - 1) != ref[len(ref)-1] {
			t.Fatalf("step %d: At(last) = %d, want %d", step, *q.At(len(ref) - 1), ref[len(ref)-1])
		}
	}
}

// TestQueueSlackBounded is the regression test for the scoreboard slack: a
// queue holding a steady few dozen elements must not drag a backing array
// sized for thousands, whatever the number that passed through it.
func TestQueueSlackBounded(t *testing.T) {
	var q Queue[[10]int64]
	const live = 50
	for i := 0; i < live; i++ {
		q.Push([10]int64{})
	}
	for i := 0; i < 100000; i++ {
		q.Push([10]int64{})
		q.Pop(1)
		if c := cap(q.buf); c > 8*live {
			t.Fatalf("after %d push/pop cycles at %d live elements the backing array holds %d slots", i, live, c)
		}
	}
}

// TestQueuePopReleasesReferences: retired slots must not pin what they
// pointed at.
func TestQueuePopReleasesReferences(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 4; i++ {
		q.Push(new(int))
	}
	q.Pop(2)
	for i, p := range q.buf[:q.head] {
		if p != nil {
			t.Fatalf("dead slot %d still holds a pointer", i)
		}
	}
}

func TestQueueZeroAllocSteadyState(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 64; i++ {
		q.Push(i)
	}
	if a := testing.AllocsPerRun(1000, func() {
		q.Push(1)
		q.Pop(1)
	}); a != 0 {
		t.Fatalf("steady push/pop allocates %v times per cycle", a)
	}
}

func BenchmarkPushPop(b *testing.B) {
	type frame struct {
		p   *int
		at  int64
		seq uint64
	}
	var q Queue[frame]
	for i := 0; i < 100; i++ {
		q.Push(frame{})
	}
	b.ReportAllocs()
	for b.Loop() {
		q.Push(frame{at: 1})
		q.Pop(1)
	}
}

// TestDetachAdopt: Detach hands over the whole backing array and leaves an
// empty queue; a queue that adopts an array pushes into it.
func TestDetachAdopt(t *testing.T) {
	var q Queue[int]
	q.Adopt(make([]int, 0, 8))
	for i := range 5 {
		q.Push(i)
	}
	q.Pop(2)
	buf := q.Detach()
	if q.Len() != 0 || q.buf != nil || q.head != 0 {
		t.Fatalf("after Detach the queue holds %v from %d", q.buf, q.head)
	}
	if cap(buf) != 8 || !slices.Equal(buf, []int{0, 0, 2, 3, 4}) {
		t.Fatalf("Detach returned %v (cap %d), want the 8-slot array with the popped slots zeroed", buf, cap(buf))
	}
}

// TestPoolPutClears: whatever array Get hands back is empty and holds no
// pointer of its last owner, in any slot. sync.Pool may drop what it is
// handed (the race detector drops a quarter on purpose), so the test offers
// arrays until one comes back.
func TestPoolPutClears(t *testing.T) {
	var p Pool[*int]
	if s := p.Get(4); len(s) != 0 || cap(s) != 4 {
		t.Fatalf("an empty pool's Get(4) = len %d cap %d, want a new empty slice of capacity 4", len(s), cap(s))
	}
	for range 100 {
		s := make([]*int, 3, 6)
		for i := range s[:cap(s)] {
			s[:cap(s)][i] = new(int)
		}
		p.Put(s)
		got := p.Get(0)
		if cap(got) == 0 {
			continue
		}
		if len(got) != 0 || cap(got) != 6 {
			t.Fatalf("Get returned len %d cap %d, want the 6-slot array emptied", len(got), cap(got))
		}
		for i, v := range got[:cap(got)] {
			if v != nil {
				t.Fatalf("slot %d of a pooled array still points at its last owner's data", i)
			}
		}
		return
	}
	t.Fatal("the pool never handed an array back")
}

// TestPoolCycleZeroAlloc: once warm, a Get/Put cycle reuses both the array
// and its box, so it allocates nothing; a Put that boxed its array afresh
// would cost one allocation every cycle. Under the race detector sync.Pool
// drops a quarter of what it is handed on purpose, and a dropped array or
// box is made again, but AllocsPerRun truncates the mean to a whole count,
// so those misses still read 0.
func TestPoolCycleZeroAlloc(t *testing.T) {
	var p Pool[int]
	p.Put(make([]int, 0, 8))
	allocs := testing.AllocsPerRun(1000, func() {
		p.Put(p.Get(8))
	})
	if allocs != 0 {
		t.Fatalf("a warm Get/Put cycle allocates %.0f objects, want 0", allocs)
	}
}
