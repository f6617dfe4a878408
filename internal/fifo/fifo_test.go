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
