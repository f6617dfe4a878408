package sim

// Tests for ranked events: at one instant they run before every timer, in
// rank order, whatever order they were armed in — including when armed at
// the current instant, after a Timer.Stop and an arm under the same rank,
// and across runs interrupted within the instant.

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// nameCall records its name when it fires and then runs an optional
// continuation.
type nameCall struct {
	log  *[]string
	name string
	then func()
}

func (c *nameCall) Run(Time) {
	*c.log = append(*c.log, c.name)
	if c.then != nil {
		c.then()
	}
}

// TestRankedEventsRunInRankOrder arms eight ranked events and eight timers
// at one instant, interleaved in a random order: the ranked events run
// first, by rank, then the timers, in the order they were armed.
func TestRankedEventsRunInRankOrder(t *testing.T) {
	at := Time(time.Millisecond)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := NewLoop()
		var log, timers []string
		for _, r := range rng.Perm(8) {
			name := "t" + string(rune('a'+len(timers)))
			timers = append(timers, name)
			l.AtCall(at, &nameCall{log: &log, name: name})
			l.AtRanked(at, uint32(r), &nameCall{log: &log, name: "r" + string(rune('0'+r))})
		}
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		want := append([]string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7"}, timers...)
		if !slices.Equal(log, want) {
			t.Fatalf("seed %d: ran %v, want %v", seed, log, want)
		}
	}
}

// rankedScenario arms, for one instant, the timers t1 and t2 and the ranked
// events r9 and r5, in the order t1, r9, t2, r5. r5 runs first; it arms r2
// and the timer t3 at the current instant, stops r9 and arms rank 9 again
// for the same instant, then calls afterFirst. t1 arms r7 at the current
// instant. rankedOrder is the order the contract gives.
func rankedScenario(l *Loop, log *[]string, afterFirst func()) {
	at := Time(time.Millisecond)
	call := func(name string, then func()) *nameCall { return &nameCall{log: log, name: name, then: then} }
	l.AtCall(at, call("t1", func() { l.AtRanked(l.Now(), 7, call("r7", nil)) }))
	r9 := l.AtRanked(at, 9, call("r9", nil))
	l.AtCall(at, call("t2", nil))
	l.AtRanked(at, 5, call("r5", func() {
		l.AtRanked(l.Now(), 2, call("r2", nil))
		l.AtCall(l.Now(), call("t3", nil))
		if !r9.Stop() {
			panic("r9 not pending")
		}
		l.AtRanked(l.Now(), 9, call("r9 again", nil))
		if afterFirst != nil {
			afterFirst()
		}
	}))
}

var rankedOrder = []string{"r5", "r2", "r9 again", "t1", "r7", "t2", "t3"}

func TestRankedArmedAtCurrentInstantRunsInClassOrder(t *testing.T) {
	l := NewLoop()
	var log []string
	rankedScenario(l, &log, nil)
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(log, rankedOrder) {
		t.Fatalf("execution order %v, want %v", log, rankedOrder)
	}
	if l.Now() != Time(time.Millisecond) || l.Processed() != uint64(len(rankedOrder)) {
		t.Fatalf("now=%v processed=%d, want 1ms/%d", l.Now(), l.Processed(), len(rankedOrder))
	}
}

// TestRankedEventsSurviveInterruptedRun: Stop or the event limit hitting
// right after the first event must leave everything it armed and everything
// still due at the instant pending, in order, for the resumed run.
func TestRankedEventsSurviveInterruptedRun(t *testing.T) {
	resume := func(t *testing.T, l *Loop, log *[]string) {
		t.Helper()
		if len(*log) != 1 || l.Len() != 5 {
			t.Fatalf("interrupted: fired %v, %d pending; want [r5] and 5", *log, l.Len())
		}
		checkTree(t, l)
		l.SetEventLimit(0)
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(*log, rankedOrder) {
			t.Fatalf("resumed order %v, want %v", *log, rankedOrder)
		}
	}
	t.Run("stop", func(t *testing.T) {
		l := NewLoop()
		var log []string
		rankedScenario(l, &log, l.Stop)
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		resume(t, l, &log)
	})
	t.Run("event limit", func(t *testing.T) {
		l := NewLoop()
		var log []string
		rankedScenario(l, &log, nil)
		l.SetEventLimit(1)
		if err := l.Run(); !errors.Is(err, ErrEventLimit) {
			t.Fatalf("Run returned %v, want ErrEventLimit", err)
		}
		resume(t, l, &log)
	})
}

// TestRankedEventKeysItsClass: a ranked event stopped and armed again at a
// later instant sorts there by rank ahead of that instant's timers, and a
// ranked event re-armed through Rearm becomes a timer.
func TestRankedEventKeysItsClass(t *testing.T) {
	l := NewLoop()
	var log []string
	call := func(name string) *nameCall { return &nameCall{log: &log, name: name} }
	r3 := l.AtRanked(Time(1), 3, call("r3"))
	l.AtCall(Time(2), call("t1"))
	r4 := l.AtRanked(Time(1), 4, call("r4"))
	r3.Stop()
	l.AtRanked(Time(2), 3, call("r3 moved"))
	l.Rearm(r4, 2, call("r4 as a timer"))
	l.AtRanked(Time(2), 8, call("r8"))
	if leaf := l.tree[len(l.tree)/2+int(r4.id)]; leaf.packed>>idBits != timerClass|(l.seq-2) {
		t.Fatalf("re-armed ranked event's leaf holds order %#x, want the timer seq %d", leaf.packed>>idBits, l.seq-2)
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"r3 moved", "r8", "t1", "r4 as a timer"}; !slices.Equal(log, want) {
		t.Fatalf("execution order %v, want %v", log, want)
	}
}
