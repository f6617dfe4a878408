package sim

// Tests for reserved scheduling seqs: an event armed late through
// ReserveSeq + AtCallReserved must run exactly where a Schedule call made
// at reservation time would have put it — including at the current instant,
// ahead of pending same-instant events with later seqs.

import (
	"errors"
	"math/rand"
	"testing"
	"time"
)

// labelCall records its label when it fires and then runs an optional
// continuation.
type labelCall struct {
	log   *[]int64
	label int64
	then  func()
}

func (c *labelCall) Run(Time) {
	*c.log = append(*c.log, c.label)
	if c.then != nil {
		c.then()
	}
}

// burnSeqs issues n seqs on a throwaway time so a test can place events at
// chosen seq numbers.
func burnSeqs(l *Loop, n int) {
	for i := 0; i < n; i++ {
		l.At(End, func() {}).Stop()
	}
}

// reservedScenario builds the issue's case on l: chain A has frames #10 and
// #14 due at the same instant (only the head is armed), chain B has #16
// there too. Per-event scheduling would run 10, 14, 16.
func reservedScenario(l *Loop, log *[]int64, afterFirst func()) {
	at := Time(time.Millisecond)
	burnSeqs(l, 10)
	a10 := l.ReserveSeq()
	burnSeqs(l, 3)
	a14 := l.ReserveSeq()
	burnSeqs(l, 1)
	second := &labelCall{log: log, label: int64(a14)}
	first := &labelCall{log: log, label: int64(a10), then: func() {
		l.AtCallReserved(at, a14, second)
		if afterFirst != nil {
			afterFirst()
		}
	}}
	l.AtCallReserved(at, a10, first)
	l.AtCall(at, &labelCall{log: log, label: 16})
	if a10 != 10 || a14 != 14 {
		panic("scenario seqs drifted")
	}
}

func TestReservedSeqArmedAtCurrentInstantRunsInSeqOrder(t *testing.T) {
	l := NewLoop()
	var log []int64
	reservedScenario(l, &log, nil)
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if len(log) != 3 || log[0] != 10 || log[1] != 14 || log[2] != 16 {
		t.Fatalf("execution order %v, want [10 14 16]", log)
	}
	if l.Now() != Time(time.Millisecond) || l.Processed() != 3 {
		t.Fatalf("now=%v processed=%d, want 1ms/3", l.Now(), l.Processed())
	}
}

// TestReservedSeqSurvivesInterruptedRun: Stop or the event limit hitting
// right after the arming event must leave both the armed event and the
// later same-instant event pending, in order, for the resumed run.
func TestReservedSeqSurvivesInterruptedRun(t *testing.T) {
	t.Run("stop", func(t *testing.T) {
		l := NewLoop()
		var log []int64
		reservedScenario(l, &log, l.Stop)
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		if len(log) != 1 || l.Len() != 2 {
			t.Fatalf("after Stop: fired %v, %d pending; want [10] and 2", log, l.Len())
		}
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		if len(log) != 3 || log[1] != 14 || log[2] != 16 {
			t.Fatalf("resumed order %v, want [10 14 16]", log)
		}
	})
	t.Run("event limit", func(t *testing.T) {
		l := NewLoop()
		var log []int64
		reservedScenario(l, &log, nil)
		l.SetEventLimit(1)
		if err := l.Run(); !errors.Is(err, ErrEventLimit) {
			t.Fatalf("Run returned %v, want ErrEventLimit", err)
		}
		if len(log) != 1 || l.Len() != 2 {
			t.Fatalf("at the limit: fired %v, %d pending; want [10] and 2", log, l.Len())
		}
		l.SetEventLimit(0)
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		if len(log) != 3 || log[1] != 14 || log[2] != 16 {
			t.Fatalf("resumed order %v, want [10 14 16]", log)
		}
	})
}

// TestReservedChainsMatchPerEventScheduling is the kernel half of the
// per-packet vs per-link oracle: several FIFO chains whose members pile
// onto a handful of instants, interleaved with plain events that stop
// timers and spawn same-instant children. One loop schedules every chain
// member as its own event at creation; the other reserves the seq and keeps
// only each chain's head armed. The (label, time) execution sequences must
// be identical.
func TestReservedChainsMatchPerEventScheduling(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		run := func(perEvent bool) (log []fired, counters Counters) {
			rng := rand.New(rand.NewSource(seed))
			l := NewLoop()
			type pending struct {
				at    Time
				label int64
				seq   uint64 // reserved; unused when every member is its own event
			}
			chains := make([][]pending, 4)
			lastAt := make([]Time, len(chains))
			var label int64
			var fire func(c int) Callback
			record := func(lb int64) { log = append(log, fired{lb, l.Now()}) }
			fire = func(c int) Callback {
				return funcCallback(func() {
					head := chains[c][0]
					chains[c] = chains[c][1:]
					record(head.label)
					if !perEvent && len(chains[c]) > 0 {
						next := chains[c][0]
						l.AtCallReserved(next.at, next.seq, fire(c))
					}
				})
			}
			// add appends a member to chain c, due no earlier than the
			// chain's previous member (FIFO, equal instants allowed).
			add := func(c int) {
				at := l.Now() + Time(rng.Intn(3))
				if at < lastAt[c] {
					at = lastAt[c]
				}
				lastAt[c] = at
				label++
				if perEvent {
					chains[c] = append(chains[c], pending{at: at, label: label})
					l.AtCall(at, fire(c))
					return
				}
				seq := l.ReserveSeq()
				if len(chains[c]) == 0 {
					l.AtCallReserved(at, seq, fire(c))
				}
				chains[c] = append(chains[c], pending{at, label, seq})
			}
			budget := 2000
			var timers []Timer
			var plain func() func()
			plain = func() func() {
				label++
				lb := -label
				return func() {
					record(lb)
					for i, n := 0, rng.Intn(4); i < n && budget > 0; i++ {
						budget--
						switch rng.Intn(3) {
						case 0:
							timers = append(timers, l.Schedule(time.Duration(rng.Intn(3)), plain()))
						default:
							add(rng.Intn(len(chains)))
						}
					}
					if len(timers) > 0 && rng.Intn(4) == 0 {
						timers[rng.Intn(len(timers))].Stop()
					}
				}
			}
			for i := 0; i < 30; i++ {
				l.At(Time(rng.Intn(4)), plain())
			}
			if err := l.Run(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return log, l.Counters()
		}
		want, wantC := run(true)
		got, gotC := run(false)
		if len(got) != len(want) {
			t.Fatalf("seed %d: head-only arming fired %d events, per-event scheduling %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: execution diverged at step %d: head-only (label=%d at=%v), per-event (label=%d at=%v)",
					seed, i, got[i].label, got[i].at, want[i].label, want[i].at)
			}
		}
		if gotC.Scheduled != wantC.Scheduled || gotC.Fired != wantC.Fired {
			t.Fatalf("seed %d: scheduled/fired %d/%d, per-event %d/%d (Scheduled must count reserved seqs)",
				seed, gotC.Scheduled, gotC.Fired, wantC.Scheduled, wantC.Fired)
		}
		if gotC.HeapPeak > wantC.HeapPeak {
			t.Fatalf("seed %d: head-only heap peak %d above per-event %d", seed, gotC.HeapPeak, wantC.HeapPeak)
		}
	}
}

// TestAtCallReservedPanicsOnUnissuedSeq: a seq ReserveSeq never issued
// would collide with a later event's key.
func TestAtCallReservedPanicsOnUnissuedSeq(t *testing.T) {
	l := NewLoop()
	defer func() {
		if recover() == nil {
			t.Fatal("AtCallReserved armed a seq that was never issued")
		}
	}()
	l.AtCallReserved(0, l.ReserveSeq()+1, &countCall{})
}

// TestCountersWithReservedSeqs: Scheduled counts seqs issued, and every
// armed seq is served either by the free list or by arena growth.
func TestCountersWithReservedSeqs(t *testing.T) {
	l := NewLoop()
	cb := &countCall{}
	a := l.ReserveSeq()
	b := l.ReserveSeq()
	if c := l.Counters(); c.Scheduled != 2 || len(l.nodes) != 0 || c.Recycled != 0 {
		t.Fatalf("after two reservations: %+v, want 2 scheduled and an untouched arena", c)
	}
	l.AtCallReserved(Time(2), b, cb)
	l.AtCallReserved(Time(1), a, cb)
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	c := l.Counters()
	if c.Scheduled != 2 || c.Fired != 2 || c.Recycled+uint64(len(l.nodes)) != 2 {
		t.Fatalf("after the run: %+v, want 2 scheduled, 2 fired, recycled+arena = 2", c)
	}
}

// TestCountersWhenReservedSeqsAreRearmedOrAbandoned: a link stops its
// pending arrival and arms it again under the same seq when a mutator moves
// the frame, and never arms the seq of a frame that was dropped in the
// queue. Scheduled counts seqs, not armings; Recycled counts what the free
// list served, so neither a second arming nor a missing one skews it.
func TestCountersWhenReservedSeqsAreRearmedOrAbandoned(t *testing.T) {
	l := NewLoop()
	cb := &countCall{}
	moved := l.ReserveSeq()
	l.ReserveSeq() // abandoned: never armed
	plain := l.ReserveSeq()
	tm := l.AtCallReserved(Time(10), moved, cb)
	l.AtCallReserved(Time(20), plain, cb)
	var order []Time
	l.At(Time(5), func() { order = append(order, l.Now()) })
	if !tm.Stop() {
		t.Fatal("armed reserved event not pending")
	}
	// Re-armed at the instant of an event scheduled later: the reserved seq
	// is older, so it still runs first.
	tm = l.AtCallReserved(Time(5), moved, cb)
	if c := l.Counters(); c.Scheduled != 4 || len(l.nodes) != 3 || c.Recycled != 1 {
		t.Fatalf("after the re-arm: %+v, want 4 scheduled, 3 arena nodes, 1 recycled", c)
	}
	if err := l.RunUntil(Time(5)); err != nil {
		t.Fatal(err)
	}
	if cb.n != 1 || len(order) != 1 || tm.Pending() {
		t.Fatalf("at t=5: reserved event ran %d times, the later-scheduled event %d; want 1 and 1", cb.n, len(order))
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	c := l.Counters()
	if c.Scheduled != 4 || c.Fired != 3 || len(l.nodes) != 3 || c.Recycled != 1 || l.Len() != 0 {
		t.Fatalf("after the run: %+v, want 4 scheduled, 3 fired (one seq abandoned), 3 arena nodes, 1 recycled", c)
	}
}
