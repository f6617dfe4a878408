package sim

// Ordering tests: the observable execution order must be exactly the
// reference kernel's — strict (at, seq) order, one pop, one callback,
// repeat — across dense timestamp collisions, stops of later same-instant
// events, and runs interrupted within an instant (Stop / event limit).

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// refKernel is the reference: a sorted list popped strictly one event at a
// time, with (at, seq) total order and a stopped flag checked at pop — the
// semantics the kernel must be indistinguishable from.
type refKernel struct {
	events []*refKernelEv
	seq    uint64
	now    Time
}

type refKernelEv struct {
	at      Time
	seq     uint64
	label   int64
	stopped bool
}

func (k *refKernel) schedule(d time.Duration, label int64) *refKernelEv {
	e := &refKernelEv{at: k.now.Add(d), seq: k.seq, label: label}
	k.seq++
	i := sort.Search(len(k.events), func(i int) bool {
		a := k.events[i]
		return a.at > e.at || (a.at == e.at && a.seq > e.seq)
	})
	k.events = append(k.events, nil)
	copy(k.events[i+1:], k.events[i:])
	k.events[i] = e
	return e
}

func (k *refKernel) pop() *refKernelEv {
	for len(k.events) > 0 {
		e := k.events[0]
		k.events = k.events[1:]
		if e.stopped {
			continue
		}
		k.now = e.at
		return e
	}
	return nil
}

// fired is one observed execution, comparable across kernels.
type fired struct {
	label int64
	at    Time
}

// program derives each event's behaviour purely from (seed, label), so
// the real loop and the reference interpreter take identical decisions:
// spawn 0-2 children at delay 0-2 ns (delay 0 collides with the current
// instant), and sometimes stop an earlier-created event.
type program struct {
	seed   int64
	budget int
}

type progActions struct {
	childDelays []time.Duration
	stopLabel   int64 // -1: none
}

func (p *program) actions(label int64) progActions {
	rng := rand.New(rand.NewSource(p.seed*1000003 + label))
	a := progActions{stopLabel: -1}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		a.childDelays = append(a.childDelays, time.Duration(rng.Intn(3)))
	}
	if rng.Intn(3) == 0 && label > 0 {
		a.stopLabel = rng.Int63n(label)
	}
	return a
}

// TestOrderMatchesReferenceKernel runs the same randomized program — roots
// piled onto a handful of timestamps, handlers spawning same-instant
// children and stopping siblings — through the kernel and the reference,
// and requires the full (label, time) execution sequences to be identical.
func TestOrderMatchesReferenceKernel(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		prog := &program{seed: seed, budget: 3000}
		var gotLog, wantLog []fired

		// Real kernel.
		l := NewLoop()
		timers := make(map[int64]Timer)
		var nextLabel int64
		var handler func(label int64) func()
		handler = func(label int64) func() {
			return func() {
				gotLog = append(gotLog, fired{label, l.Now()})
				a := prog.actions(label)
				for _, d := range a.childDelays {
					if prog.budget <= 0 {
						break
					}
					prog.budget--
					lb := nextLabel
					nextLabel++
					timers[lb] = l.Schedule(d, handler(lb))
				}
				if a.stopLabel >= 0 {
					if tm, ok := timers[a.stopLabel]; ok {
						tm.Stop()
					}
				}
			}
		}
		rootRng := rand.New(rand.NewSource(seed))
		rootTimes := make([]Time, 40)
		for i := range rootTimes {
			rootTimes[i] = Time(rootRng.Intn(4)) // heavy same-instant collisions
			lb := nextLabel
			nextLabel++
			timers[lb] = l.At(rootTimes[i], handler(lb))
		}
		if err := l.Run(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		// Reference, same program.
		prog.budget = 3000
		ref := &refKernel{}
		refEvents := make(map[int64]*refKernelEv)
		var refNext int64
		for i := range rootTimes {
			ref.now = 0
			lb := refNext
			refNext++
			refEvents[lb] = ref.schedule(time.Duration(rootTimes[i]), lb)
		}
		ref.now = 0
		for e := ref.pop(); e != nil; e = ref.pop() {
			wantLog = append(wantLog, fired{e.label, e.at})
			a := prog.actions(e.label)
			for _, d := range a.childDelays {
				if prog.budget <= 0 {
					break
				}
				prog.budget--
				lb := refNext
				refNext++
				refEvents[lb] = ref.schedule(d, lb)
			}
			if a.stopLabel >= 0 {
				if re, ok := refEvents[a.stopLabel]; ok {
					re.stopped = true
				}
			}
		}

		if len(gotLog) != len(wantLog) {
			t.Fatalf("seed %d: kernel fired %d events, reference %d",
				seed, len(gotLog), len(wantLog))
		}
		for i := range gotLog {
			if gotLog[i] != wantLog[i] {
				t.Fatalf("seed %d: execution diverged at step %d: kernel (label=%d at=%v), reference (label=%d at=%v)",
					seed, i, gotLog[i].label, gotLog[i].at, wantLog[i].label, wantLog[i].at)
			}
		}
		if got, want := l.Processed(), uint64(len(wantLog)); got != want {
			t.Fatalf("seed %d: Processed()=%d, want %d (hashes fold the event count)", seed, got, want)
		}
	}
}

// TestEqualTimestampStress piles thousands of events onto a single
// instant, each spawning a same-instant child up to a cap: everything at
// t=1ms must run in scheduling order, and the whole cascade stays at one
// timestamp.
func TestEqualTimestampStress(t *testing.T) {
	l := NewLoop()
	const roots = 2000
	const spawnCap = 5000
	var order []int
	n := 0
	var spawn func(id int) func()
	spawn = func(id int) func() {
		return func() {
			order = append(order, id)
			if n < spawnCap {
				n++
				kid := roots + n
				l.Schedule(0, spawn(kid))
			}
			if l.Now() != Time(time.Millisecond) {
				t.Fatalf("event %d ran at %v, want 1ms", id, l.Now())
			}
		}
	}
	for i := 0; i < roots; i++ {
		l.At(Time(time.Millisecond), spawn(i))
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != roots+spawnCap {
		t.Fatalf("fired %d events, want %d", len(order), roots+spawnCap)
	}
	// Scheduling order == seq order == execution order.
	for i, id := range order[:roots] {
		if id != i {
			t.Fatalf("root %d fired at position %d", id, i)
		}
	}
	for i, id := range order[roots:] {
		if id != roots+i+1 {
			t.Fatalf("child %d fired at position %d", id, roots+i)
		}
	}
}

// TestStopLaterSameInstantEvent: an event stops a later event due at the
// same instant — it must not run or count, and a same-instant event
// scheduled meanwhile must still run, after the survivors.
func TestStopLaterSameInstantEvent(t *testing.T) {
	l := NewLoop()
	var order []string
	var tmC Timer
	l.Schedule(time.Millisecond, func() {
		order = append(order, "a")
		tmC.Stop() // c is due at this very instant
		l.Schedule(0, func() { order = append(order, "d") })
	})
	l.Schedule(time.Millisecond, func() { order = append(order, "b") })
	tmC = l.Schedule(time.Millisecond, func() { order = append(order, "c") })
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(order); got != 3 || order[0] != "a" || order[1] != "b" || order[2] != "d" {
		t.Fatalf("order = %v, want [a b d]", order)
	}
	if l.Len() != 0 {
		t.Fatalf("Len() = %d after drain, want 0", l.Len())
	}
	if l.Processed() != 3 {
		t.Fatalf("Processed() = %d, want 3 (the stopped event must not count)", l.Processed())
	}
}

// TestStopWithinInstantResumesInOrder: Stop() between two events of one
// instant leaves the rest pending, and a later run resumes exactly where
// the first broke off, in the original order.
func TestStopWithinInstantResumesInOrder(t *testing.T) {
	l := NewLoop()
	var order []string
	at := Time(time.Millisecond)
	l.At(at, func() { order = append(order, "a"); l.Stop() })
	l.At(at, func() { order = append(order, "b") })
	l.At(at, func() { order = append(order, "c") })
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 1 || order[0] != "a" {
		t.Fatalf("order after Stop = %v, want [a]", order)
	}
	if l.Len() != 2 {
		t.Fatalf("Len() = %d after Stop within the instant, want 2 pending", l.Len())
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[1] != "b" || order[2] != "c" {
		t.Fatalf("resumed order = %v, want [a b c]", order)
	}
}

// TestEventLimitWithinInstantResumesInOrder: the event limit can trip
// between two events of one instant; the rest must survive for a resumed
// run.
func TestEventLimitWithinInstantResumesInOrder(t *testing.T) {
	l := NewLoop()
	var order []int
	at := Time(time.Millisecond)
	for i := 0; i < 5; i++ {
		id := i
		l.At(at, func() { order = append(order, id) })
	}
	l.SetEventLimit(2)
	err := l.Run()
	if !errors.Is(err, ErrEventLimit) {
		t.Fatalf("Run returned %v, want ErrEventLimit", err)
	}
	if len(order) != 2 || order[0] != 0 || order[1] != 1 {
		t.Fatalf("order at limit = %v, want [0 1]", order)
	}
	if l.Len() != 3 {
		t.Fatalf("Len() = %d after the limit tripped within the instant, want 3", l.Len())
	}
	l.SetEventLimit(0)
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("order = %v, want sequential 0..4", order)
		}
	}
}
