package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestLoopRunsEventsInTimeOrder(t *testing.T) {
	l := NewLoop()
	var got []int
	l.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	l.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	l.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if l.Now() != Time(30*time.Millisecond) {
		t.Fatalf("Now = %v, want 30ms", l.Now())
	}
}

func TestLoopTieBreaksByScheduleOrder(t *testing.T) {
	l := NewLoop()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		l.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want ascending", got)
		}
	}
}

func TestScheduleInsideEvent(t *testing.T) {
	l := NewLoop()
	var fired []Time
	l.Schedule(time.Millisecond, func() {
		fired = append(fired, l.Now())
		l.Schedule(2*time.Millisecond, func() {
			fired = append(fired, l.Now())
		})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[0] != Time(time.Millisecond) || fired[1] != Time(3*time.Millisecond) {
		t.Fatalf("fired = %v", fired)
	}
}

func TestTimerStop(t *testing.T) {
	l := NewLoop()
	ran := false
	tm := l.Schedule(time.Millisecond, func() { ran = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Stop() {
		t.Fatal("Stop should report true for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("stopped timer fired")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	l := NewLoop()
	tm := l.Schedule(time.Millisecond, func() {})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if tm.Stop() {
		t.Fatal("Stop after firing should report false")
	}
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
}

func TestStopInterleavedWithHeap(t *testing.T) {
	// Cancel a timer in the middle of the pending set and check the rest still run.
	l := NewLoop()
	var got []int
	var timers []Timer
	for i := 0; i < 5; i++ {
		i := i
		timers = append(timers, l.Schedule(time.Duration(i+1)*time.Millisecond, func() { got = append(got, i) }))
	}
	timers[2].Stop()
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	l := NewLoop()
	ran := false
	l.Schedule(100*time.Millisecond, func() { ran = true })
	if err := l.RunUntil(Time(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if ran {
		t.Fatal("future event ran early")
	}
	if l.Now() != Time(50*time.Millisecond) {
		t.Fatalf("Now = %v, want 50ms", l.Now())
	}
	if err := l.RunUntil(Time(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("event did not run")
	}
	if l.Now() != Time(200*time.Millisecond) {
		t.Fatalf("Now = %v, want 200ms", l.Now())
	}
}

// TestRunUntilPastDeadlineKeepsClock: a deadline before Now() runs nothing
// and must not rewind the clock, with or without pending events.
func TestRunUntilPastDeadlineKeepsClock(t *testing.T) {
	l := NewLoop()
	ran := false
	l.Schedule(100*time.Millisecond, func() { ran = true })
	if err := l.RunUntil(Time(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if err := l.RunUntil(Time(5 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if l.Now() != Time(20*time.Millisecond) {
		t.Fatalf("Now = %v after RunUntil(5ms), want 20ms (clock rewound)", l.Now())
	}
	if ran || l.Len() != 1 {
		t.Fatalf("ran=%v Len=%d, want the 100ms event still pending", ran, l.Len())
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran || l.Now() != Time(100*time.Millisecond) {
		t.Fatalf("ran=%v Now=%v, want the event to run at 100ms", ran, l.Now())
	}
}

// TestStopBeforeDeadlineKeepsClock: Stop() inside RunUntil(deadline) must
// not advance the clock to the deadline past events that are still pending.
func TestStopBeforeDeadlineKeepsClock(t *testing.T) {
	l := NewLoop()
	var fired []Time
	l.Schedule(time.Millisecond, func() { fired = append(fired, l.Now()); l.Stop() })
	l.Schedule(2*time.Millisecond, func() { fired = append(fired, l.Now()) })
	if err := l.RunUntil(Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if l.Now() != Time(time.Millisecond) {
		t.Fatalf("Now = %v after Stop, want 1ms (the 2ms event is still pending)", l.Now())
	}
	if err := l.RunUntil(Time(10 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 2 || fired[1] != Time(2*time.Millisecond) || l.Now() != Time(10*time.Millisecond) {
		t.Fatalf("fired=%v Now=%v, want [1ms 2ms] and 10ms", fired, l.Now())
	}
}

func TestLoopStop(t *testing.T) {
	l := NewLoop()
	count := 0
	for i := 1; i <= 10; i++ {
		l.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				l.Stop()
			}
		})
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3 (Stop should halt the loop)", count)
	}
}

func TestEventLimit(t *testing.T) {
	l := NewLoop()
	l.SetEventLimit(5)
	var tick func()
	tick = func() { l.Schedule(time.Millisecond, tick) }
	l.Schedule(0, tick)
	err := l.Run()
	if err == nil {
		t.Fatal("expected event-limit error")
	}
}

func TestPastScheduleClamps(t *testing.T) {
	l := NewLoop()
	l.Schedule(10*time.Millisecond, func() {
		l.At(Time(1*time.Millisecond), func() {
			if l.Now() != Time(10*time.Millisecond) {
				t.Errorf("past event ran at %v, want clamped to 10ms", l.Now())
			}
		})
	})
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	// Two loops fed the same randomized schedule execute identically.
	run := func(seed int64) []int {
		l := NewLoop()
		rng := rand.New(rand.NewSource(seed))
		var got []int
		for i := 0; i < 200; i++ {
			i := i
			l.Schedule(time.Duration(rng.Intn(50))*time.Millisecond, func() { got = append(got, i) })
		}
		if err := l.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTimeHelpers(t *testing.T) {
	tm := Time(0).Add(1500 * time.Millisecond)
	if tm.Seconds() != 1.5 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
	if tm.Sub(Time(0).Add(time.Second)) != 500*time.Millisecond {
		t.Fatalf("Sub wrong")
	}
	if tm.String() != "1.5s" {
		t.Fatalf("String = %q", tm.String())
	}
	if End.String() != "end" {
		t.Fatalf("End.String = %q", End.String())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the clock never moves backwards.
func TestQuickEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		l := NewLoop()
		var times []Time
		for _, d := range delays {
			l.Schedule(time.Duration(d)*time.Microsecond, func() {
				times = append(times, l.Now())
			})
		}
		if err := l.Run(); err != nil {
			return false
		}
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandForkIndependence(t *testing.T) {
	a := NewRand(7).Fork()
	b := NewRand(7).Fork()
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("forks of identical parents should match")
		}
	}
	c := NewRand(7)
	c.Int63() // advance parent before forking
	d := c.Fork()
	same := true
	e := NewRand(7).Fork()
	for i := 0; i < 10; i++ {
		if d.Int63() != e.Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("fork after advancing parent should differ")
	}
}

func TestRandBool(t *testing.T) {
	r := NewRand(3)
	if r.Bool(0) {
		t.Fatal("Bool(0) must be false")
	}
	if !r.Bool(1) {
		t.Fatal("Bool(1) must be true")
	}
	n := 0
	for i := 0; i < 10000; i++ {
		if r.Bool(0.3) {
			n++
		}
	}
	if n < 2700 || n > 3300 {
		t.Fatalf("Bool(0.3) hit %d/10000, want ~3000", n)
	}
}

func TestRunUntilBeforeAnyEvent(t *testing.T) {
	l := NewLoop()
	l.Schedule(time.Hour, func() { t.Fatal("should not run") })
	if err := l.RunUntil(Time(time.Minute)); err != nil {
		t.Fatal(err)
	}
	if l.Now() != Time(time.Minute) {
		t.Fatalf("Now = %v", l.Now())
	}
	if l.Len() != 1 {
		t.Fatalf("pending events = %d", l.Len())
	}
}

func TestProcessedCounter(t *testing.T) {
	l := NewLoop()
	for i := 0; i < 5; i++ {
		l.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", l.Processed())
	}
}

func TestStopThenResume(t *testing.T) {
	l := NewLoop()
	ran := 0
	l.Schedule(time.Millisecond, func() { ran++; l.Stop() })
	l.Schedule(2*time.Millisecond, func() { ran++ })
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("ran = %d after Stop", ran)
	}
	// A fresh Run resumes the remaining queue.
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("ran = %d after resume", ran)
	}
}
