package sim

// Benchmarks for the kernel's dev loop: the two per-event shapes the
// simulator's hot path is made of, and the set-up of a random stream that
// every run pays several times. Run them with
//
//	go test -run '^$' -bench . ./internal/sim

import (
	"fmt"
	"testing"
	"time"
)

// rearmer schedules itself again at a pseudo-random later time every time it
// fires, so the pending set keeps its size; it stops the loop after left
// firings.
type rearmer struct {
	l    *Loop
	x    uint32
	left int
}

func (r *rearmer) delay() time.Duration {
	r.x = r.x*1664525 + 1013904223
	return time.Duration(1 + r.x>>12)
}

func (r *rearmer) Run(Time) {
	if r.left--; r.left <= 0 {
		r.l.Stop()
		return
	}
	r.l.ScheduleCall(r.delay(), r)
}

// BenchmarkSelfReschedule is a link's arrival chain: every event's only
// schedule re-arms it, over a constant number of pending events.
func BenchmarkSelfReschedule(b *testing.B) {
	for _, pending := range []int{16, 256, 4096} {
		b.Run(fmt.Sprint(pending), func(b *testing.B) {
			l := NewLoop()
			r := &rearmer{l: l, x: 1, left: b.N}
			for i := 0; i < pending; i++ {
				l.ScheduleCall(r.delay(), r)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := l.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// ackClocker is TCP's per-ACK timer work: stop the retransmission timer,
// re-arm it far out (it never fires), then schedule the next ACK close by.
type ackClocker struct {
	l    *Loop
	rto  Timer
	idle countCall
	left int
}

func (a *ackClocker) Run(Time) {
	if a.left--; a.left <= 0 {
		a.l.Stop()
		return
	}
	a.rto.Stop()
	a.rto = a.l.ScheduleCall(200*time.Millisecond, &a.idle)
	a.l.ScheduleCall(100*time.Microsecond, a)
}

// BenchmarkAckClock times Stop + far re-arm + near re-arm per event.
func BenchmarkAckClock(b *testing.B) {
	l := NewLoop()
	a := &ackClocker{l: l, left: b.N}
	l.ScheduleCall(0, a)
	b.ReportAllocs()
	b.ResetTimer()
	if err := l.Run(); err != nil {
		b.Fatal(err)
	}
}

// randSink keeps BenchmarkRandFork's draws live.
var randSink int64

// BenchmarkRandFork times a component's stream as a run sets one up and
// hands it back: Fork it from the run's stream, take its first 8 draws, and
// release both streams as the run's end does, so each iteration reuses the
// registers the last one released.
func BenchmarkRandFork(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRand(int64(i))
		c := r.Fork()
		for range 8 {
			randSink += c.Int63()
		}
		r.Release()
	}
}
