package sim

import (
	"math/rand"
	"testing"
	"time"
)

// fuzzProgram reads a kernel program from fuzz input, one byte at a time,
// and zero once the input is used up: a handler that reads only zeros
// schedules nothing, so every program drains.
type fuzzProgram struct{ data []byte }

func (p *fuzzProgram) next() byte {
	if len(p.data) == 0 {
		return 0
	}
	b := p.data[0]
	p.data = p.data[1:]
	return b
}

// actions decodes one handler. A flags byte gives the number of children
// (bits 0–1), whether a stop comes before the first schedule (bit 2), a
// ranked event armed before the first schedule (bit 4) and a stop at all
// (bit 5); bit 3 is unused. Then come one byte per child's delay (0–3 ns,
// so instants collide), one giving the ranked event's rank (bits 0–1) and
// delay (bits 2–3, 0–3 ns), and one naming the stopped label among the
// older ones.
func (p *fuzzProgram) actions(label int64) progActions {
	f := p.next()
	a := progActions{stopLabel: -1, stopFirst: f&4 != 0, rank: -1}
	for range f & 3 {
		a.childDelays = append(a.childDelays, time.Duration(p.next()&3))
	}
	if f&16 != 0 {
		b := p.next()
		a.rank, a.rankDelay = int(b&3), time.Duration(b>>2&3)
	}
	if f&32 != 0 && label > 0 {
		a.stopLabel = int64(p.next()) % label
	}
	return a
}

// fuzzDrive interprets data on kernel k: up to four rounds, each scheduling
// up to seven roots from outside the loop and running to a deadline up to
// two nanoseconds in the past or five ahead, then a final round run to the
// end. The end of every round is logged as a step with label -1, at the
// clock's time and pending count.
func fuzzDrive(data []byte, k progKernel, run *progRun) {
	p := &fuzzProgram{data: data}
	run.actions = p.actions
	for round := p.next() % 4; ; round-- {
		for n := p.next() % 8; n > 0; n-- {
			k.spawn(time.Duration(p.next()&3), run.newLabel())
		}
		deadline := End
		if round > 0 {
			deadline = k.now() - 2 + Time(p.next()&7)
		}
		k.runUntil(deadline)
		n := k.pending()
		run.log = append(run.log, step{fired: fired{-1, k.now()}, lenBegin: n, lenEnd: n})
		if round == 0 {
			return
		}
	}
}

// FuzzEventOrder runs a program decoded from the input through the kernel
// and through the reference kernel: schedules, ranked events armed at and
// after the current instant (some sorting before the running event) and
// armed again under the same rank, stops before and after a handler's
// first schedule (the former with the fired key held), handlers that
// schedule nothing, and RunUntil to deadlines. The firing order, every Len() a handler and a round
// end see, and the clock at each round's end must be the reference's, and
// the tree invariant must hold around every handler.
func FuzzEventOrder(f *testing.F) {
	// Equal-timestamp ties: every root and child at the current instant,
	// handlers that spawn, stop and arm ranked events.
	f.Add([]byte{0, 7, 0, 0, 0, 0, 0, 0, 0, 0x3f, 0, 0, 0, 1, 0x3f, 0, 0, 0, 2, 0x1b, 0, 0, 0x2c, 3})
	f.Add([]byte{3, 5, 1, 1, 1, 1, 1, 4, 0x3e, 1, 1, 0, 0x1d, 1, 0x2b, 0, 0, 0, 5, 0x3f, 1, 1, 1, 2, 2, 6, 0x18})
	f.Add([]byte{1, 7, 0, 0, 0, 0, 0, 0, 0, 2, 0x27, 0, 0, 0, 6, 0x33, 0, 0, 4, 0x08, 0x10, 0x3f, 0, 0, 0, 1})
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		b := make([]byte, 96)
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l := NewLoop()
		lk := &loopKernel{t: t, l: l, timers: make(map[int64]Timer), cases: &heldCases{}}
		got := &progRun{k: lk, budget: 2000}
		lk.run = got
		fuzzDrive(data, lk, got)
		checkTree(t, l)

		rk := &refProgKernel{ref: &refKernel{}, events: make(map[int64]*refKernelEv)}
		want := &progRun{k: rk, budget: 2000}
		rk.run = want
		fuzzDrive(data, rk, want)

		if len(got.log) != len(want.log) {
			t.Fatalf("kernel logged %d steps, reference %d", len(got.log), len(want.log))
		}
		fired := 0
		for i := range got.log {
			if got.log[i] != want.log[i] {
				t.Fatalf("execution diverged at step %d: kernel %+v, reference %+v", i, got.log[i], want.log[i])
			}
			if got.log[i].label >= 0 {
				fired++
			}
		}
		if l.Processed() != uint64(fired) {
			t.Fatalf("Processed() = %d, want %d", l.Processed(), fired)
		}
		if l.Len() != 0 || l.held >= 0 {
			t.Fatalf("drained loop has Len()=%d held=%d", l.Len(), l.held)
		}
	})
}
