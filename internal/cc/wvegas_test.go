package cc

import (
	"fmt"
	"math"
	"testing"
	"time"

	"mptcpsim/internal/sim"
)

func TestWVegasRegistered(t *testing.T) {
	a, err := New("wvegas")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%T", a); got != "*cc.WVegas" {
		t.Fatalf(`New("wvegas") = %s`, got)
	}
}

func TestWVegasAlphaSplitsByRate(t *testing.T) {
	v := NewWVegas()
	rtt := 20 * time.Millisecond
	f1 := newFlow("1", 10, rtt) // rate 500 pkt/s
	f2 := newFlow("2", 30, rtt) // rate 1500 pkt/s
	v.Register(f1, 0)
	v.Register(f2, 0)
	a1, a2 := v.alphaFor(f1), v.alphaFor(f2)
	// Proportional to rate: a2 = 3*a1; both sum to TotalAlpha.
	if math.Abs(a2/a1-3) > 1e-9 {
		t.Fatalf("alpha ratio = %v, want 3", a2/a1)
	}
	if math.Abs(a1+a2-v.TotalAlpha) > 1e-9 {
		t.Fatalf("alpha sum = %v, want %v", a1+a2, v.TotalAlpha)
	}
}

func TestWVegasAlphaFloor(t *testing.T) {
	v := NewWVegas()
	rtt := 20 * time.Millisecond
	tiny := newFlow("tiny", 0.1, rtt)
	big := newFlow("big", 1000, rtt)
	v.Register(tiny, 0)
	v.Register(big, 0)
	if a := v.alphaFor(tiny); a < 1 {
		t.Fatalf("tiny path alpha = %v, want >= 1", a)
	}
}

func TestWVegasBacklogEstimate(t *testing.T) {
	v := NewWVegas()
	f := newFlow("f", 20, 20*time.Millisecond)
	v.Register(f, 0)
	s := wvegasStateOf(f)
	s.baseRTT = 10 * time.Millisecond // half the current RTT -> backlog half the window
	if d := v.diffPkts(f); math.Abs(d-10) > 1e-9 {
		t.Fatalf("diff = %v pkts, want 10", d)
	}
	// No queueing: no backlog.
	s.baseRTT = 20 * time.Millisecond
	if d := v.diffPkts(f); d != 0 {
		t.Fatalf("diff = %v, want 0", d)
	}
}

func TestWVegasDecreasesWhenOverTarget(t *testing.T) {
	v := NewWVegas()
	rtt := 20 * time.Millisecond
	f := newFlow("f", 40, rtt)
	f.Ssthresh = f.Cwnd // congestion avoidance
	v.Register(f, 0)
	s := wvegasStateOf(f)
	s.baseRTT = 5 * time.Millisecond // large backlog: 40*(1-0.25) = 30 >> 10
	f.MinRTT = s.baseRTT
	before := f.Cwnd
	// One adjustment after an RTT has elapsed.
	v.OnAck(f, mss, sim.Time(25*time.Millisecond))
	if f.Cwnd >= before {
		t.Fatalf("cwnd should shrink over target: %v -> %v", before/mss, f.Cwnd/mss)
	}
}

func TestWVegasIncreasesWhenUnderTarget(t *testing.T) {
	v := NewWVegas()
	rtt := 20 * time.Millisecond
	f := newFlow("f", 10, rtt)
	f.Ssthresh = f.Cwnd
	v.Register(f, 0)
	s := wvegasStateOf(f)
	s.baseRTT = 20 * time.Millisecond // no backlog
	f.MinRTT = s.baseRTT
	before := f.Cwnd
	v.OnAck(f, mss, sim.Time(25*time.Millisecond))
	if f.Cwnd <= before {
		t.Fatalf("cwnd should grow under target: %v -> %v", before/mss, f.Cwnd/mss)
	}
}

func TestWVegasPacedOncePerRTT(t *testing.T) {
	v := NewWVegas()
	rtt := 20 * time.Millisecond
	f := newFlow("f", 10, rtt)
	f.Ssthresh = f.Cwnd
	v.Register(f, 0)
	s := wvegasStateOf(f)
	s.baseRTT = rtt
	f.MinRTT = rtt
	// Two ACKs within one RTT: at most one adjustment.
	v.OnAck(f, mss, sim.Time(25*time.Millisecond))
	w1 := f.Cwnd
	v.OnAck(f, mss, sim.Time(26*time.Millisecond))
	if f.Cwnd != w1 {
		t.Fatal("adjusted twice within one RTT")
	}
}

func TestWVegasWindowFloor(t *testing.T) {
	v := NewWVegas()
	rtt := 20 * time.Millisecond
	f := newFlow("f", 2.2, rtt)
	f.Ssthresh = f.Cwnd
	v.Register(f, 0)
	s := wvegasStateOf(f)
	s.baseRTT = time.Millisecond // huge backlog signal
	f.MinRTT = s.baseRTT
	now := sim.Time(25 * time.Millisecond)
	for i := 0; i < 50; i++ {
		now = now.Add(25 * time.Millisecond)
		v.OnAck(f, mss, now)
	}
	if f.Cwnd < 2*mss {
		t.Fatalf("cwnd fell below 2 MSS floor: %v", f.Cwnd/mss)
	}
}
