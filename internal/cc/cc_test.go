package cc

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mptcpsim/internal/sim"
)

const mss = 1400

func newFlow(id string, cwndPkts float64, rtt time.Duration) *Flow {
	return &Flow{
		MSS:      mss,
		Cwnd:     cwndPkts * mss,
		Ssthresh: 1 << 30,
		SRTT:     rtt,
		MinRTT:   rtt,
		ID:       id,
	}
}

func TestRegistry(t *testing.T) {
	names := []string{"balia", "cubic", "lia", "olia", "reno", "wvegas"}
	types := []string{"*cc.BALIA", "*cc.Cubic", "*cc.LIA", "*cc.OLIA", "*cc.Reno", "*cc.WVegas"}
	for i, name := range names {
		a, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if got := fmt.Sprintf("%T", a); got != types[i] {
			t.Fatalf("New(%q) = %s, want %s", name, got, types[i])
		}
	}
	// Names are exact: another spelling of a known name is as unknown as a
	// made-up one, and the error lists the names there are.
	for _, name := range []string{"bbr9000", "CUBIC", "Olia", ""} {
		_, err := New(name)
		if err == nil {
			t.Fatalf("New(%q) accepted", name)
		}
		if !strings.Contains(err.Error(), strings.Join(names, ", ")) {
			t.Fatalf("unknown-algorithm error %q does not list the six", err)
		}
	}
	// Instances must be independent (coupled state is per connection).
	a1, _ := New("lia")
	a2, _ := New("lia")
	f := newFlow("x", 10, 10*time.Millisecond)
	a1.Register(f, 0)
	if len(a2.(*LIA).flows) != 0 {
		t.Fatal("LIA instances share state")
	}
}

func TestSlowStartDoubling(t *testing.T) {
	f := newFlow("f", 10, 10*time.Millisecond)
	f.Ssthresh = 1e9
	r := &Reno{}
	// One RTT worth of ACKs: every segment acked.
	for i := 0; i < 10; i++ {
		r.OnAck(f, mss, 0)
	}
	if got := f.Cwnd / mss; math.Abs(got-20) > 0.01 {
		t.Fatalf("after 1 RTT of slow start cwnd = %.2f pkts, want 20", got)
	}
}

func TestSlowStartCrossoverIntoCA(t *testing.T) {
	f := newFlow("f", 10, 10*time.Millisecond)
	f.Ssthresh = 11 * mss
	r := &Reno{}
	r.OnAck(f, 4*mss, 0) // ABC caps at 2*MSS: 10 -> 11 (ssthresh), rest CA
	if f.Cwnd < f.Ssthresh-1 {
		t.Fatalf("cwnd %.1f below ssthresh %.1f after crossover", f.Cwnd/mss, f.Ssthresh/mss)
	}
	if f.InSlowStart() {
		t.Fatal("still in slow start after crossing ssthresh")
	}
}

func TestRenoCongestionAvoidanceLinear(t *testing.T) {
	f := newFlow("f", 10, 10*time.Millisecond)
	f.Ssthresh = f.Cwnd // start in CA
	r := &Reno{}
	// One RTT: ack cwnd worth of bytes in MSS chunks -> +1 MSS.
	for i := 0; i < 10; i++ {
		r.OnAck(f, mss, 0)
	}
	if got := f.Cwnd / mss; math.Abs(got-11) > 0.05 {
		t.Fatalf("CA growth = %.3f pkts, want ~11", got)
	}
}

func TestRenoLossHalves(t *testing.T) {
	f := newFlow("f", 20, 10*time.Millisecond)
	f.InFlight = 20 * mss
	r := &Reno{}
	r.OnLoss(f, 0)
	if math.Abs(f.Ssthresh-10*mss) > 1 {
		t.Fatalf("ssthresh = %.1f pkts, want 10", f.Ssthresh/mss)
	}
	r.OnRTO(f, 0)
	if f.Cwnd != mss {
		t.Fatalf("cwnd after RTO = %.1f pkts, want 1", f.Cwnd/mss)
	}
}

func TestSsthreshFloor(t *testing.T) {
	f := newFlow("f", 1, 10*time.Millisecond)
	f.InFlight = mss
	r := &Reno{}
	r.OnLoss(f, 0)
	if f.Ssthresh < 2*mss {
		t.Fatalf("ssthresh = %v below 2*MSS floor", f.Ssthresh)
	}
}

func TestCubicConcaveThenConvex(t *testing.T) {
	c := &Cubic{}
	f := newFlow("f", 100, 20*time.Millisecond)
	c.Register(f, 0)
	f.InFlight = int(f.Cwnd)
	c.OnLoss(f, 0) // W_max = 100, cwnd target after loss = 70
	f.Cwnd = f.Ssthresh
	f.Ssthresh = f.Cwnd // continue in CA

	// Feed ACKs over simulated time; K = cbrt((100-70)/0.4) ~ 4.2 s, so
	// drive for 10 s to cover both sides of the curve.
	now := sim.Time(0)
	var rates []float64
	prev := f.Cwnd
	for step := 0; step < 2000; step++ {
		now = now.Add(time.Millisecond * 5)
		c.OnAck(f, mss, now)
		if step%100 == 99 {
			rates = append(rates, (f.Cwnd-prev)/mss)
			prev = f.Cwnd
		}
	}
	if after := f.Cwnd / mss; after <= 100 {
		t.Fatalf("cubic never probed beyond W_max: %.1f", after)
	}
	// Growth rate should dip in the middle (concave approach to W_max)
	// and rise again (convex probing): min rate strictly inside.
	minIdx := 0
	for i, r := range rates {
		if r < rates[minIdx] {
			minIdx = i
		}
	}
	if minIdx == 0 || minIdx == len(rates)-1 {
		t.Fatalf("no concave/convex inflection: rates=%v", rates)
	}
}

func TestCubicFastConvergence(t *testing.T) {
	c := &Cubic{}
	f := newFlow("f", 100, 20*time.Millisecond)
	c.Register(f, 0)
	f.InFlight = int(f.Cwnd)
	c.OnLoss(f, 0)
	s := f.ctx.(*cubicState)
	first := s.wLastMax
	if math.Abs(first-100) > 0.1 {
		t.Fatalf("wLastMax = %v, want 100", first)
	}
	// Second loss below the previous max: fast convergence shrinks W_max.
	f.Cwnd = 80 * mss
	f.InFlight = int(f.Cwnd)
	c.OnLoss(f, 0)
	if s.wLastMax >= 80 {
		t.Fatalf("fast convergence failed: wLastMax = %v", s.wLastMax)
	}
}

func TestCubicBetaDecrease(t *testing.T) {
	c := &Cubic{}
	f := newFlow("f", 100, 20*time.Millisecond)
	c.Register(f, 0)
	f.InFlight = int(f.Cwnd)
	c.OnLoss(f, 0)
	if got := f.Ssthresh / mss; math.Abs(got-70) > 0.1 {
		t.Fatalf("ssthresh = %.1f pkts, want 70 (beta=0.7)", got)
	}
}

func TestLIAAlphaSinglePathEqualsReno(t *testing.T) {
	// With one flow, alpha = w * (w/r^2) / (w/r)^2 = 1: LIA == Reno.
	l := &LIA{}
	f := newFlow("f", 10, 10*time.Millisecond)
	l.Register(f, 0)
	alpha, _ := l.alpha()
	if math.Abs(alpha-1) > 1e-9 {
		t.Fatalf("single-path alpha = %v, want 1", alpha)
	}
	f.Ssthresh = f.Cwnd
	before := f.Cwnd
	l.OnAck(f, mss, 0)
	wantInc := float64(mss) * mss / before
	if math.Abs((f.Cwnd-before)-wantInc) > 1e-6 {
		t.Fatalf("increase = %v, want %v", f.Cwnd-before, wantInc)
	}
}

func TestLIAAlphaHandComputed(t *testing.T) {
	// Two flows, equal RTT 100ms: w1=10, w2=30 pkts.
	// alpha = total * max(w/r^2) / (sum w/r)^2
	//       = 40 * (30/0.01) / (400)^2 wait: use bytes consistently.
	l := &LIA{}
	rtt := 100 * time.Millisecond
	f1 := newFlow("1", 10, rtt)
	f2 := newFlow("2", 30, rtt)
	l.Register(f1, 0)
	l.Register(f2, 0)
	w1, w2 := f1.Cwnd, f2.Cwnd
	total := w1 + w2
	r := 0.1
	want := total * (w2 / (r * r)) / math.Pow(w1/r+w2/r, 2)
	alpha, tot := l.alpha()
	if math.Abs(tot-total) > 1e-9 || math.Abs(alpha-want) > 1e-9 {
		t.Fatalf("alpha = %v (total %v), want %v (%v)", alpha, tot, want, total)
	}
	// Equal RTTs: alpha = total*max(w)/sum^2 = 40*30/1600 = 0.75 in pkt
	// terms; verify numerically.
	if math.Abs(alpha-0.75) > 1e-9 {
		t.Fatalf("alpha = %v, want 0.75", alpha)
	}
}

func TestLIALessAggressiveThanUncoupled(t *testing.T) {
	// Coupled increase must never exceed the single-path Reno increase.
	l := &LIA{}
	rtt := 50 * time.Millisecond
	f1 := newFlow("1", 20, rtt)
	f2 := newFlow("2", 20, rtt)
	l.Register(f1, 0)
	l.Register(f2, 0)
	f1.Ssthresh, f2.Ssthresh = f1.Cwnd, f2.Cwnd
	before := f1.Cwnd
	l.OnAck(f1, mss, 0)
	liaInc := f1.Cwnd - before
	renoInc := float64(mss) * mss / before
	if liaInc > renoInc+1e-9 {
		t.Fatalf("LIA increase %v exceeds Reno %v", liaInc, renoInc)
	}
	if liaInc <= 0 {
		t.Fatal("LIA increase not positive")
	}
}

// alphas is the reference for alphaFor: the per-flow alphas of the OLIA
// increase, with the sets M (largest window) and B (largest l_r^2 / w_r)
// collected. Flows with alpha 0 are absent.
func (o *OLIA) alphas() map[*Flow]float64 {
	n := len(o.flows)
	out := make(map[*Flow]float64, n)
	if n == 0 {
		return out
	}
	const tol = 1.0001
	var maxW, maxQ float64
	for _, f := range o.flows {
		if f.Cwnd > maxW {
			maxW = f.Cwnd
		}
		l := interLoss(f)
		if q := l * l / math.Max(f.Cwnd, 1); q > maxQ {
			maxQ = q
		}
	}
	var m, collected []*Flow
	for _, f := range o.flows {
		inM := f.Cwnd*tol >= maxW
		l := interLoss(f)
		inB := (l*l/math.Max(f.Cwnd, 1))*tol >= maxQ
		if inB && !inM {
			collected = append(collected, f)
		}
		if inM {
			m = append(m, f)
		}
	}
	if len(collected) > 0 {
		for _, f := range collected {
			out[f] = 1 / (float64(n) * float64(len(collected)))
		}
		for _, f := range m {
			if _, dup := out[f]; !dup {
				out[f] = -1 / (float64(n) * float64(len(m)))
			}
		}
	}
	return out
}

// checkAlphaFor fails unless alphaFor agrees with the reference bit for bit.
func checkAlphaFor(t *testing.T, o *OLIA) {
	t.Helper()
	al := o.alphas()
	for _, f := range o.flows {
		if got := o.alphaFor(f); got != al[f] {
			t.Fatalf("alphaFor(%s) = %v, reference %v", f.ID, got, al[f])
		}
	}
}

func TestOLIAAlphaSets(t *testing.T) {
	o := &OLIA{}
	rtt := 50 * time.Millisecond
	f1 := newFlow("1", 30, rtt) // max window
	f2 := newFlow("2", 5, rtt)  // small window
	o.Register(f1, 0)
	o.Register(f2, 0)
	// Make f2 the "best path": huge inter-loss bytes.
	oliaStateOf(f1).l1 = 10 * mss
	oliaStateOf(f2).l1 = 500 * mss
	al := o.alphas()
	if al[f2] <= 0 {
		t.Fatalf("collected path alpha = %v, want positive", al[f2])
	}
	if al[f1] >= 0 {
		t.Fatalf("max-window path alpha = %v, want negative", al[f1])
	}
	// |alpha| = 1/(N*|set|) = 1/2 each here.
	if math.Abs(al[f2]-0.5) > 1e-9 || math.Abs(al[f1]+0.5) > 1e-9 {
		t.Fatalf("alphas = %v, want +0.5/-0.5", al)
	}
	// Alphas sum to ~0: reallocation, not net aggression.
	var sum float64
	for _, a := range al {
		sum += a
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("alpha sum = %v, want 0", sum)
	}
	checkAlphaFor(t, o)
}

func TestOLIAAlphaEmptyWhenBestIsBiggest(t *testing.T) {
	o := &OLIA{}
	rtt := 50 * time.Millisecond
	f1 := newFlow("1", 30, rtt)
	f2 := newFlow("2", 5, rtt)
	o.Register(f1, 0)
	o.Register(f2, 0)
	oliaStateOf(f1).l1 = 500 * mss // best AND biggest
	oliaStateOf(f2).l1 = 10 * mss
	al := o.alphas()
	if len(al) != 0 {
		t.Fatalf("alphas = %v, want empty (B subset of M)", al)
	}
	checkAlphaFor(t, o)
}

func TestOLIAWindowFloor(t *testing.T) {
	o := &OLIA{}
	rtt := 50 * time.Millisecond
	f1 := newFlow("1", 1.05, rtt)
	f2 := newFlow("2", 50, rtt)
	o.Register(f1, 0)
	o.Register(f2, 0)
	f1.Ssthresh, f2.Ssthresh = 1, 1 // both in CA
	oliaStateOf(f2).l1 = 1000 * mss
	oliaStateOf(f1).l1 = mss
	// f1 is in M? No - f2 has the max window; f1 gets no negative alpha
	// here, so force the worst case: make f1 the max-window path.
	f1.Cwnd, f2.Cwnd = 50*mss, 1.05*mss
	oliaStateOf(f1).l1 = mss
	oliaStateOf(f2).l1 = 1000 * mss
	for i := 0; i < 100000; i++ {
		o.OnAck(f1, mss, 0)
	}
	if f1.Cwnd < mss {
		t.Fatalf("OLIA drove window below 1 MSS: %v", f1.Cwnd/mss)
	}
}

func TestOLIALossRotatesInterLossCounters(t *testing.T) {
	o := &OLIA{}
	f := newFlow("1", 10, 50*time.Millisecond)
	o.Register(f, 0)
	o.OnAck(f, 5*mss, 0)
	s := oliaStateOf(f)
	if s.l1 != 5*mss {
		t.Fatalf("l1 = %v", s.l1)
	}
	f.InFlight = int(f.Cwnd)
	o.OnLoss(f, 0)
	if s.l2 != 5*mss || s.l1 != 0 {
		t.Fatalf("after loss l1=%v l2=%v, want 0 and %d", s.l1, s.l2, 5*mss)
	}
}

func TestBALIAIncreaseAndDecrease(t *testing.T) {
	b := &BALIA{}
	rtt := 50 * time.Millisecond
	f1 := newFlow("1", 10, rtt)
	f2 := newFlow("2", 30, rtt)
	b.Register(f1, 0)
	b.Register(f2, 0)
	f1.Ssthresh, f2.Ssthresh = f1.Cwnd, f2.Cwnd
	before := f1.Cwnd
	b.OnAck(f1, mss, 0)
	if f1.Cwnd <= before {
		t.Fatal("BALIA increase not positive")
	}
	// Decrease: alpha = max/x_r = 3 for f1 -> capped at 1.5 -> ssthresh =
	// w - w/2*1.5 = w/4.
	f1.Cwnd = 10 * mss
	f1.InFlight = int(f1.Cwnd)
	b.OnLoss(f1, 0)
	if math.Abs(f1.Ssthresh-2.5*mss) > 1 {
		t.Fatalf("BALIA ssthresh = %.2f pkts, want 2.5", f1.Ssthresh/mss)
	}
	// For the max-rate path alpha=1: decrease w/2.
	f2.Cwnd = 30 * mss
	f2.InFlight = int(f2.Cwnd)
	b.OnLoss(f2, 0)
	if math.Abs(f2.Ssthresh-15*mss) > 1 {
		t.Fatalf("BALIA max-path ssthresh = %.2f pkts, want 15", f2.Ssthresh/mss)
	}
}

// Property: no algorithm ever produces NaN/Inf or a window below 1 MSS
// floor guarantees (after its own OnLoss/OnAck sequences).
func TestQuickNoPathologicalWindows(t *testing.T) {
	algos := []string{"reno", "cubic", "lia", "olia", "balia", "wvegas"}
	f := func(seedRaw uint16, ops []bool) bool {
		for _, name := range algos {
			a, _ := New(name)
			f1 := newFlow("1", 2+float64(seedRaw%50), time.Duration(5+seedRaw%100)*time.Millisecond)
			f2 := newFlow("2", 2+float64(seedRaw%30), time.Duration(5+seedRaw%60)*time.Millisecond)
			a.Register(f1, 0)
			a.Register(f2, 0)
			f1.Ssthresh = f1.Cwnd * 2
			f2.Ssthresh = f2.Cwnd * 2
			now := sim.Time(0)
			for _, ack := range ops {
				now = now.Add(time.Millisecond)
				f1.InFlight = int(f1.Cwnd)
				if ack {
					a.OnAck(f1, mss, now)
				} else {
					a.OnLoss(f1, now)
					f1.Cwnd = f1.Ssthresh
				}
				for _, fl := range []*Flow{f1, f2} {
					if math.IsNaN(fl.Cwnd) || math.IsInf(fl.Cwnd, 0) || fl.Cwnd < 0.5*mss {
						return false
					}
					if math.IsNaN(fl.Ssthresh) || fl.Ssthresh < 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: coupled algorithms cap aggregate aggressiveness — on two equal
// paths, each path's CA increase is at most the uncoupled increase.
func TestQuickCoupledNotMoreAggressive(t *testing.T) {
	f := func(wRaw uint8, rttMs uint8) bool {
		w := 2 + float64(wRaw%60)
		rtt := time.Duration(5+int(rttMs%200)) * time.Millisecond
		for _, name := range []string{"lia", "olia"} {
			a, _ := New(name)
			f1 := newFlow("1", w, rtt)
			f2 := newFlow("2", w, rtt)
			a.Register(f1, 0)
			a.Register(f2, 0)
			f1.Ssthresh, f2.Ssthresh = f1.Cwnd, f2.Cwnd
			before := f1.Cwnd
			a.OnAck(f1, mss, 0)
			inc := f1.Cwnd - before
			reno := float64(mss) * mss / before
			if inc > reno*1.05 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUnregister(t *testing.T) {
	for _, name := range []string{"lia", "olia", "balia"} {
		a, _ := New(name)
		f1 := newFlow("1", 10, 10*time.Millisecond)
		f2 := newFlow("2", 10, 10*time.Millisecond)
		a.Register(f1, 0)
		a.Register(f2, 0)
		a.Unregister(f1)
		// Remaining flow must behave like a single path: LIA alpha == 1.
		if lia, ok := a.(*LIA); ok {
			alpha, _ := lia.alpha()
			if math.Abs(alpha-1) > 1e-9 {
				t.Fatalf("%s after Unregister alpha = %v", name, alpha)
			}
		}
		f2.Ssthresh = f2.Cwnd
		a.OnAck(f2, mss, 0) // must not panic
	}
}
