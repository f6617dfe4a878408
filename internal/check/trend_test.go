package check

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"mptcpsim"
)

// TestNewLadderDeterministic: ladders are a pure function of
// (base, index, steps) — the replay contract for a failing ladder.
func TestNewLadderDeterministic(t *testing.T) {
	for _, idx := range []int{0, 1, 2, 3, 7} {
		a, b := NewLadder(7, idx, 3), NewLadder(7, idx, 3)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("ladder (7,%d,3): not deterministic", idx)
		}
	}
}

func TestNewLadderRejectsZeroSteps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLadder(1, 0, 0) did not panic")
		}
	}()
	NewLadder(1, 0, 0)
}

// TestLadderShapes drives NewLadder across several batches and verifies
// the structural contract of every ladder: the knob rotation, monotone
// values, the perturbation applied to exactly one link, event stripping,
// and the Exclusive/Dynamic metadata. It also requires the batches to
// cover both exclusive and shared links, static and dynamic rungs, and a
// stripped-events case, so every policy branch has real instances.
func TestLadderShapes(t *testing.T) {
	const steps = 3
	var exclusive, shared, dynamic, static, stripped int
	hop := func(a, b string) [2]string {
		if a > b {
			a, b = b, a
		}
		return [2]string{a, b}
	}
	for base := int64(1); base <= 3; base++ {
		for idx := 0; idx < 24; idx++ {
			ld := NewLadder(base, idx, steps)
			if ld.Knob != Knobs[idx%len(Knobs)] {
				t.Fatalf("(%d,%d): knob %s, want %s", base, idx, ld.Knob, Knobs[idx%len(Knobs)])
			}
			if len(ld.Rungs) != steps+1 || len(ld.Values) != steps+1 {
				t.Fatalf("(%d,%d): %d rungs / %d values, want %d", base, idx, len(ld.Rungs), len(ld.Values), steps+1)
			}
			onOrder := false
			for _, p := range ld.Base.Options.SubflowPaths {
				onOrder = onOrder || p == ld.Path
			}
			if !onOrder {
				t.Fatalf("(%d,%d): perturbed path %d not in active order %v", base, idx, ld.Path, ld.Base.Options.SubflowPaths)
			}
			up := ld.Knob != KnobRateDown
			for k := 1; k <= steps; k++ {
				if up && ld.Values[k] < ld.Values[k-1] || !up && ld.Values[k] > ld.Values[k-1] {
					t.Fatalf("(%d,%d): values %v not monotone for %s", base, idx, ld.Values, ld.Knob)
				}
			}
			if ld.Values[0] == ld.Values[steps] {
				t.Fatalf("(%d,%d): values %v never move", base, idx, ld.Values)
			}

			key := hop(ld.LinkA, ld.LinkB)
			base0 := ld.Rungs[0].Scenario
			for k, rsp := range ld.Rungs {
				f := rsp.Scenario
				if ld.Dynamic != (len(f.Events) > 0) {
					t.Fatalf("(%d,%d) rung %d: Dynamic=%t but %d events", base, idx, k, ld.Dynamic, len(f.Events))
				}
				for _, ev := range f.Events {
					if hop(ev.A, ev.B) == key {
						t.Fatalf("(%d,%d) rung %d: event still targets the perturbed link %s-%s", base, idx, k, ld.LinkA, ld.LinkB)
					}
				}
				found := false
				for li, l := range f.Links {
					cur, ref := l, base0.Links[li]
					if hop(l.A, l.B) == key {
						found = true
						got := map[string]float64{
							KnobLossUp: l.Loss, KnobDelayUp: l.DelayMs,
							KnobRateDown: l.Mbps, KnobRateUp: l.Mbps,
						}[ld.Knob]
						if got != ld.Values[k] {
							t.Fatalf("(%d,%d) rung %d: perturbed field = %v, want %v", base, idx, k, got, ld.Values[k])
						}
						continue
					}
					if cur != ref {
						t.Fatalf("(%d,%d) rung %d: untouched link %s-%s changed: %+v vs %+v", base, idx, k, l.A, l.B, cur, ref)
					}
				}
				if !found {
					t.Fatalf("(%d,%d) rung %d: perturbed link %s-%s not in scenario", base, idx, k, ld.LinkA, ld.LinkB)
				}
			}

			// Recompute exclusivity from the rung topology and the active
			// order; the metadata must agree.
			crossing := 0
			for _, p := range ld.Base.Options.SubflowPaths {
				nodes := base0.Paths[p-1].Nodes
				for i := 1; i < len(nodes); i++ {
					if hop(nodes[i-1], nodes[i]) == key {
						crossing++
						break
					}
				}
			}
			if ld.Exclusive != (crossing == 1) {
				t.Fatalf("(%d,%d): Exclusive=%t but %d active paths cross %s-%s", base, idx, ld.Exclusive, crossing, ld.LinkA, ld.LinkB)
			}
			if ld.Coupled != coupledCC(ld.Base.Options.CC) {
				t.Fatalf("(%d,%d): Coupled=%t for cc=%s", base, idx, ld.Coupled, ld.Base.Options.CC)
			}

			if ld.Exclusive {
				exclusive++
			} else {
				shared++
			}
			if ld.Dynamic {
				dynamic++
			} else {
				static++
			}
			if ld.Stripped > 0 {
				stripped++
			}
		}
	}
	if exclusive == 0 || shared == 0 || dynamic == 0 || static == 0 || stripped == 0 {
		t.Fatalf("coverage hole: exclusive=%d shared=%d dynamic=%d static=%d stripped=%d",
			exclusive, shared, dynamic, static, stripped)
	}
}

func TestRungValueFloorsCapacity(t *testing.T) {
	l := mptcpsim.ScenarioLink{Mbps: 5}
	for k := 0; k < 12; k++ {
		if v := rungValue(KnobRateDown, l, k); v < 1 {
			t.Fatalf("rate_down rung %d = %v, want >= 1 Mbps", k, v)
		}
	}
	if v := rungValue(KnobLossUp, mptcpsim.ScenarioLink{Loss: 0.004}, 2); v != 0.064 {
		t.Fatalf("loss rung 2 = %v, want 0.064", v)
	}
}

// trendObs builds a fabricated report: a ladder of the given shape plus
// one observation per goodput value.
func trendObs(knob, cc string, exclusive bool, goodputs []uint64) *TrendReport {
	r := &TrendReport{Ladder: Ladder{
		Knob: knob, Exclusive: exclusive, Coupled: coupledCC(cc),
		Base:  Spec{Options: mptcpsim.Options{CC: cc, Scheduler: "minrtt"}},
		Rungs: make([]Spec, len(goodputs)),
	}}
	for _, g := range goodputs {
		r.Obs = append(r.Obs, RungObs{GoodputBytes: g, Share: 0.5, Hash: "h"})
	}
	for range goodputs {
		r.Ladder.Values = append(r.Ladder.Values, 1)
	}
	return r
}

func TestEvaluateGoodputDirections(t *testing.T) {
	cases := []struct {
		name     string
		rep      *TrendReport
		wantFail string // substring of a violation, "" = must pass
	}{
		{"degrading monotone ok",
			trendObs(KnobLossUp, "cubic", true, []uint64{900e3, 700e3, 500e3, 300e3}), ""},
		{"degrading small wobble ok",
			trendObs(KnobLossUp, "cubic", true, []uint64{900e3, 880e3, 890e3, 850e3}), ""},
		{"degrading fully inverted fails pairwise",
			trendObs(KnobLossUp, "cubic", true, []uint64{500e3, 800e3, 1200e3, 2000e3}), "goodput not non-increasing"},
		{"degrading net rise fails end-to-end",
			trendObs(KnobDelayUp, "cubic", true, []uint64{500e3, 1400e3, 1350e3, 1400e3}), "rose end-to-end"},
		{"collapsed base exempt from end rise",
			trendObs(KnobLossUp, "cubic", true, []uint64{30e3, 900e3, 880e3, 860e3}), ""},
		{"improving monotone ok",
			trendObs(KnobRateUp, "cubic", true, []uint64{300e3, 500e3, 700e3, 900e3}), ""},
		{"improving collapse fails",
			trendObs(KnobRateUp, "cubic", true, []uint64{2000e3, 1200e3, 800e3, 500e3}), "fell end-to-end"},
		{"wvegas delay ladder exempt",
			trendObs(KnobDelayUp, "wvegas", true, []uint64{120e3, 2400e3, 380e3, 2100e3}), ""},
		{"wvegas still checked on loss",
			trendObs(KnobLossUp, "wvegas", true, []uint64{500e3, 800e3, 1200e3, 2000e3}), "goodput not non-increasing"},
	}
	for _, tc := range cases {
		tc.rep.Evaluate()
		if tc.wantFail == "" {
			if len(tc.rep.Violations) != 0 {
				t.Errorf("%s: unexpected violations %v", tc.name, tc.rep.Violations)
			}
			continue
		}
		if !strings.Contains(strings.Join(tc.rep.Violations, "\n"), tc.wantFail) {
			t.Errorf("%s: violations %v, want one containing %q", tc.name, tc.rep.Violations, tc.wantFail)
		}
	}
}

// Seed 29's ladder 6 (7 ladders, 4 steps): olia with the redundant
// scheduler, throttling m22-m31, which other active paths share, from 40 to
// 5.184 Mbps. The LP optimum stays 60 Mbps on every rung, and goodput
// rises. Its goodput direction is exempt only while both hold.
func TestEvaluateFlatOptimumScopesGoodput(t *testing.T) {
	mk := func(exclusive bool, lastOptimum float64) *TrendReport {
		r := trendObs(KnobRateDown, "olia", exclusive, []uint64{1432200, 2254000, 2686600, 4053000, 4370800})
		r.Ladder.Base.Options.Scheduler = "redundant"
		r.Ladder.Values = []float64{40, 24, 14.4, 8.64, 5.184}
		for i, gap := range []float64{0.7078, 0.6440, 0.6165, 0.4264, 0.3890} {
			r.Obs[i].Gap, r.Obs[i].Optimum = gap, 60
		}
		r.Obs[len(r.Obs)-1].Optimum = lastOptimum
		r.Evaluate()
		return r
	}
	if r := mk(false, 60); len(r.Violations) != 0 {
		t.Fatalf("flat-optimum shared ladder flagged: %v", r.Violations)
	}
	for _, r := range []*TrendReport{mk(false, 55), mk(false, 0), mk(true, 60)} {
		if v := strings.Join(r.Violations, "\n"); !strings.Contains(v, "goodput not non-increasing") ||
			!strings.Contains(v, "goodput rose end-to-end") {
			t.Fatalf("exclusive=%v last optimum %g: violations %v, want both goodput checks",
				r.Ladder.Exclusive, r.Obs[len(r.Obs)-1].Optimum, r.Violations)
		}
	}
}

func TestEvaluateGapAssertions(t *testing.T) {
	mk := func(cc string, share0 float64, values []float64, gaps []float64) *TrendReport {
		r := trendObs(KnobRateDown, cc, true, []uint64{900e3, 800e3, 700e3, 600e3})
		r.Ladder.Values = values
		for i := range r.Obs {
			r.Obs[i].Gap = gaps[i]
		}
		r.Obs[0].Share = share0
		return r
	}
	vals := []float64{40, 24, 14.4, 8.64}
	widening := []float64{0.0, 0.05, 0.2, 0.5}

	r := mk("cubic", 0.5, vals, widening)
	r.Evaluate()
	if !strings.Contains(strings.Join(r.Violations, "\n"), "gap widened end-to-end") {
		t.Fatalf("loss-based widening not flagged: %v", r.Violations)
	}

	// wvegas never chases the LP optimum; its gap is exempt.
	r = mk("wvegas", 0.5, vals, widening)
	r.Evaluate()
	if len(r.Violations) != 0 {
		t.Fatalf("wvegas gap flagged: %v", r.Violations)
	}

	// A run carrying ~all bytes on the perturbed path has no alternative
	// route; its gap against the all-paths LP widens structurally.
	r = mk("cubic", 0.97, vals, widening)
	r.Evaluate()
	if len(r.Violations) != 0 {
		t.Fatalf("single-route gap flagged: %v", r.Violations)
	}

	// Rungs cut below the degeneracy floor are outside the assertion; with
	// only rung 0 at or above 5 Mbps nothing is compared.
	r = mk("cubic", 0.5, []float64{40, 4, 2.4, 1.44}, widening)
	r.Evaluate()
	if len(r.Violations) != 0 {
		t.Fatalf("sub-floor rungs flagged: %v", r.Violations)
	}

	// A base rung already far off its LP baseline has no tracking
	// relationship to preserve; the assertion requires gap[0] small.
	offBase := []float64{0.40, 0.45, 0.60, 0.90}
	r = mk("cubic", 0.5, vals, offBase)
	r.Evaluate()
	if len(r.Violations) != 0 {
		t.Fatalf("off-baseline base flagged: %v", r.Violations)
	}
}

func TestEvaluateLoadShift(t *testing.T) {
	mk := func(cc string, exclusive bool, shares []float64) *TrendReport {
		r := trendObs(KnobLossUp, cc, exclusive, []uint64{900e3, 800e3, 700e3, 600e3})
		for i := range r.Obs {
			r.Obs[i].Share = shares[i]
		}
		return r
	}
	rising := []float64{0.10, 0.15, 0.25, 0.40}

	r := mk("lia", true, rising)
	r.Evaluate()
	if !strings.Contains(strings.Join(r.Violations, "\n"), "load share") {
		t.Fatalf("coupled share rise not flagged: %v", r.Violations)
	}

	// Uncoupled CCs make no load-shift promise.
	r = mk("cubic", true, rising)
	r.Evaluate()
	if len(r.Violations) != 0 {
		t.Fatalf("uncoupled share flagged: %v", r.Violations)
	}

	// A shared link degrades every path crossing it; no shift expected.
	r = mk("lia", false, rising)
	r.Evaluate()
	if len(r.Violations) != 0 {
		t.Fatalf("shared-link share flagged: %v", r.Violations)
	}

	// A rung that sent nothing has no share; the check skips.
	nan := []float64{0.10, math.NaN(), 0.25, 0.40}
	r = mk("lia", true, nan)
	r.Evaluate()
	if len(r.Violations) != 0 {
		t.Fatalf("NaN-share ladder flagged: %v", r.Violations)
	}

	// Only minrtt gets a load-shift verdict: redundant clones every packet
	// onto every subflow, so its sent-byte shares track scheduler
	// mechanics. The guard matches the name "minrtt", so the roundrobin
	// alias, which the generator no longer draws, gets none either.
	for _, sched := range []string{"roundrobin", "redundant"} {
		r = mk("lia", true, rising)
		r.Ladder.Base.Options.Scheduler = sched
		r.Evaluate()
		if len(r.Violations) != 0 {
			t.Fatalf("%s share flagged: %v", sched, r.Violations)
		}
	}
}

func TestEvaluateSkipsFailedRungs(t *testing.T) {
	r := trendObs(KnobLossUp, "cubic", true, []uint64{100e3, 900e3, 1800e3, 3600e3})
	r.Obs[2] = RungObs{Err: "build: boom"}
	r.Evaluate()
	if len(r.Violations) != 0 {
		t.Fatalf("half-measured ladder got a trend verdict: %v", r.Violations)
	}
	if r.OK() {
		t.Fatal("ladder with a failed rung reported OK")
	}
}

func TestEvaluateShapeMismatch(t *testing.T) {
	r := trendObs(KnobLossUp, "cubic", true, []uint64{100e3, 90e3})
	r.Obs = r.Obs[:1]
	r.Evaluate()
	if len(r.Violations) != 1 || !strings.Contains(r.Violations[0], "internal") {
		t.Fatalf("shape mismatch not flagged: %v", r.Violations)
	}
}

// TestTrendReportWriteCanonical locks the report rendering byte for byte:
// the batch determinism contract compares these bytes across worker
// counts, so the format must not pick up incidental state.
func TestTrendReportWriteCanonical(t *testing.T) {
	r := &TrendReport{
		Ladder: Ladder{
			Index: 3, Knob: KnobRateDown, Path: 2,
			LinkA: "s", LinkB: "m11", Exclusive: true, Coupled: true, Dynamic: false,
			Base:   Spec{Seed: 42, Options: mptcpsim.Options{CC: "lia", Scheduler: "minrtt"}},
			Rungs:  make([]Spec, 2),
			Values: []float64{40, 24},
		},
		Obs: []RungObs{
			{GoodputBytes: 900000, Gap: 0.0123, Share: 0.25, Hash: "aabbccddeeff00112233"},
			{GoodputBytes: 0, Share: math.NaN(), Err: "build: boom"},
		},
		Violations: []string{"something drifted"},
	}
	var sb strings.Builder
	r.Write(&sb)
	want := "ladder   3 FAIL seed=42                  knob=rate_down path=2 link=s-m11 excl=true coupled=true dynamic=false cc=lia sched=minrtt\n" +
		"  rung 0 mbps=40 goodput=900000 gap=0.0123 share=0.2500 hash=aabbccddeeff\n" +
		"  rung 1 mbps=24 ERROR build: boom\n" +
		"  FAIL something drifted\n"
	if sb.String() != want {
		t.Fatalf("rendering drifted:\ngot:\n%swant:\n%s", sb.String(), want)
	}
}

// A ladder of n rungs may show n-2 inversions: only a fully inverted one
// fails the pairwise check, whatever its length.
func TestInversionBudgetFollowsRungCount(t *testing.T) {
	for rungs := 2; rungs <= 6; rungs++ {
		goodputs := make([]uint64, rungs)
		for k := range goodputs {
			goodputs[k] = uint64(500e3 * (k + 1))
		}
		r := trendObs(KnobLossUp, "cubic", true, goodputs)
		r.Evaluate()
		want := fmt.Sprintf("%d inversions beyond tolerance (allowed %d)", rungs-1, rungs-2)
		if !strings.Contains(strings.Join(r.Violations, "\n"), want) {
			t.Fatalf("%d rungs: violations %v, want one containing %q", rungs, r.Violations, want)
		}
	}
}
