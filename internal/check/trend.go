package check

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"mptcpsim"
	"mptcpsim/internal/sim"
)

// The metamorphic trend oracle. Exact invariants and replay hashes prove
// the simulator is conservative and deterministic, but a deterministic
// bug is deterministically wrong: they cannot tell a plausible model from
// a correct one. Trends can. Degrading one path — more loss, more delay,
// less capacity — must not improve the connection's goodput; restoring
// capacity must not degrade it; a coupled congestion controller must not
// shift *more* load onto a path as it degrades. A perturbation ladder
// makes those direction-of-change statements machine-checkable: K
// monotone mutations of one knob on one link of one active path, each
// rung a fully valid generated scenario, each assertion holding within an
// explicit noise tolerance.

// Knob names: the perturbation directions a ladder can take. The first
// three degrade the perturbed path, so goodput must be monotone
// non-increasing along the ladder; KnobRateUp improves it, so goodput
// must be monotone non-decreasing.
const (
	KnobLossUp   = "loss_up"
	KnobDelayUp  = "delay_up"
	KnobRateDown = "rate_down"
	KnobRateUp   = "rate_up"
)

// Knobs lists the directions in derivation order: ladder i of a batch
// perturbs Knobs[i%len(Knobs)], so any four consecutive ladders cover
// every direction.
var Knobs = []string{KnobLossUp, KnobDelayUp, KnobRateDown, KnobRateUp}

// coupledCC reports whether a congestion controller couples its subflow
// windows — the algorithms that deliberately shift load away from
// congested paths, and therefore get the load-shift assertion.
func coupledCC(cc string) bool {
	switch cc {
	case "lia", "olia", "balia", "wvegas":
		return true
	}
	return false
}

// Ladder is one perturbation ladder: a base generated Spec plus
// len(Rungs) derived specs that mutate a single knob of a single link
// monotonically. Ladders are a pure function of (base seed, index,
// steps), so a failing one replays from three numbers.
type Ladder struct {
	// Index is the ladder's position in its batch; the knob is
	// Knobs[Index%len(Knobs)] and the base spec seed is
	// SpecSeed(base, Index) — the same spec space the plain simcheck
	// mode draws from.
	Index int
	// Knob is the perturbation direction (Knob* constants).
	Knob string
	// Base is the unperturbed generator spec the ladder grew from.
	Base Spec
	// Path is the 1-based perturbed path; always one of
	// Base.Options.SubflowPaths, so the perturbation lands on a path that
	// actually carries a subflow.
	Path int
	// LinkA, LinkB name the perturbed link (a hop of Path).
	LinkA, LinkB string
	// Exclusive reports that no other active path crosses the perturbed
	// link — the precondition for the load-shift assertion.
	Exclusive bool
	// Coupled reports that Base.Options.CC couples its subflow windows.
	Coupled bool
	// Dynamic reports that the rung scenarios carry dynamic events.
	Dynamic bool
	// Stripped counts events removed because they targeted the perturbed
	// link (they would override the knob mid-run and wash out the trend).
	Stripped int
	// Rungs holds steps+1 specs; Rungs[0] is the (possibly
	// event-stripped) base, Rungs[k] the k-th perturbation.
	Rungs []Spec
	// Values holds the knob's value at each rung, in the link's native
	// unit (loss probability, delay ms, or Mbps).
	Values []float64
}

// NewLadder derives ladder index of a batch: the base spec is
// NewSpec(SpecSeed(base, index)) — untouched, so trend mode consumes
// exactly the generator draws the golden corpus locks — and the
// perturbation target is chosen by an independent RNG stream.
//
// Target selection prefers, in order: a link exclusive to the chosen path
// with no events targeting it, an exclusive link, an event-free link, any
// link of the path. When the chosen link does carry events, every event
// targeting it is stripped from all rungs (the per-link event state
// machine goes together, so the remaining timeline stays valid). For
// KnobRateUp the scarcest candidate is perturbed — raising a
// non-bottleneck link proves nothing.
func NewLadder(base int64, index, steps int) Ladder {
	if steps < 1 {
		panic("check: NewLadder needs steps >= 1")
	}
	sp := NewSpec(SpecSeed(base, index))
	knob := Knobs[index%len(Knobs)]
	// Rungs share the base's paths and edit copies of its links and events.
	file := *sp.Scenario
	// "ladd": fork the perturbation choices off the spec seed without
	// touching the generator's own stream.
	rng := sim.NewRand(sp.Seed ^ 0x6c616464)
	path := sp.Options.SubflowPaths[rng.Intn(len(sp.Options.SubflowPaths))]

	hop := func(a, b string) [2]string {
		if a > b {
			a, b = b, a
		}
		return [2]string{a, b}
	}
	linkIdx := make(map[[2]string]int, len(file.Links))
	for i, l := range file.Links {
		linkIdx[hop(l.A, l.B)] = i
	}
	// used[li] is the set of active paths crossing link li.
	used := make(map[int]map[int]bool)
	for _, p := range sp.Options.SubflowPaths {
		nodes := file.Paths[p-1].Nodes
		for i := 1; i < len(nodes); i++ {
			li := linkIdx[hop(nodes[i-1], nodes[i])]
			if used[li] == nil {
				used[li] = make(map[int]bool)
			}
			used[li][p] = true
		}
	}
	eventful := make(map[int]bool)
	for _, ev := range file.Events {
		if li, ok := linkIdx[hop(ev.A, ev.B)]; ok {
			eventful[li] = true
		}
	}

	// Candidates: the chosen path's hops in path order, deduplicated.
	var cands []int
	seen := make(map[int]bool)
	nodes := file.Paths[path-1].Nodes
	for i := 1; i < len(nodes); i++ {
		li := linkIdx[hop(nodes[i-1], nodes[i])]
		if !seen[li] {
			seen[li] = true
			cands = append(cands, li)
		}
	}
	classOf := func(li int) int {
		excl := len(used[li]) == 1
		clean := !eventful[li]
		switch {
		case excl && clean:
			return 0
		case excl:
			return 1
		case clean:
			return 2
		}
		return 3
	}
	best := 4
	for _, li := range cands {
		if c := classOf(li); c < best {
			best = c
		}
	}
	pool := cands[:0]
	for _, li := range cands {
		if classOf(li) == best {
			pool = append(pool, li)
		}
	}
	var li int
	if knob == KnobRateUp {
		li = pool[0]
		for _, c := range pool[1:] {
			if file.Links[c].Mbps < file.Links[li].Mbps {
				li = c
			}
		}
	} else {
		li = pool[rng.Intn(len(pool))]
	}

	ld := Ladder{
		Index:     index,
		Knob:      knob,
		Base:      sp,
		Path:      path,
		LinkA:     file.Links[li].A,
		LinkB:     file.Links[li].B,
		Exclusive: len(used[li]) == 1,
		Coupled:   coupledCC(sp.Options.CC),
	}
	if eventful[li] {
		key := hop(file.Links[li].A, file.Links[li].B)
		var kept []mptcpsim.ScenarioEvent
		for _, ev := range file.Events {
			if hop(ev.A, ev.B) != key {
				kept = append(kept, ev)
			}
		}
		ld.Stripped = len(file.Events) - len(kept)
		file.Events = kept
	}
	ld.Dynamic = len(file.Events) > 0

	baseLink := file.Links[li]
	for k := 0; k <= steps; k++ {
		v := rungValue(knob, baseLink, k)
		rung := file
		rung.Links = append([]mptcpsim.ScenarioLink(nil), file.Links...)
		switch knob {
		case KnobLossUp:
			rung.Links[li].Loss = v
		case KnobDelayUp:
			rung.Links[li].DelayMs = v
		case KnobRateDown, KnobRateUp:
			rung.Links[li].Mbps = v
		}
		rsp := sp
		rsp.Scenario = &rung
		ld.Rungs = append(ld.Rungs, rsp)
		ld.Values = append(ld.Values, v)
	}
	return ld
}

// rungValue is the knob's value at rung k (k=0 re-states the base value,
// rounded to the generator's millesimal grid so every rung sits on the
// scenario format's exactly-representable lattice). Steps are sized for
// signal over the generator's short horizons: +3 points of loss per rung,
// delay doubled per rung, capacity ×0.6 per rung (floored at 1 Mbps so a
// rung never degenerates below the format's useful range), capacity ×1.6
// per rung.
func rungValue(knob string, l mptcpsim.ScenarioLink, k int) float64 {
	switch knob {
	case KnobLossUp:
		return round3(l.Loss + float64(0.03*float64(k)))
	case KnobDelayUp:
		return round3(l.DelayMs * math.Pow(2, float64(k)))
	case KnobRateDown:
		v := l.Mbps * math.Pow(0.6, float64(k))
		if v < 1 {
			v = 1
		}
		return round3(v)
	case KnobRateUp:
		return round3(l.Mbps * math.Pow(1.6, float64(k)))
	}
	panic("check: unknown knob " + knob)
}

// knobField names the scenario-link field a knob mutates, for reports.
func knobField(knob string) string {
	switch knob {
	case KnobLossUp:
		return "loss"
	case KnobDelayUp:
		return "delay_ms"
	}
	return "mbps"
}

// round3 snaps to three decimals, the generator's grid for every float
// field it draws.
func round3(v float64) float64 { return math.Round(v*1000) / 1000 }

// RungObs is what the harness measured on one rung: the trend
// observables plus the rung's canonical hash (for the report) or the
// failure that prevented measurement.
type RungObs struct {
	// GoodputBytes is the connection's in-order delivered payload.
	GoodputBytes uint64
	// Gap is the run's optimality gap against its own (piecewise) LP
	// baseline.
	Gap float64
	// Share is the perturbed path's share of sent payload bytes across
	// all subflows; NaN when the run sent nothing.
	Share float64
	// Optimum is the run's LP optimum total (Mbps); 0 means unknown.
	Optimum float64
	// Hash is the rung's Result.Hash, Engine its Result.EngineHash.
	Hash, Engine string
	// Err, when non-empty, is why the rung could not be measured
	// (build/run error, invariant violation, replay divergence). A
	// ladder with a failed rung gets no trend verdict.
	Err string
}

// TrendReport is one ladder's verdict: the observations of every rung
// and the trend violations Evaluate found. Its rendering is canonical
// — identical bytes for identical inputs — so a batch report can be
// byte-compared across worker counts.
type TrendReport struct {
	Ladder     Ladder
	Obs        []RungObs
	Violations []string
}

// The noise-tolerance policy trend assertions hold within. Two distinct
// effects need room. Short generated horizons make goodput noisy
// (binning, slow-start phase, scheduler jitter move it a few percent
// between rungs), which the per-step window absorbs. And multipath
// in-order goodput is genuinely non-monotone in a single path's quality:
// head-of-line blocking means degrading one path can *improve* the union
// by tens of percent (a lossy subflow stops stalling in-order delivery —
// observed up to ~+38% with the redundant scheduler under coupled CCs),
// which the generous end-to-end bound absorbs. What no tolerance absorbs
// is a wrong-direction drift at sign-flip scale — loss applied inverted
// multiplies goodput across a ladder — which is the whole-model
// wrongness this oracle exists to catch.
//
// The values are calibrated against the seed-1 reference smoke: every
// legitimate head-of-line rise observed there clears the bounds with
// margin, and a loss-sign-flip mutation (rungs applied in inverted order)
// exceeds both the inversion budget and the end-to-end bound severalfold.
// The inversion budget itself is not a constant: a ladder of n rungs may
// show n-2 inversions per observable. Head-of-line effects make single
// steps noisy in both directions, so the pairwise check flags only a
// fully inverted ladder, and the end-to-end drift bounds are the primary
// tooth.
const (
	// relTol and absTol bound the per-step goodput wobble: rung k
	// inverts only when it beats rung k-1's value by more than relTol
	// relative plus absTol bytes of absolute slack.
	relTol = 0.05
	absTol = 24 << 10
	// endRelTol and endAbsTol bound the whole-ladder net drift in the
	// wrong direction (last rung vs first): the backstop for a
	// consistent creep that stays inside the per-step window.
	endRelTol = 0.50
	endAbsTol = 384 << 10
	// minBaseGoodput (bytes) gates the degrading end-to-end rise check:
	// a base rung whose in-order goodput is collapsed to a sliver of
	// what the wire moved (head-of-line stall) has no trend to preserve,
	// and any perturbation that breaks the stall "improves" it by an
	// unbounded factor. Below this floor the rise check is vacuous and
	// skipped.
	minBaseGoodput = 128 << 10
	// gapStepTol and gapEndTol bound gap widening (absolute, in gap
	// fraction) per step / end-to-end for the capacity-down ladder,
	// where each rung's own LP baseline tracks the perturbation. The
	// assertion only applies to loss-based CCs — wvegas deliberately
	// trades throughput for low queueing delay and does not chase the
	// LP optimum — and only to rungs at or above gapCapFloorMbps: the
	// generator keeps its capacity palette >= 5 Mbps because smaller
	// links are degenerate over its short horizons (RTO-dominated, a
	// handful of packets in flight), and the same argument voids
	// LP-tracking expectations for rungs cut below that floor.
	// gapShareCeil additionally voids the gap assertion when the base
	// rung already carries (almost) every sent byte on the perturbed
	// path: the LP baseline routes over every scenario path, but such a
	// run has no alternative route in actual use, so its gap against
	// the all-paths optimum must widen structurally as its only link
	// shrinks — that is the comparison's geometry, not a model defect.
	// gapBaseMax gates the whole gap assertion on the base rung actually
	// tracking its baseline: a run that sits far off its own LP optimum
	// before any perturbation (deep head-of-line regimes do) has no
	// tracking relationship for the ladder to preserve.
	gapStepTol      = 0.10
	gapEndTol       = 0.30
	gapCapFloorMbps = 5
	gapShareCeil    = 0.95
	gapBaseMax      = 0.25
	// shareStepTol and shareEndTol bound the perturbed path's sent-byte
	// share growth per step / end-to-end on degrading ladders of
	// coupled CCs over an exclusive link.
	shareStepTol = 0.08
	shareEndTol  = 0.10
)

// Evaluate fills Violations from the observations under the tolerance
// policy above. A ladder with any failed rung gets no trend verdict — the
// rung failure is the finding, and a half-measured ladder must not
// masquerade as a trend result.
func (r *TrendReport) Evaluate() {
	r.Violations = nil
	if len(r.Obs) != len(r.Ladder.Rungs) {
		r.Violations = append(r.Violations, fmt.Sprintf(
			"internal: %d observations for %d rungs", len(r.Obs), len(r.Ladder.Rungs)))
		return
	}
	for _, o := range r.Obs {
		if o.Err != "" {
			return
		}
	}
	degrade := r.Ladder.Knob != KnobRateUp
	g := func(k int) float64 { return float64(r.Obs[k].GoodputBytes) }
	last := len(r.Obs) - 1
	maxInversions := last - 1

	// wvegas allocates rate as a function of the base RTT by design — a
	// queueing-delay controller pushes *more* onto a path whose
	// propagation delay grows, the classic Vegas artifact — so "more
	// propagation delay ⇒ less goodput, less share" is not a sound
	// relation for it. Its delay ladders keep rung measurement and
	// reporting but get no direction verdicts.
	vegasDelay := r.Ladder.Knob == KnobDelayUp && r.Ladder.Base.Options.CC == "wvegas"

	// Throttling a link other active paths share can leave the system's
	// achievable total where it was (the LP moves the lost rate onto
	// another path) and move a coupled run off a poor allocation, raising
	// its goodput. Where the LP predicts no loss end to end, the goodput
	// direction is not asserted; the gap assertion still is.
	o0, on := r.Obs[0].Optimum, r.Obs[last].Optimum
	flatOptimum := r.Ladder.Knob == KnobRateDown && !r.Ladder.Exclusive &&
		o0 > 0 && on > 0 && math.Abs(o0-on) <= 1e-9*math.Max(o0, on)

	// Goodput direction: count tolerance-window inversions step by step.
	if !vegasDelay && !flatOptimum {
		var inv []string
		for k := 1; k < len(r.Obs); k++ {
			prev, cur := g(k-1), g(k)
			bad := cur > float64(prev*(1+relTol))+absTol
			if !degrade {
				bad = cur < float64(prev*(1-relTol))-absTol
			}
			if bad {
				inv = append(inv, fmt.Sprintf("rung %d->%d: %.0f -> %.0f bytes", k-1, k, prev, cur))
			}
		}
		dir := "non-increasing"
		if !degrade {
			dir = "non-decreasing"
		}
		if len(inv) > maxInversions {
			r.Violations = append(r.Violations, fmt.Sprintf(
				"goodput not %s: %d inversions beyond tolerance (allowed %d): %s",
				dir, len(inv), maxInversions, strings.Join(inv, "; ")))
		}
		// Net drift: a slow creep in the wrong direction can stay inside
		// the per-step window on every rung; the end-to-end bound catches
		// it.
		if degrade && g(0) >= minBaseGoodput && g(last) > float64(g(0)*(1+endRelTol))+endAbsTol {
			r.Violations = append(r.Violations, fmt.Sprintf(
				"goodput rose end-to-end on a degrading ladder: %.0f -> %.0f bytes", g(0), g(last)))
		}
		if !degrade && g(last) < float64(g(0)*(1-endRelTol))-endAbsTol {
			r.Violations = append(r.Violations, fmt.Sprintf(
				"goodput fell end-to-end on an improving ladder: %.0f -> %.0f bytes", g(0), g(last)))
		}
	}

	// Optimality gap: only the capacity-down direction has a baseline
	// that tracks the perturbation (the LP does not model loss or
	// delay), so only there is "gap must not widen" a sound assertion —
	// and only for loss-based CCs on rungs above the degeneracy floor
	// (gapCapFloorMbps), when the run actually spreads load over
	// alternatives to the perturbed path (gapShareCeil).
	// Rate-down values descend, so the qualifying rungs are a prefix of
	// the ladder.
	if r.Ladder.Knob == KnobRateDown && r.Ladder.Base.Options.CC != "wvegas" &&
		!math.IsNaN(r.Obs[0].Share) && r.Obs[0].Share < gapShareCeil &&
		r.Obs[0].Gap <= gapBaseMax {
		glast := 0
		for glast+1 < len(r.Obs) && r.Ladder.Values[glast+1] >= gapCapFloorMbps {
			glast++
		}
		var winv []string
		for k := 1; k <= glast; k++ {
			if r.Obs[k].Gap > r.Obs[k-1].Gap+gapStepTol {
				winv = append(winv, fmt.Sprintf("rung %d->%d: %.4f -> %.4f",
					k-1, k, r.Obs[k-1].Gap, r.Obs[k].Gap))
			}
		}
		if len(winv) > maxInversions {
			r.Violations = append(r.Violations, fmt.Sprintf(
				"optimality gap widened against per-rung LP baselines: %d widenings beyond tolerance (allowed %d): %s",
				len(winv), maxInversions, strings.Join(winv, "; ")))
		}
		if r.Obs[glast].Gap > r.Obs[0].Gap+gapEndTol {
			r.Violations = append(r.Violations, fmt.Sprintf(
				"optimality gap widened end-to-end: %.4f -> %.4f (through rung %d)",
				r.Obs[0].Gap, r.Obs[glast].Gap, glast))
		}
	}

	// Load shift: a coupled CC must not put a growing share of its bytes
	// on a path as it degrades. Only meaningful when the perturbed link
	// is exclusive to the path (degrading a shared link degrades every
	// path crossing it), every rung actually sent bytes, and the
	// scheduler lets the CC's windows steer bytes. minrtt does;
	// redundant clones every packet onto every subflow, so its sent-byte
	// share reflects scheduler mechanics rather than congestion
	// avoidance.
	if degrade && !vegasDelay && r.Ladder.Coupled && r.Ladder.Exclusive &&
		r.Ladder.Base.Options.Scheduler == "minrtt" {
		ok := true
		for _, o := range r.Obs {
			if math.IsNaN(o.Share) {
				ok = false
				break
			}
		}
		if ok {
			var sinv []string
			for k := 1; k < len(r.Obs); k++ {
				if r.Obs[k].Share > r.Obs[k-1].Share+shareStepTol {
					sinv = append(sinv, fmt.Sprintf("rung %d->%d: %.4f -> %.4f",
						k-1, k, r.Obs[k-1].Share, r.Obs[k].Share))
				}
			}
			if len(sinv) > maxInversions {
				r.Violations = append(r.Violations, fmt.Sprintf(
					"load shifted onto the degrading path: %d share increases beyond tolerance (allowed %d): %s",
					len(sinv), maxInversions, strings.Join(sinv, "; ")))
			}
			if r.Obs[last].Share > r.Obs[0].Share+shareEndTol {
				r.Violations = append(r.Violations, fmt.Sprintf(
					"load share on the degrading path rose end-to-end: %.4f -> %.4f",
					r.Obs[0].Share, r.Obs[last].Share))
			}
		}
	}
}

// OK reports whether the ladder both measured cleanly and satisfied
// every trend assertion.
func (r *TrendReport) OK() bool {
	if len(r.Violations) > 0 {
		return false
	}
	for _, o := range r.Obs {
		if o.Err != "" {
			return false
		}
	}
	return true
}

// Write renders the report canonically: a ladder header line, one line
// per rung, and one line per violation. No wall-clock or worker-count
// data appears, so batch output is byte-identical across pool sizes.
func (r *TrendReport) Write(w io.Writer) {
	l := &r.Ladder
	verdict := "ok  "
	if !r.OK() {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "ladder %3d %s seed=%-19d knob=%-9s path=%d link=%s-%s excl=%t coupled=%t dynamic=%t cc=%s sched=%s\n",
		l.Index, verdict, l.Base.Seed, l.Knob, l.Path, l.LinkA, l.LinkB,
		l.Exclusive, l.Coupled, l.Dynamic, l.Base.Options.CC, l.Base.Options.Scheduler)
	field := knobField(l.Knob)
	for k, o := range r.Obs {
		val := strconv.FormatFloat(l.Values[k], 'g', -1, 64)
		if o.Err != "" {
			fmt.Fprintf(w, "  rung %d %s=%s ERROR %s\n", k, field, val, o.Err)
			continue
		}
		share := "n/a"
		if !math.IsNaN(o.Share) {
			share = fmt.Sprintf("%.4f", o.Share)
		}
		fmt.Fprintf(w, "  rung %d %s=%s goodput=%d gap=%.4f share=%s hash=%.12s\n",
			k, field, val, o.GoodputBytes, o.Gap, share, o.Hash)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  FAIL %s\n", v)
	}
}
