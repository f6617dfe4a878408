// Package check is the simulator's correctness harness over the public
// mptcpsim API: the randomized scenario generator (NewSpec), the
// perturbation ladders and the trend policy of the metamorphic oracle
// (NewLadder, TrendReport), and the golden hash corpus format
// (Golden). The invariants every generated run is held to live with the
// engine, in the mptcpsim package (Options.ValidateInvariants); this
// package decides what to run and what its results must show.
//
// A generated spec is a *mptcpsim.ScenarioFile plus the mptcpsim.Options
// it runs with: a harness expands it as a one-run grid (Spec.Grid) and
// runs it through mptcpsim.Sweep.Execute.
package check

import (
	"fmt"
	"math"
	"time"

	"mptcpsim"
	"mptcpsim/internal/sim"
)

// eventLimit aborts any single generated run after this many simulation
// events — a runaway guard so one pathological draw fails fast instead of
// wedging the harness.
const eventLimit = 100_000_000

// Spec is one randomly generated but fully valid experiment: a scenario
// file plus the run options that go with it. Specs are a pure function of
// their seed, so a failing one is replayed from two numbers.
type Spec struct {
	// Seed is the generator seed the spec was derived from.
	Seed int64
	// Name is a short label summarising the draw.
	Name string
	// Scenario is the topology + event timeline.
	Scenario *mptcpsim.ScenarioFile
	// Options are the run options: CC, Scheduler, SubflowPaths, Seed,
	// Duration, QueueScale and the runaway EventLimit. Observation-only
	// switches (ValidateInvariants, Telemetry) are the harness's to add.
	Options mptcpsim.Options
}

// Grid returns the spec as a one-run JSON grid: its scenario inline,
// one-value CC, scheduler, order and seed axes, its duration, and one
// perturbation with its queue scale. The event limit, a sweep setting, is
// the harness's to set on the expanded run. Expanding the grid builds and
// validates the scenario, so a harness runs generated specs through the
// same Sweep.Execute that sweeps use.
func (s Spec) Grid() *mptcpsim.Grid {
	o := s.Options
	return &mptcpsim.Grid{
		Scenarios:     []mptcpsim.GridScenario{{Name: s.Name, Scenario: s.Scenario}},
		CCs:           []string{o.CC},
		Schedulers:    []string{o.Scheduler},
		Orders:        [][]int{o.SubflowPaths},
		Seeds:         []int64{o.Seed},
		DurationMs:    float64(o.Duration) / float64(time.Millisecond),
		Perturbations: []mptcpsim.Perturbation{{Name: "base", QueueScale: o.QueueScale}},
	}
}

// SpecSeed derives the i-th spec seed from a base seed (splitmix64), so a
// batch of specs can be generated independently and in parallel while
// staying a pure function of (base, i).
func SpecSeed(base int64, i int) int64 {
	z := uint64(base) ^ 0x9e3779b97f4a7c15*uint64(i+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	// Clear the sign bit: seeds print nicer and Options maps 0 to 1
	// anyway.
	return int64(z &^ (1 << 63))
}

// The value palettes. Rates are everyday access/backbone capacities;
// keeping them ≥ 5 Mbps avoids degenerate runs where nothing converges
// inside the short simcheck horizon.
var (
	genRates  = []float64{5, 8, 10, 20, 40, 60, 80, 100}
	genCCs    = []string{"cubic", "reno", "lia", "olia", "balia", "wvegas"}
	genScheds = []string{"minrtt", "redundant"}
)

// NewSpec generates the spec for a seed: a layered random topology whose
// paths share columns of intermediate nodes (the paper's overlapping-path
// structure), a valid dynamic-event timeline drawn from the full dynamics
// vocabulary, and a random choice of congestion control, scheduler,
// subflow ordering, queue scale and run seed.
func NewSpec(seed int64) Spec {
	rng := sim.NewRand(seed)

	// Layered topology: s → column 1 → ... → column C → d. Each path
	// picks one node per column, so paths overlap wherever their picks
	// coincide — including fully overlapping (identical) paths, which are
	// legal and pin two subflows to one route.
	cols := 1 + rng.Intn(3)
	width := make([]int, cols)
	names := make([][]string, cols)
	for c := range width {
		width[c] = 1 + rng.Intn(2)
		for w := 0; w < width[c]; w++ {
			names[c] = append(names[c], fmt.Sprintf("m%d%d", c+1, w+1))
		}
	}
	nPaths := 2 + rng.Intn(3)
	paths := make([][]string, nPaths)
	for p := range paths {
		nodes := []string{"s"}
		for c := 0; c < cols; c++ {
			nodes = append(nodes, names[c][rng.Intn(width[c])])
		}
		paths[p] = append(nodes, "d")
	}

	// Links: every hop used by a path, in first-use order so the file is
	// deterministic.
	sf := &mptcpsim.ScenarioFile{}
	type pair struct{ a, b string }
	linkAt := make(map[pair]int)
	addLink := func(a, b string) {
		key := pair{a, b}
		if a > b {
			key = pair{b, a}
		}
		if _, ok := linkAt[key]; ok {
			return
		}
		delay := math.Round((0.5+float64(rng.Float64()*4))*1000) / 1000
		linkAt[key] = len(sf.Links)
		sf.Links = append(sf.Links, mptcpsim.ScenarioLink{
			A: a, B: b,
			Mbps:    genRates[rng.Intn(len(genRates))],
			DelayMs: delay,
		})
	}
	for _, nodes := range paths {
		for i := 1; i < len(nodes); i++ {
			addLink(nodes[i-1], nodes[i])
		}
	}
	// Occasionally an extra link no path uses: events may target it, and
	// nothing else should care.
	if rng.Bool(0.3) && cols >= 2 {
		addLink(names[0][0], names[cols-1][width[cols-1]-1])
	}
	// Occasionally a lossy link and a shallow explicit buffer.
	if rng.Bool(0.25) {
		sf.Links[rng.Intn(len(sf.Links))].Loss = rng.Float64() * 0.01
	}
	if rng.Bool(0.2) {
		sf.Links[rng.Intn(len(sf.Links))].QueueBytes = (8 + rng.Intn(25)) * 1500
	}

	sf.Endpoints.Src, sf.Endpoints.Dst = "s", "d"
	for _, nodes := range paths {
		sf.Paths = append(sf.Paths, mptcpsim.ScenarioPath{Nodes: nodes})
	}

	duration := time.Duration(800+rng.Intn(800)) * time.Millisecond
	sf.Events = genTimeline(rng, sf.Links, duration)

	// Run options.
	order := rng.Perm(nPaths)
	for i := range order {
		order[i]++
	}
	if rng.Bool(0.2) && nPaths > 1 {
		order = order[:1+rng.Intn(nPaths-1)]
	}
	qs := 1.0
	switch {
	case rng.Bool(0.15):
		qs = 0.5
	case rng.Bool(0.15):
		qs = 2
	}
	sp := Spec{
		Seed:     seed,
		Scenario: sf,
		Options: mptcpsim.Options{
			CC:           genCCs[rng.Intn(len(genCCs))],
			Scheduler:    genScheds[rng.Intn(len(genScheds))],
			SubflowPaths: order,
			Seed:         rng.Int63(),
			Duration:     duration,
			QueueScale:   qs,
			EventLimit:   eventLimit,
		},
	}
	sp.Name = fmt.Sprintf("cc=%s sched=%s paths=%d links=%d events=%d dur=%v",
		sp.Options.CC, sp.Options.Scheduler, nPaths, len(sf.Links), len(sf.Events), duration)
	return sp
}

// genTimeline draws a valid event sequence: strictly increasing times, a
// per-link state machine keeping the dynamics validation rules (no double
// link_down, link_up only on a downed link, no loss event inside an
// active burst window), and parameters inside their documented ranges.
func genTimeline(rng *sim.Rand, links []mptcpsim.ScenarioLink, duration time.Duration) []mptcpsim.ScenarioEvent {
	count := rng.Intn(4)
	if count == 0 {
		return nil
	}
	durMs := float64(duration) / float64(time.Millisecond)
	var events []mptcpsim.ScenarioEvent
	down := make(map[int]bool)
	burstEndMs := make(map[int]float64)
	tMs := 0.1 * durMs
	for len(events) < count {
		tMs += float64((0.08 + float64(rng.Float64()*0.25)) * durMs)
		if tMs >= 0.9*durMs {
			break
		}
		li := rng.Intn(len(links))
		l := links[li]
		ev := mptcpsim.ScenarioEvent{AtMs: math.Round(tMs*1000) / 1000, A: l.A, B: l.B}
		switch {
		case down[li]:
			ev.Type = "link_up"
			down[li] = false
		default:
			kinds := []string{"set_rate", "set_delay", "link_down"}
			// Loss events are structural errors inside an active burst
			// window (the restore would clobber them); only offer them
			// strictly after it, with a 10 µs margin so millisecond
			// rounding cannot land one on the restore instant.
			if ev.AtMs > burstEndMs[li]+0.01 {
				kinds = append(kinds, "set_loss", "loss_burst")
			}
			ev.Type = kinds[rng.Intn(len(kinds))]
			switch ev.Type {
			case "set_rate":
				ev.Mbps = genRates[rng.Intn(len(genRates))]
			case "set_delay":
				ev.DelayMs = math.Round(rng.Float64()*8*1000) / 1000
			case "link_down":
				down[li] = true
			case "set_loss":
				ev.Loss = rng.Float64() * 0.05
			case "loss_burst":
				ev.Loss = 0.05 + float64(rng.Float64()*0.25)
				ev.DurationMs = math.Round((0.02+float64(rng.Float64()*0.08))*durMs*1000) / 1000
				burstEndMs[li] = ev.AtMs + ev.DurationMs
			}
		}
		events = append(events, ev)
	}
	return events
}
