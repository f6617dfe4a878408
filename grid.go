package mptcpsim

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mptcpsim/internal/cc"
	"mptcpsim/internal/mptcp"
)

// Grid describes a parameter sweep: the cross product of scenarios,
// perturbations, congestion-control algorithms, schedulers, subflow
// orderings and seeds, each combination executed as one independent
// experiment. A Grid is JSON-serialisable so cmd/sweep can read grid specs
// from disk (see LoadGrid); empty axes default to a single sensible value.
//
// Expansion order is deterministic and documented: scenarios vary slowest,
// then perturbations, event sets, CC algorithms, schedulers, orderings,
// and seeds fastest. Run indices in the resulting SweepResult follow that
// order regardless of how many workers execute the sweep.
type Grid struct {
	// Scenarios lists the topologies to sweep over. Empty means the paper
	// network (Fig. 1a).
	Scenarios []GridScenario `json:"scenarios,omitempty"`
	// CCs lists congestion-control algorithms ("cubic", "reno", "lia",
	// "olia", "balia", "wvegas"). Empty means {"cubic"}.
	CCs []string `json:"ccs,omitempty"`
	// Schedulers lists MPTCP schedulers ("minrtt", "roundrobin",
	// "redundant"). Empty means {"minrtt"}. "minrtt" and "roundrobin"
	// produce identical results today (see Options.Scheduler), so listing
	// both doubles the runs without adding a cell.
	Schedulers []string `json:"schedulers,omitempty"`
	// Orders lists subflow orderings (1-based path numbers, first =
	// default path). Empty means one run in path-definition order.
	Orders [][]int `json:"orders,omitempty"`
	// Perturbations lists topology modifications applied on top of each
	// scenario. Empty means a single unperturbed pass.
	Perturbations []Perturbation `json:"perturbations,omitempty"`
	// Events lists dynamic-event timelines applied on top of each
	// (scenario, perturbation) combination — the axis that asks how each
	// algorithm copes with a failure, handover or renegotiation. Empty
	// means a single static pass. Event times and targets are validated at
	// expansion time, before any run starts.
	Events []EventSet `json:"events,omitempty"`
	// Seeds lists the random seeds. Empty means {1}.
	Seeds []int64 `json:"seeds,omitempty"`
	// DurationMs overrides the traffic duration (milliseconds); 0 keeps
	// the 4 s default.
	DurationMs float64 `json:"duration_ms,omitempty"`
	// SampleMs overrides the capture bin width (milliseconds); 0 keeps the
	// 100 ms default.
	SampleMs float64 `json:"sample_ms,omitempty"`

	// Base supplies any further per-run options programmatically (SACK,
	// timestamps, cross traffic, telemetry...). CC, Scheduler,
	// SubflowPaths and Seed are overwritten by the grid axes;
	// Base.QueueScale multiplies with each perturbation's QueueScale, and a
	// perturbation's DisableSACK adds to Base.DisableSACK.
	Base Options `json:"-"`
}

// GridScenario selects one topology of a sweep, either the built-in paper
// network or an inline ScenarioFile. cmd/sweep additionally accepts a
// "file" reference, which it resolves to an inline scenario before
// expansion.
type GridScenario struct {
	// Name labels the scenario in results; defaulted when empty.
	Name string `json:"name,omitempty"`
	// Paper selects the built-in Fig. 1a network.
	Paper bool `json:"paper,omitempty"`
	// File is a path to a scenario JSON file. The library does not touch
	// the filesystem: callers (cmd/sweep) must resolve File into Scenario
	// before Expand.
	File string `json:"file,omitempty"`
	// Scenario is an inline topology description.
	Scenario *ScenarioFile `json:"scenario,omitempty"`
}

// Perturbation modifies a scenario's links before a run — the ablation
// axis of a sweep (how robust is the optimality result to latency noise,
// random loss, or shallow buffers?). Global fields apply to every link;
// Links entries override individual ones afterwards.
type Perturbation struct {
	// Name labels the perturbation in results; defaulted when empty.
	Name string `json:"name,omitempty"`
	// Scenarios restricts the perturbation to the named scenarios; empty
	// applies it to all. Link-targeted perturbations usually need this in
	// multi-scenario grids (targeting a link absent from an applicable
	// scenario is an error).
	Scenarios []string `json:"scenarios,omitempty"`
	// DelayScale multiplies every link's propagation delay (0 = keep).
	DelayScale float64 `json:"delay_scale,omitempty"`
	// Loss adds an independent drop probability in (0, 1] to every link;
	// the per-link sum is capped at 1.
	Loss float64 `json:"loss,omitempty"`
	// QueueScale multiplies every link's buffer for the run (forwarded to
	// Options.QueueScale; 0 = keep).
	QueueScale float64 `json:"queue_scale,omitempty"`
	// DisableSACK runs the cell with NewReno-only loss recovery (forwarded
	// to Options.DisableSACK).
	DisableSACK bool `json:"disable_sack,omitempty"`
	// Links lists targeted single-link overrides applied after the global
	// fields.
	Links []LinkPerturbation `json:"links,omitempty"`
}

// EventSet is one value of a sweep's events axis: a named timeline of
// dynamic events appended to the scenario's own events (if any). The
// empty timeline is the static pass and is usually listed first under the
// name "static" so every dynamic cell has its control.
type EventSet struct {
	// Name labels the set in results; defaulted when empty ("static" for
	// an empty timeline).
	Name string `json:"name,omitempty"`
	// Scenarios restricts the set to the named scenarios; empty applies it
	// to all. Link-targeted events usually need this in multi-scenario
	// grids (targeting a link absent from an applicable scenario is an
	// error).
	Scenarios []string `json:"scenarios,omitempty"`
	// Events is the timeline, in scenario-file form.
	Events []ScenarioEvent `json:"events,omitempty"`
}

// apply returns a deep copy of sf with the set's events appended.
func (es EventSet) apply(sf *ScenarioFile) *ScenarioFile {
	out := sf.clone()
	out.Events = append(out.Events, es.Events...)
	return out
}

// LinkPerturbation overrides the parameters of one named link (matched in
// either direction). Zero-valued fields keep the link's current value.
type LinkPerturbation struct {
	A string `json:"a"`
	B string `json:"b"`
	// Mbps replaces the link capacity.
	Mbps float64 `json:"mbps,omitempty"`
	// DelayMs replaces the one-way propagation delay.
	DelayMs float64 `json:"delay_ms,omitempty"`
	// QueueBytes replaces the buffer size.
	QueueBytes int `json:"queue_bytes,omitempty"`
	// Loss replaces the drop probability.
	Loss float64 `json:"loss,omitempty"`
}

// canonicalSchedName maps a scheduler spelling (case variants, aliases
// like "rr" or "default", the empty default) to the scheduler's own
// canonical name, so axis dedup and result labels agree across spellings.
func canonicalSchedName(name string) string {
	s, err := mptcp.NewScheduler(name)
	if err != nil {
		return schedName(name)
	}
	return s.Name()
}

// rejectDuplicateAxis errors when an axis lists the same value twice
// (after normalization): duplicates would execute identical runs and
// double-count them in group statistics.
func rejectDuplicateAxis(axis string, vals []string, norm func(string) string) error {
	seen := make(map[string]bool, len(vals))
	for _, v := range vals {
		if norm != nil {
			v = norm(v)
		}
		if seen[v] {
			return fmt.Errorf("mptcpsim: duplicate %s %q in grid", axis, v)
		}
		seen[v] = true
	}
	return nil
}

// scenarioFilter is the Scenarios list of a perturbation or an event set:
// the scenarios the axis value applies to, all of them when empty.
type scenarioFilter []string

// matches reports whether the filter covers the named scenario.
func (f scenarioFilter) matches(scenario string) bool {
	return len(f) == 0 || slices.Contains(f, scenario)
}

// checkKnown rejects a filter of the axis value `kind name` that lists a
// scenario the grid does not have: a typo would otherwise silently drop
// runs.
func (f scenarioFilter) checkKnown(kind, name string, scenarios []string) error {
	for _, want := range f {
		if !slices.Contains(scenarios, want) {
			return fmt.Errorf("mptcpsim: %s %q targets unknown scenario %q", kind, name, want)
		}
	}
	return nil
}

// coversAny reports whether at least one of an axis's filters covers the
// named scenario. A scenario every value filters out would contribute zero
// runs with no diagnostic.
func coversAny(filters []scenarioFilter, scenario string) bool {
	for _, f := range filters {
		if f.matches(scenario) {
			return true
		}
	}
	return false
}

// apply returns a deep copy of sf with the perturbation applied.
func (p Perturbation) apply(sf *ScenarioFile) (*ScenarioFile, error) {
	// Zero means "keep"; a negative scale or probability is a sign typo
	// that would otherwise run as an unperturbed cell under this name.
	if p.DelayScale < 0 || p.QueueScale < 0 || p.Loss < 0 {
		return nil, fmt.Errorf("mptcpsim: perturbation %q has a negative field", p.Name)
	}
	// Like the per-link override: loss > 1 is a typo'd percentage, not a
	// probability, and would drop every packet.
	if p.Loss > 1 {
		return nil, fmt.Errorf("mptcpsim: perturbation %q sets loss %v (want 0..1)", p.Name, p.Loss)
	}
	out := sf.clone()
	for i := range out.Links {
		if p.DelayScale > 0 {
			out.Links[i].DelayMs *= p.DelayScale
		}
		if p.Loss > 0 {
			out.Links[i].Loss += p.Loss
			if out.Links[i].Loss > 1 {
				out.Links[i].Loss = 1
			}
		}
	}
	for _, ov := range p.Links {
		if ov.Loss < 0 || ov.Loss > 1 {
			return nil, fmt.Errorf("mptcpsim: perturbation %q sets loss %v on %s-%s (want 0..1)",
				p.Name, ov.Loss, ov.A, ov.B)
		}
		// Zero means "keep"; negatives are typos, not overrides.
		if ov.Mbps < 0 || ov.DelayMs < 0 || ov.QueueBytes < 0 {
			return nil, fmt.Errorf("mptcpsim: perturbation %q sets a negative value on %s-%s",
				p.Name, ov.A, ov.B)
		}
		// An override with nothing to override is a forgotten field, and
		// would silently run an unperturbed cell under this name.
		if ov.Mbps == 0 && ov.DelayMs == 0 && ov.QueueBytes == 0 && ov.Loss == 0 {
			return nil, fmt.Errorf("mptcpsim: perturbation %q overrides %s-%s without setting any field",
				p.Name, ov.A, ov.B)
		}
		found := false
		for i := range out.Links {
			l := &out.Links[i]
			if (l.A == ov.A && l.B == ov.B) || (l.A == ov.B && l.B == ov.A) {
				found = true
				if ov.Mbps > 0 {
					l.Mbps = ov.Mbps
				}
				if ov.DelayMs > 0 {
					l.DelayMs = ov.DelayMs
				}
				if ov.QueueBytes > 0 {
					l.QueueBytes = ov.QueueBytes
				}
				if ov.Loss > 0 {
					l.Loss = ov.Loss
				}
			}
		}
		if !found {
			return nil, fmt.Errorf("mptcpsim: perturbation %q targets unknown link %s-%s", p.Name, ov.A, ov.B)
		}
	}
	return out, nil
}

// LoadGrid parses a JSON grid spec (see Grid for the schema). Unknown
// fields and trailing data are rejected.
func LoadGrid(r io.Reader) (*Grid, error) {
	var g Grid
	if err := decodeStrict(r, &g); err != nil {
		return nil, fmt.Errorf("mptcpsim: grid: %w", err)
	}
	return &g, nil
}

// RunSpec is one fully resolved point of an expanded grid.
type RunSpec struct {
	// Index is the position in deterministic expansion order.
	Index int
	// Scenario and Perturbation name the topology variant; Events names
	// the dynamic-event set in force ("static" when the axis is unused).
	Scenario, Perturbation, Events string
	// Options holds the complete per-run options (CC, scheduler, ordering,
	// seed and queue scale filled from the grid axes).
	Options Options

	cell *cell
}

// cell is what the runs of one (scenario, perturbation, event set) grid
// cell share: the resolved scenario (what specsDigest digests) and the
// preparation of the network Expand built to validate it, made by the first
// run that asks: a cell none of whose runs execute here solves no LP.
type cell struct {
	scenario *ScenarioFile
	prepared func() (*prepared, error)
}

// Expand resolves defaults and produces the deterministic run list: the
// full cross product with scenarios varying slowest, then perturbations,
// event sets, CC algorithms, schedulers, orderings, and seeds fastest.
func (g *Grid) Expand() ([]RunSpec, error) {
	scenarios := g.Scenarios
	if len(scenarios) == 0 {
		scenarios = []GridScenario{{Name: "paper", Paper: true}}
	}
	type namedScenario struct {
		name string
		file *ScenarioFile
	}
	resolved := make([]namedScenario, len(scenarios))
	for i, s := range scenarios {
		ns := namedScenario{name: s.Name}
		// Exactly one selector: with several set, the library and the CLI
		// (which resolves File into Scenario first) would silently pick
		// different topologies for the same spec.
		selectors := 0
		for _, set := range []bool{s.Paper, s.File != "", s.Scenario != nil} {
			if set {
				selectors++
			}
		}
		if selectors > 1 {
			return nil, fmt.Errorf("mptcpsim: scenario %d sets more than one of paper/file/scenario", i)
		}
		switch {
		case s.Scenario != nil:
			ns.file = s.Scenario
		case s.Paper:
			ns.file = PaperScenario()
			if ns.name == "" {
				ns.name = "paper"
			}
		case s.File != "":
			return nil, fmt.Errorf("mptcpsim: scenario %d references file %q; resolve it into an inline scenario before Expand", i, s.File)
		default:
			return nil, fmt.Errorf("mptcpsim: scenario %d is empty (set paper, file or scenario)", i)
		}
		if ns.name == "" {
			ns.name = fmt.Sprintf("s%d", i+1)
		}
		resolved[i] = ns
	}
	// Group aggregation keys on the name; duplicates would silently pool
	// unrelated topologies into one cell.
	scNames := make([]string, len(resolved))
	for i, sc := range resolved {
		scNames[i] = sc.name
	}
	if err := rejectDuplicateAxis("scenario name", scNames, nil); err != nil {
		return nil, err
	}

	perts := g.Perturbations
	if len(perts) == 0 {
		perts = []Perturbation{{Name: "base"}}
	}
	// Like scenarios, perturbation names key aggregation groups.
	pnames := make([]string, len(perts))
	pfilters := make([]scenarioFilter, len(perts))
	for i, pert := range perts {
		pnames[i] = pert.Name
		if pnames[i] == "" {
			pnames[i] = fmt.Sprintf("p%d", i+1)
		}
		pfilters[i] = pert.Scenarios
	}
	if err := rejectDuplicateAxis("perturbation name", pnames, nil); err != nil {
		return nil, err
	}
	for i, f := range pfilters {
		if err := f.checkKnown("perturbation", perts[i].Name, scNames); err != nil {
			return nil, err
		}
	}

	// The events axis: like perturbations, sets are named, deduplicated,
	// and may be scoped to scenarios; an empty axis is one static pass.
	events := g.Events
	if len(events) == 0 {
		events = []EventSet{{Name: "static"}}
	}
	enames := make([]string, len(events))
	efilters := make([]scenarioFilter, len(events))
	for i, es := range events {
		enames[i] = es.Name
		if enames[i] == "" {
			if len(es.Events) == 0 {
				enames[i] = "static"
			} else {
				enames[i] = fmt.Sprintf("e%d", i+1)
			}
		}
		efilters[i] = es.Scenarios
	}
	if err := rejectDuplicateAxis("event set name", enames, nil); err != nil {
		return nil, err
	}
	for i, f := range efilters {
		if err := f.checkKnown("event set", events[i].Name, scNames); err != nil {
			return nil, err
		}
	}
	// Axis values are validated up front, consistent with the topology
	// pre-build below: a typo'd name is a structural error, not N
	// identical per-run failures.
	ccs := g.CCs
	if len(ccs) == 0 {
		ccs = []string{"cubic"}
	}
	for _, name := range ccs {
		if _, err := cc.New(name); err != nil {
			return nil, fmt.Errorf("mptcpsim: %w", err)
		}
	}
	if err := rejectDuplicateAxis("cc", ccs, strings.ToLower); err != nil {
		return nil, err
	}
	scheds := g.Schedulers
	if len(scheds) == 0 {
		scheds = []string{"minrtt"}
	}
	for _, name := range scheds {
		if _, err := mptcp.NewScheduler(name); err != nil {
			return nil, fmt.Errorf("mptcpsim: %w", err)
		}
	}
	if err := rejectDuplicateAxis("scheduler", scheds, canonicalSchedName); err != nil {
		return nil, err
	}
	orders := g.Orders
	if len(orders) == 0 {
		orders = [][]int{nil}
	}
	// Duplicate orders are checked per scenario so that the empty order
	// (path-definition order) collides with an explicitly spelled-out
	// identity permutation instead of double-counting those runs.
	for _, sc := range resolved {
		n := len(sc.file.Paths)
		orderNames := make([]string, len(orders))
		for i, o := range orders {
			if len(o) == 0 {
				ident := make([]int, n)
				for j := range ident {
					ident[j] = j + 1
				}
				o = ident
			}
			orderNames[i] = orderString(o)
		}
		if err := rejectDuplicateAxis("order", orderNames, nil); err != nil {
			return nil, err
		}
	}
	// A repeated path in one ordering would open two subflows with the
	// same tag and corrupt the greedy baseline.
	for _, o := range orders {
		in := make(map[int]bool, len(o))
		for _, p := range o {
			if in[p] {
				return nil, fmt.Errorf("mptcpsim: order %s lists path %d twice", orderString(o), p)
			}
			in[p] = true
		}
	}
	// Orders apply to every scenario, so each must stay within every
	// scenario's path count — caught here, not as N per-run failures.
	for _, sc := range resolved {
		n := len(sc.file.Paths)
		for _, o := range orders {
			for _, p := range o {
				if p < 1 || p > n {
					return nil, fmt.Errorf("mptcpsim: order %s references path %d of %d in scenario %q",
						orderString(o), p, n, sc.name)
				}
			}
		}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []int64{1}
	}
	seedNames := make([]string, len(seeds))
	for i, s := range seeds {
		if s == 0 {
			s = 1 // withDefaults maps seed 0 to 1, so 0 and 1 collide
		}
		seedNames[i] = strconv.FormatInt(s, 10)
	}
	if err := rejectDuplicateAxis("seed", seedNames, nil); err != nil {
		return nil, err
	}

	base := g.Base
	if g.DurationMs > 0 {
		base.Duration = time.Duration(g.DurationMs * float64(time.Millisecond))
	}
	if g.SampleMs > 0 {
		base.SampleInterval = time.Duration(g.SampleMs * float64(time.Millisecond))
	}
	// Duration and bin width are the same for every run: one structural
	// error here, not N per-run failures.
	eff := base.withDefaults()
	if err := eff.checkBins(); err != nil {
		return nil, err
	}

	var specs []RunSpec
	for _, sc := range resolved {
		if !coversAny(pfilters, sc.name) {
			return nil, fmt.Errorf("mptcpsim: scenario %q is excluded by every perturbation's scenario filter", sc.name)
		}
		if !coversAny(efilters, sc.name) {
			return nil, fmt.Errorf("mptcpsim: scenario %q is excluded by every event set's scenario filter", sc.name)
		}
		for pi, pert := range perts {
			if !pfilters[pi].matches(sc.name) {
				continue
			}
			pname := pnames[pi]
			perturbed, err := pert.apply(sc.file)
			if err != nil {
				return nil, err
			}
			qs := eff.QueueScale
			if pert.QueueScale > 0 {
				qs *= pert.QueueScale
			}
			for ei, es := range events {
				if !efilters[ei].matches(sc.name) {
					continue
				}
				ename := enames[ei]
				withEvents := es.apply(perturbed)
				// Catch broken topologies and timelines now rather than
				// burning the whole sweep on runs that all fail at build
				// time: Build validates every event (times, targets,
				// parameters, down/up pairing) against the final perturbed
				// links.
				nw, err := withEvents.Build()
				if err != nil {
					return nil, fmt.Errorf("mptcpsim: scenario %q / perturbation %q / events %q: %w",
						sc.name, pname, ename, err)
				}
				c := &cell{withEvents, sync.OnceValues(func() (*prepared, error) {
					return prepare(nw, eff.Duration, eff.SampleInterval)
				})}
				for _, ccName := range ccs {
					for _, sched := range scheds {
						for _, order := range orders {
							for _, seed := range seeds {
								opts := base
								opts.CC = ccName
								opts.Scheduler = sched
								opts.SubflowPaths = order
								opts.Seed = seed
								opts.QueueScale = qs
								opts.DisableSACK = base.DisableSACK || pert.DisableSACK
								specs = append(specs, RunSpec{
									Index:        len(specs),
									Scenario:     sc.name,
									Perturbation: pname,
									Events:       ename,
									Options:      opts,
									cell:         c,
								})
							}
						}
					}
				}
			}
		}
	}
	return specs, nil
}
