package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"mptcpsim"
	"mptcpsim/internal/dynamics"
	"mptcpsim/internal/fleet"
	"mptcpsim/internal/lp"
	"mptcpsim/internal/mptcp"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// The traced pass. The program has no spans of its own yet, so the
// benchmark re-implements one grid point's path through the sweep here —
// expand → build → baselines → run → hash → sink → fsync → readlog → merge
// → report — and records a span around
// every call into the program. The phase names are ROADMAP item 1's, so
// the in-program spans of ROADMAP item 5 can later be checked against
// these. The re-implementation is held to the real path by the output
// checks: a traced pass must reproduce the timed passes' results_digest,
// and its merged outputs must match the reference byte for byte.

// span is one timed call: times are nanoseconds since the trace began,
// Parent is the span that caused it (-1 for the pass itself) and Run the
// grid index it worked on (-1 when it is not per-run).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Run    int    `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the pass ends. A nil tracer records
// nothing, so the untraced passes share code with the traced one.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	root  int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), root: -1} }

func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Parent: parent, Run: run, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// rootID is the pass span, or -1 without a tracer.
func (t *tracer) rootID() int {
	if t == nil {
		return -1
	}
	return t.root
}

// writeSpans writes one span per line (NDJSON).
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// phase is one row of the per-phase table: the summed self time of every
// span of that name, where self time is a span's duration minus the part
// of it its child spans cover.
type phase struct {
	Name  string  `json:"name"`
	Spans int     `json:"spans"`
	SelfS float64 `json:"self_s"`
}

// phaseTable folds spans into per-name self time, largest first.
func phaseTable(spans []span) []phase {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*phase{}
	for i, s := range spans {
		p := byName[s.Name]
		if p == nil {
			p = &phase{Name: s.Name}
			byName[s.Name] = p
		}
		p.Spans++
		if self := s.End - s.Start - child[i]; self > 0 {
			p.SelfS += float64(self) / 1e9
		}
	}
	out := make([]phase, 0, len(byName))
	for _, p := range byName {
		out = append(out, *p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfS != out[j].SelfS {
			return out[i].SelfS > out[j].SelfS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// point is one expanded grid point with the scenario the sweep would build
// for it (RunSpec keeps its own copy private). Points of one (scenario,
// perturbation, event set) cell share the cell.
type point struct {
	spec mptcpsim.RunSpec
	*cell
}

// cell is what the points of one grid cell have in common: the scenario
// file, and the topology graph, paths and event timeline rebuilt from it
// the way Network builds them, which is what the LP cache is keyed by.
type cell struct {
	sf    *mptcpsim.ScenarioFile
	graph *topo.Graph
	paths []topo.Path
	tl    *dynamics.Timeline
}

// expandPoints is Grid.Expand plus the per-point cell: the named
// perturbation applied to the named scenario, then the named event set
// appended — what the sweep's own expansion does behind RunSpec.
func expandPoints(g *mptcpsim.Grid) ([]point, error) {
	specs, err := g.Expand()
	if err != nil {
		return nil, err
	}
	type key struct{ scenario, pert, events string }
	built := map[key]*cell{}
	pts := make([]point, len(specs))
	for i, sp := range specs {
		k := key{sp.Scenario, sp.Perturbation, sp.Events}
		c, ok := built[k]
		if !ok {
			sf, err := cellScenario(g, sp.Scenario, sp.Perturbation, sp.Events)
			if err != nil {
				return nil, err
			}
			if c, err = newCell(sf); err != nil {
				return nil, err
			}
			built[k] = c
		}
		pts[i] = point{spec: sp, cell: c}
	}
	return pts, nil
}

func cellScenario(g *mptcpsim.Grid, scenario, pert, events string) (*mptcpsim.ScenarioFile, error) {
	base := mptcpsim.PaperScenario()
	for _, s := range g.Scenarios {
		if s.Name == scenario && s.Scenario != nil {
			base = s.Scenario
		}
	}
	out := &mptcpsim.ScenarioFile{
		Links:     append([]mptcpsim.ScenarioLink(nil), base.Links...),
		Endpoints: base.Endpoints,
		Paths:     base.Paths,
		Events:    append([]mptcpsim.ScenarioEvent(nil), base.Events...),
	}
	for _, p := range g.Perturbations {
		if p.Name != pert {
			continue
		}
		for i := range out.Links {
			l := &out.Links[i]
			if p.DelayScale > 0 {
				l.DelayMs *= p.DelayScale
			}
			if p.Loss > 0 {
				l.Loss = math.Min(l.Loss+p.Loss, 1)
			}
		}
		for _, ov := range p.Links {
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
				return nil, fmt.Errorf("perturbation %q targets unknown link %s-%s", pert, ov.A, ov.B)
			}
		}
	}
	for _, es := range g.Events {
		if es.Name == events {
			out.Events = append(out.Events, es.Events...)
		}
	}
	return out, nil
}

// scenarioGraph rebuilds the topology graph and paths of a scenario file
// the way Network does: same node and link order, same rounding.
func scenarioGraph(sf *mptcpsim.ScenarioFile) (*topo.Graph, []topo.Path, error) {
	g := topo.New()
	for _, l := range sf.Links {
		a, b := g.AddNode(l.A), g.AddNode(l.B)
		delay := time.Duration(math.Round(l.DelayMs * float64(time.Millisecond)))
		g.AddDuplex(a, b, unit.Rate(math.Round(l.Mbps*float64(unit.Mbps))), delay, 0)
	}
	paths := make([]topo.Path, len(sf.Paths))
	for i, sp := range sf.Paths {
		var p topo.Path
		for j, name := range sp.Nodes {
			id, ok := g.NodeByName(name)
			if !ok {
				return nil, nil, fmt.Errorf("path %d: unknown node %q", i+1, name)
			}
			p.Nodes = append(p.Nodes, id)
			if j > 0 {
				lid, ok := g.FindLink(p.Nodes[j-1], id)
				if !ok {
					return nil, nil, fmt.Errorf("path %d: no link %s-%s", i+1, sp.Nodes[j-1], name)
				}
				p.Links = append(p.Links, lid)
			}
		}
		paths[i] = p
	}
	return g, paths, nil
}

// newCell rebuilds the LP inputs of a scenario file.
func newCell(sf *mptcpsim.ScenarioFile) (*cell, error) {
	g, paths, err := scenarioGraph(sf)
	if err != nil {
		return nil, err
	}
	c := &cell{sf: sf, graph: g, paths: paths}
	if len(sf.Events) == 0 {
		return c, nil
	}
	evs := make([]dynamics.Event, len(sf.Events))
	for i, se := range sf.Events {
		kind, err := dynamics.ParseKind(se.Type)
		if err != nil {
			return nil, err
		}
		ms := func(v float64) time.Duration {
			return time.Duration(math.Round(v * float64(time.Millisecond)))
		}
		evs[i] = dynamics.Event{
			At: ms(se.AtMs), Kind: kind, A: se.A, B: se.B,
			Rate:  unit.Rate(math.Round(se.Mbps * float64(unit.Mbps))),
			Delay: ms(se.DelayMs), Loss: se.Loss, Burst: ms(se.DurationMs),
		}
	}
	c.tl, err = dynamics.New(g, evs)
	return c, err
}

// primeBaselines solves (or finds cached) every LP a run of the cell over
// duration will look up, by the same calls Run makes, so that Run's own
// lookups hit the cache and the LP cost lands in its own span.
func (c *cell) primeBaselines(duration time.Duration) error {
	if _, err := lp.CachedBaselines(c.graph, c.paths); err != nil {
		return err
	}
	if c.tl == nil {
		return nil
	}
	for _, st := range c.tl.EpochStarts(duration) {
		if _, err := lp.CachedBaselinesCaps(c.graph, c.paths, c.tl.CapsAt(st, c.graph)); err != nil {
			return err
		}
	}
	return nil
}

// summarise labels a finished run the way the sweep does.
func summarise(sp mptcpsim.RunSpec, r *mptcpsim.Result, err error) mptcpsim.RunSummary {
	s := mptcpsim.RunSummary{
		Index:        sp.Index,
		Scenario:     sp.Scenario,
		Perturbation: sp.Perturbation,
		Events:       sp.Events,
		CC:           strings.ToLower(sp.Options.CC),
		Scheduler:    sp.Options.Scheduler,
		Order:        sp.Options.SubflowPaths,
		Seed:         sp.Options.Seed,
	}
	if sched, serr := mptcp.NewScheduler(sp.Options.Scheduler); serr == nil {
		s.Scheduler = sched.Name()
	}
	if err != nil {
		s.Err = err.Error()
		return s
	}
	s.OptimumMbps = r.Optimum.Total
	s.TargetMbps = r.Summary.Target
	for _, v := range r.Greedy {
		s.GreedyMbps += v
	}
	s.TotalMbps = r.Summary.TotalMean
	s.Gap = r.Summary.Gap
	s.Converged = r.Summary.Converged
	if s.Converged {
		s.ConvergedAtS = r.Summary.ConvergedAt.Seconds()
	}
	s.PostCoV = r.Summary.PostCoV
	s.PathMbps = r.Summary.PathMeans
	return s
}

// delivery is a finished run on its way to a sink; sinkSpan is the span
// the delivery runs under, so an fsync it triggers can name its parent.
type delivery struct {
	done, total int
	summary     mptcpsim.RunSummary
	result      *mptcpsim.Result
	hash        string
	sinkSpan    int
}

// streamer is the traced stand-in for Sweep.execute at one worker.
type streamer struct {
	tr *tracer
	u  *outcome
}

// run takes pts through build → baselines → run → hash, one after the
// other, and hands each finished run to accept, like Sweep.execute. Every
// span hangs off parent.
func (s *streamer) run(parent int, pts []point, accept func(delivery) error) error {
	tr := s.tr
	for done, pt := range pts {
		run := pt.spec.Index
		var r *mptcpsim.Result

		id := tr.begin("build", parent, run)
		nw, err := pt.sf.Build()
		tr.end(id)
		if err == nil {
			id = tr.begin("baselines", parent, run)
			err = pt.primeBaselines(pt.spec.Options.Duration)
			tr.end(id)
		}
		if err == nil {
			cached := lp.BaselineCacheSize()
			id = tr.begin("run", parent, run)
			r, err = mptcpsim.Run(nw, pt.spec.Options)
			tr.end(id)
			// Growth here means Run solved an LP the baselines span
			// should have: the cell's rebuilt graph drifted from
			// Network's.
			if lp.BaselineCacheSize() != cached {
				s.u.problem = fmt.Sprintf("run %d: Run missed the baseline cache after priming", run)
			}
		}
		id = tr.begin("hash", parent, run)
		d := delivery{done: done + 1, total: len(pts), summary: summarise(pt.spec, r, err), result: r}
		if err == nil {
			d.hash = r.Hash()
		}
		tr.end(id)

		d.sinkSpan = tr.begin("sink", parent, run)
		err = accept(d)
		tr.end(d.sinkSpan)
		if err != nil {
			return err
		}
	}
	return nil
}

// shardOf keeps the points of shard k of n.
func shardOf(pts []point, k, n int) []point {
	var mine []point
	for _, pt := range pts {
		if pt.spec.Index%n == k {
			mine = append(mine, pt)
		}
	}
	return mine
}

// describe is Sweep.Describe plus the benchmark's own per-point scenarios,
// under one expand span.
func describe(tr *tracer, parent int, sw *mptcpsim.Sweep, g *mptcpsim.Grid) (pts []point, digest string, err error) {
	id := tr.begin("expand", parent, -1)
	defer tr.end(id)
	digest, _, err = sw.Describe(g)
	if err != nil {
		return nil, "", err
	}
	pts, err = expandPoints(g)
	return pts, digest, err
}

// tracedPass is runPass with every phase under a span of tr.
func tracedPass(e *env, w *workload, g *mptcpsim.Grid, tr *tracer) (*outcome, error) {
	tr.root = tr.begin("pass", -1, -1)
	u, err := tracedStyle(e, w, g, tr)
	tr.end(tr.root)
	if u != nil {
		u.spans = tr.spans
	}
	return u, err
}

func tracedStyle(e *env, w *workload, g *mptcpsim.Grid, tr *tracer) (*outcome, error) {
	sw := &mptcpsim.Sweep{Workers: 1}
	pts, digest, err := describe(tr, tr.root, sw, g)
	if err != nil {
		return nil, err
	}
	total := len(pts)
	u := &outcome{attempted: total, sink: newCountSink(total)}

	if w.style == styleCount {
		s := &streamer{tr: tr, u: u}
		err := s.run(tr.root, pts, func(d delivery) error {
			u.sink.record(d.summary, d.result, d.hash)
			return nil
		})
		return u, err
	}

	dir, err := os.MkdirTemp(e.dir, "logs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	paths := make([]string, shardCount)
	for k := range paths {
		paths[k] = fleet.ShardLogPath(dir, k, shardCount)
		// Each real shard stream expands the grid again; the first
		// expansion was describe's.
		if k > 0 {
			id := tr.begin("expand", tr.root, -1)
			pts, err = expandPoints(g)
			tr.end(id)
			if err != nil {
				return nil, err
			}
		}
		f, err := os.Create(paths[k])
		if err != nil {
			return nil, err
		}
		header := mptcpsim.RunLogHeader{GridDigest: digest, K: k, N: shardCount, Total: total}
		err = tracedLog(tr, u, tr.root, f, header, shardOf(pts, k, shardCount))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	return u, mergeLogs(u, paths, tr)
}

// tracedLog streams pts into a run-log on f the way a shard stream does,
// counting and timing its fsyncs.
func tracedLog(tr *tracer, u *outcome, parent int, f *os.File, header mptcpsim.RunLogHeader, pts []point) error {
	sinkSpan := parent
	ls, err := mptcpsim.NewLogSink(f, header, mptcpsim.LogOptions{
		Sync: u.timedSync(f, tr, &sinkSpan)})
	if err != nil {
		return err
	}
	s := &streamer{tr: tr, u: u}
	err = s.run(parent, pts, func(d delivery) error {
		sinkSpan = d.sinkSpan
		aerr := ls.Accept(d.done, d.total, d.summary, d.result)
		u.sink.record(d.summary, d.result, d.hash)
		return aerr
	})
	sinkSpan = parent
	if cerr := ls.Close(); err == nil {
		err = cerr
	}
	return err
}
