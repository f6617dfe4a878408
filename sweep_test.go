package mptcpsim

import (
	"bytes"
	"encoding/csv"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"mptcpsim/internal/lp"
)

func TestGridExpandOrder(t *testing.T) {
	g := &Grid{
		CCs:    []string{"cubic", "olia"},
		Orders: [][]int{{1, 2, 3}, {2, 1, 3}},
		Seeds:  []int64{1, 2},
		Perturbations: []Perturbation{
			{Name: "base"},
			{Name: "shallow", QueueScale: 0.5},
		},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2*2*2*2 {
		t.Fatalf("expanded %d specs, want 16", len(specs))
	}
	// Seeds vary fastest, then orders, then CCs, then perturbations.
	if specs[0].Options.Seed != 1 || specs[1].Options.Seed != 2 {
		t.Fatalf("seeds not fastest axis: %d, %d", specs[0].Options.Seed, specs[1].Options.Seed)
	}
	if !reflect.DeepEqual(specs[2].Options.SubflowPaths, []int{2, 1, 3}) {
		t.Fatalf("order axis wrong: %v", specs[2].Options.SubflowPaths)
	}
	if specs[4].Options.CC != "olia" {
		t.Fatalf("cc axis wrong: %q", specs[4].Options.CC)
	}
	if specs[8].Perturbation != "shallow" {
		t.Fatalf("perturbation axis wrong: %q", specs[8].Perturbation)
	}
	if specs[8].Options.QueueScale != 0.5 {
		t.Fatalf("perturbation queue scale not forwarded: %v", specs[8].Options.QueueScale)
	}
	for i, s := range specs {
		if s.Index != i {
			t.Fatalf("spec %d has index %d", i, s.Index)
		}
		if s.Scenario != "paper" {
			t.Fatalf("default scenario = %q, want paper", s.Scenario)
		}
	}
}

func TestPerturbationScenarioFilter(t *testing.T) {
	wifi := PaperScenario() // stand-in second scenario
	g := &Grid{
		Scenarios: []GridScenario{
			{Name: "paper", Paper: true},
			{Name: "other", Scenario: wifi},
		},
		Perturbations: []Perturbation{
			{Name: "base"},
			{Name: "only-other", Scenarios: []string{"other"}, DelayScale: 2},
		},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 3 {
		t.Fatalf("expanded %d specs, want 3 (paper/base, other/base, other/only-other)", len(specs))
	}
	for _, s := range specs {
		if s.Scenario == "paper" && s.Perturbation == "only-other" {
			t.Fatal("scoped perturbation applied to the wrong scenario")
		}
	}
}

func TestGridExpandRejectsUnknownScenarioFilter(t *testing.T) {
	g := &Grid{
		Perturbations: []Perturbation{{Name: "lossy", Scenarios: []string{"papr"}, Loss: 0.01}},
	}
	if _, err := g.Expand(); err == nil {
		t.Fatal("accepted a perturbation scoped to a nonexistent scenario")
	}
}

func TestGridExpandRejectsFullyExcludedScenario(t *testing.T) {
	g := &Grid{
		Scenarios: []GridScenario{
			{Name: "a", Paper: true},
			{Name: "b", Paper: true},
		},
		Perturbations: []Perturbation{{Name: "lossy", Scenarios: []string{"a"}, Loss: 0.01}},
	}
	if _, err := g.Expand(); err == nil {
		t.Fatal("accepted a grid whose filters drop scenario b entirely")
	}
}

func TestGridExpandRejectsDuplicateScenarioNames(t *testing.T) {
	g := &Grid{Scenarios: []GridScenario{
		{Name: "paper", Paper: true},
		{Name: "paper", Scenario: PaperScenario()},
	}}
	if _, err := g.Expand(); err == nil {
		t.Fatal("accepted duplicate scenario names (groups would pool unrelated topologies)")
	}
}

func TestGridExpandRejectsDuplicatePerturbationNames(t *testing.T) {
	for name, perts := range map[string][]Perturbation{
		"explicit": {{Name: "lossy", Loss: 0.001}, {Name: "lossy", Loss: 0.05}},
		"default":  {{QueueScale: 2}, {Name: "p1", Loss: 0.01}},
	} {
		g := &Grid{Perturbations: perts}
		if _, err := g.Expand(); err == nil {
			t.Errorf("%s: accepted duplicate perturbation names", name)
		}
	}
}

func TestPerturbationRejectsBadLinkLoss(t *testing.T) {
	for name, pert := range map[string]Perturbation{
		"loss > 1":        {Name: "bad", Links: []LinkPerturbation{{A: "s", B: "v1", Loss: 1.5}}},
		"negative":        {Name: "bad", Links: []LinkPerturbation{{A: "s", B: "v1", Mbps: -10}}},
		"negative global": {Name: "bad", Loss: -0.005},
		"negative scale":  {Name: "bad", DelayScale: -1},
	} {
		g := &Grid{Perturbations: []Perturbation{pert}}
		if _, err := g.Expand(); err == nil {
			t.Errorf("%s: accepted at expansion time", name)
		}
	}
}

func TestGridExpandValidatesInlineScenario(t *testing.T) {
	broken := &ScenarioFile{
		Links: []ScenarioLink{{A: "a", B: "b", Mbps: 10, DelayMs: 1}},
		Paths: []ScenarioPath{{Nodes: []string{"a", "missing"}}},
	}
	broken.Endpoints.Src, broken.Endpoints.Dst = "a", "b"
	g := &Grid{Scenarios: []GridScenario{{Name: "broken", Scenario: broken}}}
	if _, err := g.Expand(); err == nil {
		t.Fatal("expanded a grid whose inline scenario cannot build")
	}
}

func TestGridExpandRejectsUnresolvedFile(t *testing.T) {
	g := &Grid{Scenarios: []GridScenario{{Name: "x", File: "x.json"}}}
	if _, err := g.Expand(); err == nil {
		t.Fatal("expanded a grid with an unresolved file reference")
	}
}

func TestGridExpandRejectsAmbiguousScenario(t *testing.T) {
	g := &Grid{Scenarios: []GridScenario{{Name: "x", Paper: true, Scenario: PaperScenario()}}}
	if _, err := g.Expand(); err == nil {
		t.Fatal("accepted a scenario with more than one selector set")
	}
}

func TestLoadGrid(t *testing.T) {
	src := `{
		"ccs": ["cubic", "lia"],
		"orders": [[2,1,3]],
		"seeds": [7],
		"duration_ms": 250,
		"perturbations": [{"name": "lossy", "loss": 0.01}]
	}`
	g, err := LoadGrid(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("expanded %d specs, want 2", len(specs))
	}
	if specs[0].Options.Duration != 250*time.Millisecond {
		t.Fatalf("duration = %v", specs[0].Options.Duration)
	}
	if specs[0].Options.Seed != 7 || specs[0].Perturbation != "lossy" {
		t.Fatalf("spec = %+v", specs[0])
	}

	if _, err := LoadGrid(strings.NewReader(src + "\n\t \n")); err != nil {
		t.Fatalf("trailing whitespace refused: %v", err)
	}
	for name, bad := range map[string]string{
		"unknown field":      `{"zzz": 1}`,
		"two grids":          `{"ccs":["olia"]} {"ccs":["cubic"]}`,
		"trailing garbage":   `{"ccs":["olia"]} garbage`,
		"trailing delimiter": `{"ccs":["olia"]}]`,
	} {
		if _, err := LoadGrid(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPerturbationApply(t *testing.T) {
	sf := PaperScenario()
	p := Perturbation{
		DelayScale: 2,
		Loss:       0.01,
		Links:      []LinkPerturbation{{A: "v1", B: "s", Mbps: 20, QueueBytes: 9000}},
	}
	out, err := p.apply(sf)
	if err != nil {
		t.Fatal(err)
	}
	// Original untouched.
	if sf.Links[0].DelayMs != 1 || sf.Links[0].Loss != 0 {
		t.Fatalf("perturbation mutated the input: %+v", sf.Links[0])
	}
	if out.Links[0].DelayMs != 2 || out.Links[0].Loss != 0.01 {
		t.Fatalf("global perturbation not applied: %+v", out.Links[0])
	}
	// The link override matches s-v1 in reverse direction.
	if out.Links[0].Mbps != 20 || out.Links[0].QueueBytes != 9000 {
		t.Fatalf("link override not applied: %+v", out.Links[0])
	}
	if _, err := out.Build(); err != nil {
		t.Fatalf("perturbed scenario does not build: %v", err)
	}

	if _, err := (Perturbation{Links: []LinkPerturbation{{A: "no", B: "pe", Mbps: 5}}}).apply(sf); err == nil {
		t.Fatal("accepted a perturbation of an unknown link")
	}
	if _, err := (Perturbation{Links: []LinkPerturbation{{A: "s", B: "v1"}}}).apply(sf); err == nil {
		t.Fatal("accepted a link override that sets no field")
	}

	if _, err := (Perturbation{Loss: 2}).apply(sf); err == nil {
		t.Fatal("accepted a global loss above 1 (typo'd percentage)")
	}

	// Added loss on an already-lossy link still clamps the sum at 1.
	lossy := &ScenarioFile{Links: append([]ScenarioLink(nil), sf.Links...)}
	lossy.Endpoints = sf.Endpoints
	lossy.Paths = sf.Paths
	lossy.Links[0].Loss = 0.8
	summed, err := (Perturbation{Loss: 0.5}).apply(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if summed.Links[0].Loss != 1 {
		t.Fatalf("summed loss not capped: %v", summed.Links[0].Loss)
	}
}

// TestSweepDeterminism is the acceptance check: the same grid produces a
// bit-identical SweepResult no matter how many workers execute it, and
// across repeated executions. The lossy perturbation matters: it puts
// random loss on every link, which once exposed a map-iteration-order
// nondeterminism in the per-link RNG assignment.
func TestSweepDeterminism(t *testing.T) {
	grid := &Grid{
		CCs:    []string{"cubic", "olia"},
		Orders: [][]int{{2, 1, 3}, {1, 2, 3}},
		Seeds:  []int64{1, 2},
		Perturbations: []Perturbation{
			{Name: "base"},
			{Name: "lossy", Loss: 0.005},
		},
		DurationMs: 200,
	}
	var outputs []string
	for _, workers := range []int{1, 8, 8} {
		s := &Sweep{Workers: workers}
		res, err := s.Run(grid)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Runs) != 16 {
			t.Fatalf("workers=%d: %d runs, want 16", workers, len(res.Runs))
		}
		if n := res.Errs(); n != 0 {
			t.Fatalf("workers=%d: %d runs failed: %+v", workers, n, res.Runs)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("sweep output differs between 1 and 8 workers:\n--- w1 ---\n%s\n--- w8 ---\n%s",
			outputs[0], outputs[1])
	}
	if outputs[1] != outputs[2] {
		t.Fatal("sweep output differs between two identical executions")
	}
}

func TestSweepGapsAndGroups(t *testing.T) {
	grid := &Grid{
		CCs:        []string{"cubic", "lia"},
		Orders:     [][]int{{2, 1, 3}, {1, 2, 3}},
		DurationMs: 200,
	}
	mem := &MemorySink{}
	full := make(map[int]*Result)
	keep := sinkFunc(func(_, _ int, s RunSummary, r *Result) { full[s.Index] = r })
	if err := (&Sweep{Workers: 4}).Stream(grid, StreamSpec{}, MultiSink(mem, keep)); err != nil {
		t.Fatal(err)
	}
	res := mem.Result()
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %d, want 2 (one per CC)", len(res.Groups))
	}
	for _, g := range res.Groups {
		if g.Runs != 2 {
			t.Fatalf("group %s has %d runs, want 2", g.CC, g.Runs)
		}
		if g.Gap.N != 2 {
			t.Fatalf("group %s gap sample = %d", g.CC, g.Gap.N)
		}
	}
	if res.Gap.N != 4 {
		t.Fatalf("overall gap sample = %d, want 4", res.Gap.N)
	}
	for _, run := range res.Runs {
		if math.Abs(run.OptimumMbps-90) > 1e-6 {
			t.Fatalf("run %d LP optimum = %v, want 90", run.Index, run.OptimumMbps)
		}
		if run.Gap <= -0.5 || run.Gap >= 1 {
			t.Fatalf("run %d gap out of range: %v", run.Index, run.Gap)
		}
		// The per-run gap must be consistent with the full Result the
		// sink chain was handed.
		if full[run.Index] == nil {
			t.Fatalf("no full result delivered for run %d", run.Index)
		}
		if got := full[run.Index].Summary.Gap; got != run.Gap {
			t.Fatalf("run %d summary gap %v != sweep gap %v", run.Index, got, run.Gap)
		}
	}
}

func TestGridExpandRejectsUnknownAxisValues(t *testing.T) {
	for name, g := range map[string]*Grid{
		"cc":        {CCs: []string{"cubci"}},
		"scheduler": {Schedulers: []string{"blast"}},
	} {
		if _, err := g.Expand(); err == nil {
			t.Errorf("%s: typo'd axis value accepted at expansion time", name)
		}
	}
}

// TestGridExpandRejectsTooManyBins: the bin bound is one structural error at
// expansion, not one failure per run; a bin wider than the run still expands.
func TestGridExpandRejectsTooManyBins(t *testing.T) {
	_, err := (&Grid{SampleMs: 1e-6, Seeds: []int64{1, 2, 3}}).Expand()
	if err == nil || !strings.Contains(err.Error(), "1048576") {
		t.Fatalf("sample_ms 1e-6 (4e9 bins per series): err = %v, want the bin bound", err)
	}
	if _, err := (&Grid{DurationMs: 50}).Expand(); err != nil {
		t.Fatalf("50 ms runs on the 100 ms default bin must expand: %v", err)
	}
}

func TestGridExpandRejectsDuplicateAxisValues(t *testing.T) {
	for name, g := range map[string]*Grid{
		"cc":          {CCs: []string{"cubic", "CUBIC"}},
		"scheduler":   {Schedulers: []string{"", "minrtt"}},
		"sched alias": {Schedulers: []string{"rr", "roundrobin"}},
		"order":       {Orders: [][]int{{1, 2}, {1, 2}}},
		"seed":        {Seeds: []int64{3, 3}},
		"seed 0 vs 1": {Seeds: []int64{0, 1}},
	} {
		if _, err := g.Expand(); err == nil {
			t.Errorf("%s: duplicate axis value accepted (would double-count runs)", name)
		}
	}
}

func TestGridExpandRejectsBadOrder(t *testing.T) {
	for name, orders := range map[string][][]int{
		"out of range":   {{1, 2, 3}, {9, 1, 2}},
		"repeated":       {{2, 2, 1}},
		"auto collision": {{}, {1, 2, 3}},
	} {
		g := &Grid{Orders: orders}
		if _, err := g.Expand(); err == nil {
			t.Errorf("%s: bad order accepted at expansion time", name)
		}
	}
}

func TestRunRejectsRepeatedSubflowPath(t *testing.T) {
	if _, err := RunPaper(Options{SubflowPaths: []int{2, 2, 1}, Duration: 100 * time.Millisecond}); err == nil {
		t.Fatal("Run accepted a repeated subflow path (duplicate tag, corrupted greedy baseline)")
	}
}

func TestSweepLabelsUseCanonicalSpellings(t *testing.T) {
	grid := &Grid{
		CCs:        []string{"CUBIC"},
		Schedulers: []string{"rr"},
		DurationMs: 100,
	}
	res, err := (&Sweep{Workers: 1}).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs[0].CC != "cubic" || res.Runs[0].Scheduler != "roundrobin" {
		t.Fatalf("labels not canonical: cc=%q scheduler=%q", res.Runs[0].CC, res.Runs[0].Scheduler)
	}
}

func TestSweepRecordsRunErrors(t *testing.T) {
	// Base options flow through Expand unvalidated (they are Run's
	// domain); a failure there must be recorded per run, not abort the
	// sweep.
	grid := &Grid{
		CCs:        []string{"cubic", "olia"},
		DurationMs: 100,
		Base:       Options{CrossTCP: []int{9}},
	}
	res, err := (&Sweep{Workers: 2}).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Errs() != 2 {
		t.Fatalf("errs = %d, want 2", res.Errs())
	}
	for _, run := range res.Runs {
		if run.Err == "" {
			t.Fatalf("missing run error: %+v", run)
		}
	}
	// Failed runs join their groups as errors, not samples.
	for _, g := range res.Groups {
		if g.Errors != 1 || g.Runs != 0 {
			t.Fatalf("group error accounting wrong: %+v", g)
		}
	}
	if res.Gap.N != 0 {
		t.Fatalf("overall gap includes failed runs: N=%d", res.Gap.N)
	}
	// Failed rows blank their metric cells so a 0.00 gap cannot be read
	// as an optimal run.
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[1:] {
		// gap_pct (12), optimum_mbps (8), target_mbps (9), converged (13).
		if rec[12] != "" || rec[8] != "" || rec[9] != "" || rec[13] != "" {
			t.Fatalf("failed run has metric cells: %v", rec)
		}
		if rec[16] == "" {
			t.Fatalf("failed run missing err cell: %v", rec)
		}
	}
}

func TestSweepCSVOutputs(t *testing.T) {
	grid := &Grid{DurationMs: 100}
	res, err := (&Sweep{Workers: 1}).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	var runs, groups bytes.Buffer
	if err := res.WriteCSV(&runs); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteGroupsCSV(&groups); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(runs.String(), "\n"); lines != 2 {
		t.Fatalf("runs CSV has %d lines, want header+1", lines)
	}
	if !strings.HasPrefix(runs.String(), "index,scenario,") {
		t.Fatalf("runs CSV header: %q", runs.String())
	}
	if lines := strings.Count(groups.String(), "\n"); lines != 2 {
		t.Fatalf("groups CSV has %d lines, want header+1", lines)
	}
	var report bytes.Buffer
	if err := res.Report(&report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report.String(), "sweep: 1 runs") {
		t.Fatalf("report: %q", report.String())
	}
}

func TestSweepCSVEscapesNames(t *testing.T) {
	// Scenario and perturbation names come straight from user JSON and may
	// contain CSV metacharacters.
	grid := &Grid{
		Scenarios:     []GridScenario{{Name: `paper, "v2"`, Paper: true}},
		Perturbations: []Perturbation{{Name: "a,b"}},
		DurationMs:    100,
	}
	res, err := (&Sweep{Workers: 1}).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	var runs, groups bytes.Buffer
	if err := res.WriteCSV(&runs); err != nil {
		t.Fatal(err)
	}
	if err := res.WriteGroupsCSV(&groups); err != nil {
		t.Fatal(err)
	}
	for name, out := range map[string]string{"runs": runs.String(), "groups": groups.String()} {
		if !strings.Contains(out, `"paper, ""v2"""`) || !strings.Contains(out, `"a,b"`) {
			t.Fatalf("%s CSV not escaped:\n%s", name, out)
		}
	}
	// Field counts stay aligned despite the embedded commas.
	rows := strings.Split(strings.TrimSpace(runs.String()), "\n")
	r := csv.NewReader(strings.NewReader(runs.String()))
	recs, err := r.ReadAll()
	if err != nil {
		t.Fatalf("runs CSV unparseable: %v\n%s", err, runs.String())
	}
	if len(recs) != len(rows) || len(recs[0]) != len(recs[1]) {
		t.Fatalf("runs CSV misaligned: %v", recs)
	}
}

// handoverEvents is a link_down/link_up pair on the paper network's s-v1
// link for grid tests.
func handoverEvents() []ScenarioEvent {
	return []ScenarioEvent{
		{AtMs: 100, Type: EventLinkDown, A: "s", B: "v1"},
		{AtMs: 150, Type: EventLinkUp, A: "s", B: "v1"},
	}
}

func TestGridEventsAxisExpansion(t *testing.T) {
	g := &Grid{
		CCs:   []string{"cubic", "olia"},
		Seeds: []int64{1, 2},
		Events: []EventSet{
			{Name: "static"},
			{Name: "outage", Events: handoverEvents()},
		},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2*2*2 {
		t.Fatalf("expanded %d specs, want 8", len(specs))
	}
	// Event sets vary slower than CCs: the first 4 specs are static.
	for i, s := range specs {
		want := "static"
		if i >= 4 {
			want = "outage"
		}
		if s.Events != want {
			t.Fatalf("spec %d events = %q, want %q", i, s.Events, want)
		}
	}
	if specs[4].Options.CC != "cubic" || specs[6].Options.CC != "olia" {
		t.Fatalf("cc axis wrong under events: %q, %q", specs[4].Options.CC, specs[6].Options.CC)
	}
}

func TestGridEventsAxisValidation(t *testing.T) {
	for name, g := range map[string]*Grid{
		"unknown link": {Events: []EventSet{{Name: "bad", Events: []ScenarioEvent{
			{AtMs: 100, Type: EventLinkDown, A: "s", B: "nowhere"}}}}},
		"bad type": {Events: []EventSet{{Name: "bad", Events: []ScenarioEvent{
			{AtMs: 100, Type: "zap", A: "s", B: "v1"}}}}},
		"negative time": {Events: []EventSet{{Name: "bad", Events: []ScenarioEvent{
			{AtMs: -1, Type: EventLinkDown, A: "s", B: "v1"}}}}},
		"up without down": {Events: []EventSet{{Name: "bad", Events: []ScenarioEvent{
			{AtMs: 100, Type: EventLinkUp, A: "s", B: "v1"}}}}},
		"duplicate names": {Events: []EventSet{{Name: "x"}, {Name: "x"}}},
		"unknown scenario filter": {Events: []EventSet{{Name: "x",
			Scenarios: []string{"papr"}, Events: handoverEvents()}}},
		"fully excluded scenario": {
			Scenarios: []GridScenario{{Name: "a", Paper: true}, {Name: "b", Paper: true}},
			Events:    []EventSet{{Name: "x", Scenarios: []string{"a"}}},
		},
	} {
		if _, err := g.Expand(); err == nil {
			t.Errorf("%s: accepted at expansion time", name)
		}
	}
}

// TestGridEventTargetsValidatedAgainstPerturbedLinks: event validation
// runs on the final (perturbed) topology, so a perturbation cannot smuggle
// a broken event target past expansion.
func TestGridEventTargetsValidatedAgainstPerturbedLinks(t *testing.T) {
	g := &Grid{
		Events: []EventSet{{Name: "outage", Events: handoverEvents()}},
		Perturbations: []Perturbation{
			{Name: "base"},
			{Name: "lossy", Loss: 0.001},
		},
	}
	specs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// base and lossy each cross the outage set.
	if len(specs) != 2 {
		t.Fatalf("expanded %d specs, want 2", len(specs))
	}
	// The perturbation's loss survives in the event-carrying scenario.
	if specs[1].cell.scenario.Links[0].Loss == 0 {
		t.Fatal("perturbation dropped by event-set application")
	}
	if len(specs[1].cell.scenario.Events) != 2 {
		t.Fatal("events dropped by perturbation application")
	}
}

// TestSweepDeterminismWithEvents is the acceptance check for the dynamic
// axis: a grid containing a LinkDown event timeline produces bit-identical
// output for any worker count.
func TestSweepDeterminismWithEvents(t *testing.T) {
	grid := &Grid{
		CCs:   []string{"cubic", "olia"},
		Seeds: []int64{1, 2},
		Events: []EventSet{
			{Name: "static"},
			{Name: "outage", Events: []ScenarioEvent{
				{AtMs: 2000, Type: EventLinkDown, A: "s", B: "v1"},
			}},
		},
	}
	var outputs []string
	for _, workers := range []int{1, 8} {
		res, err := (&Sweep{Workers: workers}).Run(grid)
		if err != nil {
			t.Fatal(err)
		}
		if n := res.Errs(); n != 0 {
			t.Fatalf("workers=%d: %d runs failed: %+v", workers, n, res.Runs)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, buf.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatal("event sweep output differs between 1 and 8 workers")
	}
	// The outage cells see the piecewise optimum: their gap is measured
	// against the time-weighted target, so the runs stay comparable.
	res, err := (&Sweep{Workers: 4}).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 4 {
		t.Fatalf("groups = %d, want 4 (2 event sets x 2 CCs)", len(res.Groups))
	}
	for _, g := range res.Groups {
		if g.Events != "static" && g.Events != "outage" {
			t.Fatalf("group events label %q", g.Events)
		}
	}
	// TargetMbps reconciles the exported Gap with the exported totals:
	// static cells target the LP optimum, outage cells the (lower)
	// time-weighted piecewise optimum.
	for _, run := range res.Runs {
		if run.Events == "static" && run.TargetMbps != run.OptimumMbps {
			t.Fatalf("static run target %v != optimum %v", run.TargetMbps, run.OptimumMbps)
		}
		if run.Events == "outage" && run.TargetMbps >= run.OptimumMbps {
			t.Fatalf("outage run target %v not below optimum %v", run.TargetMbps, run.OptimumMbps)
		}
		if got := 1 - run.TotalMbps/run.TargetMbps; math.Abs(got-run.Gap) > 1e-9 {
			t.Fatalf("gap %v does not reconcile with total/target (%v)", run.Gap, got)
		}
	}
}

// TestSweepPreparesEachCellOnce: the 24 runs of one grid cell share one
// cell value, and sweeping them — from a cold cache, across 8 workers, in
// shuffled order — fetches the cell's baselines once (the cache ends up
// holding exactly the cell's distinct epoch problems) and produces a
// SweepResult byte-identical to the in-order single-worker sweep.
func TestSweepPreparesEachCellOnce(t *testing.T) {
	grid := &Grid{
		CCs:    []string{"cubic", "reno", "lia", "olia", "balia", "wvegas"},
		Orders: [][]int{{2, 1, 3}, {1, 2, 3}},
		Seeds:  []int64{1, 2},
		Events: []EventSet{{Name: "renegotiate", Events: []ScenarioEvent{
			{AtMs: 100, Type: EventSetRate, A: "v2", B: "v3", Mbps: 40},
			// Past the run's end: opens no epoch, so it must solve nothing.
			{AtMs: 900, Type: EventSetRate, A: "v2", B: "v3", Mbps: 20},
		}}},
		DurationMs: 200,
	}
	want, err := (&Sweep{Workers: 1}).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 24 {
		t.Fatalf("expanded %d specs, want 24", len(specs))
	}
	for _, sp := range specs {
		if sp.cell == nil || sp.cell != specs[0].cell {
			t.Fatalf("run %d does not share the cell's value", sp.Index)
		}
	}
	rand.New(rand.NewSource(1)).Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	ResetBaselineCache()
	mem := &MemorySink{}
	if err := (&Sweep{Workers: 8}).execute(specs, mem); err != nil {
		t.Fatal(err)
	}
	// The declared topology and the epoch after the renegotiation.
	if n := lp.BaselineCacheSize(); n != 2 {
		t.Fatalf("cache holds %d problems after one cell, want its 2 epochs", n)
	}
	var a, b bytes.Buffer
	if err := want.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := mem.Result().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("shuffled 8-worker sweep differs from the in-order 1-worker one:\n%s\n---\n%s", a.String(), b.String())
	}
	if want.Errs() != 0 {
		t.Fatalf("%d runs failed", want.Errs())
	}
}

// TestSweepRecordsPrepareErrors: a cell whose preparation fails fails each
// of its runs the way a Run error does, and the sweep carries on.
func TestSweepRecordsPrepareErrors(t *testing.T) {
	specs, err := (&Grid{Seeds: []int64{1, 2, 3, 4}, DurationMs: 100}).Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Expand only hands out cells of networks Build validated, so break one
	// by hand: a preparation whose LP fails.
	bad := &cell{prepared: sync.OnceValues(func() (*prepared, error) {
		return nil, errors.New("mptcpsim: LP: broken cell")
	})}
	specs[1].cell, specs[2].cell = bad, bad
	mem := &MemorySink{}
	if err := (&Sweep{Workers: 4}).execute(specs, mem); err != nil {
		t.Fatal(err)
	}
	res := mem.Result()
	for i, run := range res.Runs {
		if broken := i == 1 || i == 2; broken != (run.Err != "") {
			t.Fatalf("run %d: err = %q", i, run.Err)
		}
	}
	if res.Runs[1].Err != res.Runs[2].Err || !strings.Contains(res.Runs[1].Err, "broken cell") {
		t.Fatalf("prepare errors = %q, %q", res.Runs[1].Err, res.Runs[2].Err)
	}
}
