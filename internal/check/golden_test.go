package check

// The golden-corpus differential test: the recorded canonical hashes and
// engine digests of the 200 simcheck seed-1 scenarios
// (testdata/hashes-seed1.golden) must be byte-identical on every future
// commit. This is the safety net for any
// kernel or hot-path performance work — an optimisation that changes even
// one measured value of one scenario fails here. The corpus was first
// recorded with the zero-allocation event fast path, re-recorded when
// LoopEvents left the canonical hash, and ten of its hashes moved when
// links folded the end of serialisation into their arrival chain (a
// same-nanosecond drop-tail tie); every full hash moved, and no engine
// digest, when the proportional-fair reference left Result and again when
// Result.Hash became the engine stream followed by the references — each
// time in a commit of its own that says why.

import (
	"bytes"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"mptcpsim"
)

// hashSink keeps each run's Hash and EngineHash, or its error, at its
// index.
type hashSink struct{ hashes, engine, errs []string }

func (h *hashSink) Accept(_, _ int, s mptcpsim.RunSummary, res *mptcpsim.Result) error {
	h.errs[s.Index] = s.Err
	if s.Err == "" {
		h.hashes[s.Index] = res.Hash()
		h.engine[s.Index] = res.EngineHash()
	}
	return nil
}

func (h *hashSink) Close() error { return nil }

func TestGoldenCorpusHashesIdentical(t *testing.T) {
	f, err := os.Open("testdata/hashes-seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := LoadGolden(f)
	if err != nil {
		t.Fatal(err)
	}
	n := len(g.Hashes)
	if testing.Short() {
		// -short keeps the differential property exercised without the
		// full corpus cost (the race job runs every test at ~10x).
		n = 16
	}

	// Each scenario once, plain, as a one-run grid through the executor
	// simcheck and every sweep use.
	runs := make([]mptcpsim.RunSpec, n)
	for i := range runs {
		sp := NewSpec(SpecSeed(g.Seed, i))
		rs, err := sp.Grid().Expand()
		if err != nil {
			t.Fatalf("scenario %d (seed %d): %v", i, sp.Seed, err)
		}
		runs[i] = rs[0]
		runs[i].Index = i
	}
	sink := &hashSink{hashes: make([]string, n), engine: make([]string, n), errs: make([]string, n)}
	if err := (&mptcpsim.Sweep{}).Execute(runs, sink); err != nil {
		t.Fatal(err)
	}

	// A divergence is classified as simcheck -golden classifies it.
	got := Golden{Seed: g.Seed, Hashes: sink.hashes, Engine: sink.engine}
	count := make(map[string]int)
	for i := 0; i < n; i++ {
		if sink.errs[i] != "" {
			t.Errorf("scenario %d: %s", i, sink.errs[i])
		}
		if what := g.Divergence(got, i); what != "" {
			count[what]++
			t.Errorf("scenario %d (%s): hash %.12s engine %.12s diverged from golden %.12s %.12s",
				i, what, got.Hashes[i], got.Engine[i], g.Hashes[i], g.Engine[i])
		}
	}
	moved, refs := count["engine moved"], count["references only"]
	if moved+refs > 0 {
		why := "the simulation's behaviour changed"
		if moved == 0 {
			why = "only the references the packets are compared to changed, not the packets"
		}
		t.Fatalf("%d/%d golden hashes diverged (%d engine moved, %d references only): %s; "+
			"if (and only if) the change is intended, re-record with "+
			"go run ./cmd/simcheck -n %d -seed %d -write-golden internal/check/testdata/hashes-seed1.golden",
			moved+refs, n, moved, refs, why, len(g.Hashes), g.Seed)
	}
}

func TestLoadGoldenRoundTrip(t *testing.T) {
	g := Golden{Seed: 42, Hashes: []string{"aa", "bb", "cc"}, Engine: []string{"dd", "ee", "ff"}}
	var buf bytes.Buffer
	if err := WriteGolden(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGolden(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != g.Seed || len(got.Hashes) != len(g.Hashes) {
		t.Fatalf("round trip mangled corpus: %+v", got)
	}
	if !slices.Equal(got.Hashes, g.Hashes) || !slices.Equal(got.Engine, g.Engine) {
		t.Fatalf("round trip mangled corpus: %+v, want %+v", got, g)
	}
}

// malformedGolden are corpora LoadGolden must refuse.
var malformedGolden = map[string]string{
	"no seed line":       "0 abc 123\n",
	"empty":              "",
	"comments only":      "# nothing here\n",
	"bad seed":           "seed banana\n0 abc 123\n",
	"index gap":          "seed 1\n0 abc 123\n2 def 456\n",
	"index out of order": "seed 1\n1 abc 123\n",
	"missing hash":       "seed 1\n0\n",
	"one column":         "seed 1\n0 abc\n",
	"extra column":       "seed 1\n0 abc 123 789\n",
	"no hashes":          "seed 1\n",
}

func TestLoadGoldenRejectsMalformed(t *testing.T) {
	for name, input := range malformedGolden {
		if _, err := LoadGolden(strings.NewReader(input)); err == nil {
			t.Errorf("%s: LoadGolden accepted %q", name, input)
		}
	}
	// A corpus in the format before the engine column is told so.
	_, err := LoadGolden(strings.NewReader(malformedGolden["one column"]))
	if err == nil || !strings.Contains(err.Error(), "one digest column") || !strings.Contains(err.Error(), "-write-golden") {
		t.Fatalf("one-column corpus: error %v does not say what is wrong and how to fix it", err)
	}
}

// bumped returns a copy of x with element i moved, leaving x as it was.
func bumped(x []float64, i int) []float64 {
	x = slices.Clone(x)
	x[i]++
	return x
}

// The engine digest reads what the packets did and nothing else: moving
// any reference the run is compared to, or anything derived from one,
// changes the full hash only; moving any engine input changes both. Each
// case perturbs a shallow copy of one run and replaces, never writes
// through, what it shares with it.
func TestEngineDigestSeparatesReferencesFromPackets(t *testing.T) {
	base, err := mptcpsim.RunPaper(mptcpsim.Options{CC: "olia", Duration: 300 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Drops) == 0 || len(base.Utilisation) == 0 || len(base.Subflows) == 0 {
		t.Fatalf("the base run must drop, load links and open subflows: %v %v %d",
			base.Drops, base.Utilisation, len(base.Subflows))
	}
	// The run has no cross traffic and no dynamic events; it gains one of
	// each, so that a write of their content is seen apart from their count.
	base.Cross = []mptcpsim.Series{{Name: "Cross 1", Step: base.Total.Step, Mbps: slices.Clone(base.Total.Mbps)}}
	base.Events = []mptcpsim.ScenarioEvent{{AtMs: 100, Type: "link_down", A: "s", B: "v1"}}
	hash, engine := base.Hash(), base.EngineHash()
	type perturbation struct {
		what    string
		perturb func(r *mptcpsim.Result)
	}
	epoch0 := func(f func(ep *mptcpsim.EpochReport)) func(r *mptcpsim.Result) {
		return func(r *mptcpsim.Result) {
			r.Epochs = slices.Clone(r.Epochs)
			f(&r.Epochs[0])
		}
	}
	for _, tc := range []perturbation{
		{"Optimum.Total", func(r *mptcpsim.Result) { r.Optimum.Total++ }},
		{"Optimum.PerPath", func(r *mptcpsim.Result) { r.Optimum.PerPath = bumped(r.Optimum.PerPath, 0) }},
		{"MaxMin", func(r *mptcpsim.Result) { r.MaxMin = bumped(r.MaxMin, 0) }},
		{"Greedy", func(r *mptcpsim.Result) { r.Greedy = bumped(r.Greedy, 0) }},
		{"Problem", func(r *mptcpsim.Result) { r.Problem += " " }},
		{"Epochs[0].Optimum", epoch0(func(ep *mptcpsim.EpochReport) { ep.Optimum.Total++ })},
		{"Epochs[0].Gap", epoch0(func(ep *mptcpsim.EpochReport) { ep.Gap++ })},
		{"Epochs[0].Converged", epoch0(func(ep *mptcpsim.EpochReport) { ep.Converged = !ep.Converged })},
		{"Summary.Target", func(r *mptcpsim.Result) { r.Summary.Target++ }},
		{"Summary.Gap", func(r *mptcpsim.Result) { r.Summary.Gap++ }},
	} {
		res := *base
		tc.perturb(&res)
		if res.Hash() == hash {
			t.Errorf("moving %s left the full hash unchanged", tc.what)
		}
		if res.EngineHash() != engine {
			t.Errorf("moving %s moved the engine digest", tc.what)
		}
	}

	subflow0 := func(f func(sf *mptcpsim.SubflowReport)) func(r *mptcpsim.Result) {
		return func(r *mptcpsim.Result) {
			r.Subflows = slices.Clone(r.Subflows)
			f(&r.Subflows[0])
		}
	}
	// Each map's first key in the encoding's (sorted) order.
	drop, link := slices.Sorted(maps.Keys(base.Drops))[0], slices.Sorted(maps.Keys(base.Utilisation))[0]
	for _, tc := range []perturbation{
		{"Paths bin", func(r *mptcpsim.Result) {
			r.Paths = slices.Clone(r.Paths)
			r.Paths[0].Mbps = bumped(r.Paths[0].Mbps, len(r.Paths[0].Mbps)/2)
		}},
		{"Paths name", func(r *mptcpsim.Result) { r.Paths = slices.Clone(r.Paths); r.Paths[0].Name += " " }},
		{"Paths step", func(r *mptcpsim.Result) { r.Paths = slices.Clone(r.Paths); r.Paths[0].Step++ }},
		{"Cross bin", func(r *mptcpsim.Result) {
			r.Cross = slices.Clone(r.Cross)
			r.Cross[0].Mbps = bumped(r.Cross[0].Mbps, 0)
		}},
		{"appended Cross series", func(r *mptcpsim.Result) {
			r.Cross = append(slices.Clone(r.Cross), mptcpsim.Series{Name: "Cross 2", Step: r.Total.Step, Mbps: []float64{1}})
		}},
		{"Total bin", func(r *mptcpsim.Result) { r.Total.Mbps = bumped(r.Total.Mbps, len(r.Total.Mbps)/2) }},

		{"Subflows.Path", subflow0(func(sf *mptcpsim.SubflowReport) { sf.Path++ })},
		{"Subflows.Label", subflow0(func(sf *mptcpsim.SubflowReport) { sf.Label += " " })},
		{"Subflows.SentSegments", subflow0(func(sf *mptcpsim.SubflowReport) { sf.SentSegments++ })},
		{"Subflows.SentBytes", subflow0(func(sf *mptcpsim.SubflowReport) { sf.SentBytes++ })},
		{"Subflows.Retransmits", subflow0(func(sf *mptcpsim.SubflowReport) { sf.Retransmits++ })},
		{"Subflows.RTOs", subflow0(func(sf *mptcpsim.SubflowReport) { sf.RTOs++ })},
		{"Subflows.FastRecoveries", subflow0(func(sf *mptcpsim.SubflowReport) { sf.FastRecoveries++ })},
		{"Subflows.SRTT", subflow0(func(sf *mptcpsim.SubflowReport) { sf.SRTT++ })},
		{"Subflows.FinalCwndBytes", subflow0(func(sf *mptcpsim.SubflowReport) { sf.FinalCwndBytes++ })},

		{"Drops count", func(r *mptcpsim.Result) { r.Drops = maps.Clone(r.Drops); r.Drops[drop]++ }},
		{"Drops link", func(r *mptcpsim.Result) {
			r.Drops = maps.Clone(r.Drops)
			r.Drops[drop+" "] = r.Drops[drop]
			delete(r.Drops, drop)
		}},
		{"Utilisation share", func(r *mptcpsim.Result) {
			r.Utilisation = maps.Clone(r.Utilisation)
			r.Utilisation[link] /= 2
		}},
		{"Utilisation link", func(r *mptcpsim.Result) {
			r.Utilisation = maps.Clone(r.Utilisation)
			r.Utilisation[link+" "] = r.Utilisation[link]
			delete(r.Utilisation, link)
		}},
		{"Packets", func(r *mptcpsim.Result) { r.Packets++ }},
		{"DeliveredBytes", func(r *mptcpsim.Result) { r.DeliveredBytes++ }},
		{"DuplicateBytes", func(r *mptcpsim.Result) { r.DuplicateBytes++ }},
		{"Events entry", func(r *mptcpsim.Result) { r.Events = slices.Clone(r.Events); r.Events[0].AtMs++ }},
		{"appended Events entry", func(r *mptcpsim.Result) {
			r.Events = append(slices.Clone(r.Events), mptcpsim.ScenarioEvent{AtMs: 200, Type: "link_up", A: "s", B: "v1"})
		}},

		{"Epochs[0].Start", epoch0(func(ep *mptcpsim.EpochReport) { ep.Start++ })},
		{"Epochs[0].End", epoch0(func(ep *mptcpsim.EpochReport) { ep.End++ })},
		{"Epochs[0].TotalMean", epoch0(func(ep *mptcpsim.EpochReport) { ep.TotalMean++ })},
		{"Epochs[0].PathMeans", epoch0(func(ep *mptcpsim.EpochReport) { ep.PathMeans = bumped(ep.PathMeans, 0) })},

		{"Options.CC", func(r *mptcpsim.Result) { r.Options.CC = "lia" }},
		{"Options.Scheduler", func(r *mptcpsim.Result) { r.Options.Scheduler = "redundant" }},
		{"Options.Duration", func(r *mptcpsim.Result) { r.Options.Duration++ }},
		{"Options.SampleInterval", func(r *mptcpsim.Result) { r.Options.SampleInterval++ }},
		{"Options.Seed", func(r *mptcpsim.Result) { r.Options.Seed++ }},
		{"Options.SubflowPaths", func(r *mptcpsim.Result) {
			r.Options.SubflowPaths = slices.Clone(r.Options.SubflowPaths)
			slices.Reverse(r.Options.SubflowPaths)
		}},
		{"Options.QueueScale", func(r *mptcpsim.Result) { r.Options.QueueScale++ }},
		{"Options.DisableSACK", func(r *mptcpsim.Result) { r.Options.DisableSACK = !r.Options.DisableSACK }},
		{"Options.Timestamps", func(r *mptcpsim.Result) { r.Options.Timestamps = !r.Options.Timestamps }},
		{"Options.CrossTCP", func(r *mptcpsim.Result) { r.Options.CrossTCP = append(slices.Clone(r.Options.CrossTCP), 1) }},
	} {
		res := *base
		tc.perturb(&res)
		if res.Hash() == hash || res.EngineHash() == engine {
			t.Errorf("moving %s must move both digests", tc.what)
		}
	}

	if base.Hash() != hash || base.EngineHash() != engine {
		t.Fatal("a perturbation wrote through to the base run")
	}
}

// FuzzLoadGolden: whatever LoadGolden accepts, WriteGolden renders into a
// corpus that loads back unchanged.
func FuzzLoadGolden(f *testing.F) {
	var header bytes.Buffer
	if err := WriteGolden(&header, Golden{Seed: 1, Hashes: []string{"dbc05ffcdf88", "769a394fbdf6"},
		Engine: []string{"5f0e7c1a9b2d", "a4c3e1f07d6b"}}); err != nil {
		f.Fatal(err)
	}
	f.Add(header.String())
	for _, input := range malformedGolden {
		f.Add(input)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := LoadGolden(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteGolden(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := LoadGolden(&buf)
		if err != nil {
			t.Fatalf("written corpus does not load: %v\n%s", err, buf.String())
		}
		if back.Seed != g.Seed || !slices.Equal(back.Hashes, g.Hashes) || !slices.Equal(back.Engine, g.Engine) {
			t.Fatalf("round trip changed the corpus: %+v -> %+v", g, back)
		}
	})
}
