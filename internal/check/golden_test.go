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
// digest, when the proportional-fair reference left Result — each time in
// a commit of its own that says why.

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"mptcpsim"
)

// hashSink keeps each run's canonical hash and engine digest, or its
// error, at its index.
type hashSink struct{ hashes, engine, errs []string }

func (h *hashSink) Accept(_, _ int, s mptcpsim.RunSummary, res *mptcpsim.Result) error {
	h.errs[s.Index] = s.Err
	if s.Err == "" {
		h.hashes[s.Index] = res.Hash()
		h.engine[s.Index] = EngineDigest(res)
	}
	return nil
}

func (h *hashSink) Flush() error { return nil }
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
	got := &hashSink{hashes: make([]string, n), engine: make([]string, n), errs: make([]string, n)}
	if err := (&mptcpsim.Sweep{}).Execute(runs, got); err != nil {
		t.Fatal(err)
	}

	diverged := 0
	for i := 0; i < n; i++ {
		if got.errs[i] != "" {
			diverged++
			t.Errorf("scenario %d: %s", i, got.errs[i])
			continue
		}
		if got.hashes[i] != g.Hashes[i] || got.engine[i] != g.Engine[i] {
			diverged++
			t.Errorf("scenario %d: hash %.12s engine %.12s diverged from golden %.12s %.12s",
				i, got.hashes[i], got.engine[i], g.Hashes[i], g.Engine[i])
		}
	}
	if diverged > 0 {
		t.Fatalf("%d/%d golden hashes diverged: the simulation's behaviour changed; "+
			"if (and only if) the change is intended, re-record with "+
			"go run ./cmd/simcheck -n %d -seed %d -write-golden internal/check/testdata/hashes-seed1.golden",
			diverged, n, len(g.Hashes), g.Seed)
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

// The engine digest reads what the packets did and nothing else: moving
// any reference the run is compared to, or anything derived from one,
// changes the full hash only; moving one measured bin changes both.
func TestEngineDigestSeparatesReferencesFromPackets(t *testing.T) {
	run := func() *mptcpsim.Result {
		res, err := mptcpsim.RunPaper(mptcpsim.Options{CC: "olia", Duration: 300 * time.Millisecond, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run()
	hash, engine := base.Hash(), EngineDigest(base)
	for _, tc := range []struct {
		what    string
		perturb func(r *mptcpsim.Result)
	}{
		{"Optimum.Total", func(r *mptcpsim.Result) { r.Optimum.Total++ }},
		{"Optimum.PerPath", func(r *mptcpsim.Result) { r.Optimum.PerPath[0]++ }},
		{"MaxMin", func(r *mptcpsim.Result) { r.MaxMin[0]++ }},
		{"Greedy", func(r *mptcpsim.Result) { r.Greedy[0]++ }},
		{"Problem", func(r *mptcpsim.Result) { r.Problem += " " }},
		{"Epochs[0].Optimum", func(r *mptcpsim.Result) { r.Epochs[0].Optimum.Total++ }},
		{"Epochs[0].Gap", func(r *mptcpsim.Result) { r.Epochs[0].Gap++ }},
		{"Epochs[0].Converged", func(r *mptcpsim.Result) { r.Epochs[0].Converged = !r.Epochs[0].Converged }},
		{"Summary.Target", func(r *mptcpsim.Result) { r.Summary.Target++ }},
		{"Summary.Gap", func(r *mptcpsim.Result) { r.Summary.Gap++ }},
	} {
		res := run()
		tc.perturb(res)
		if res.Hash() == hash {
			t.Errorf("moving %s left the full hash unchanged", tc.what)
		}
		if EngineDigest(res) != engine {
			t.Errorf("moving %s moved the engine digest", tc.what)
		}
	}

	base.Total.Mbps[len(base.Total.Mbps)/2] += 0.5
	if base.Hash() == hash || EngineDigest(base) == engine {
		t.Fatal("moving one series bin must move both columns")
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
