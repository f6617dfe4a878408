package check

// The golden-corpus differential test: the recorded canonical hashes of
// the 200 simcheck seed-1 scenarios (testdata/hashes-seed1.golden) must be
// byte-identical on every future commit. This is the safety net for any
// kernel or hot-path performance work — an optimisation that changes even
// one measured value of one scenario fails here. The corpus was first
// recorded with the zero-allocation event fast path, re-recorded when
// LoopEvents left the canonical hash, and ten of its hashes moved when
// links folded the end of serialisation into their arrival chain (a
// same-nanosecond drop-tail tie) — each time in a commit of its own that
// says why.

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"mptcpsim"
)

// hashSink keeps each run's canonical hash, or its error, at its index.
type hashSink struct{ hashes, errs []string }

func (h *hashSink) Accept(_, _ int, s mptcpsim.RunSummary, res *mptcpsim.Result) error {
	h.errs[s.Index] = s.Err
	if s.Err == "" {
		h.hashes[s.Index] = res.Hash()
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
	got := &hashSink{hashes: make([]string, n), errs: make([]string, n)}
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
		if got.hashes[i] != g.Hashes[i] {
			diverged++
			t.Errorf("scenario %d: hash %.12s diverged from golden %.12s", i, got.hashes[i], g.Hashes[i])
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
	g := Golden{Seed: 42, Hashes: []string{"aa", "bb", "cc"}}
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
	for i := range g.Hashes {
		if got.Hashes[i] != g.Hashes[i] {
			t.Fatalf("hash %d = %q, want %q", i, got.Hashes[i], g.Hashes[i])
		}
	}
}

// malformedGolden are corpora LoadGolden must refuse.
var malformedGolden = map[string]string{
	"no seed line":       "0 abc\n",
	"empty":              "",
	"comments only":      "# nothing here\n",
	"bad seed":           "seed banana\n0 abc\n",
	"index gap":          "seed 1\n0 abc\n2 def\n",
	"index out of order": "seed 1\n1 abc\n",
	"missing hash":       "seed 1\n0\n",
	"no hashes":          "seed 1\n",
}

func TestLoadGoldenRejectsMalformed(t *testing.T) {
	for name, input := range malformedGolden {
		if _, err := LoadGolden(strings.NewReader(input)); err == nil {
			t.Errorf("%s: LoadGolden accepted %q", name, input)
		}
	}
}

// FuzzLoadGolden: whatever LoadGolden accepts, WriteGolden renders into a
// corpus that loads back unchanged.
func FuzzLoadGolden(f *testing.F) {
	var header bytes.Buffer
	if err := WriteGolden(&header, Golden{Seed: 1, Hashes: []string{"dbc05ffcdf88", "769a394fbdf6"}}); err != nil {
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
		if back.Seed != g.Seed || !slices.Equal(back.Hashes, g.Hashes) {
			t.Fatalf("round trip changed the corpus: %+v -> %+v", g, back)
		}
	})
}
