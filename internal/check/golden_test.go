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
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mptcpsim"
)

// goldenHash runs scenario i of the corpus base seed once and returns its
// canonical hash.
func goldenHash(base int64, i int) (string, error) {
	sp := NewSpec(SpecSeed(base, i))
	nw, err := sp.Scenario.Build()
	if err != nil {
		return "", fmt.Errorf("scenario %d (seed %d): build: %w", i, sp.Seed, err)
	}
	res, err := mptcpsim.Run(nw, sp.Options)
	if err != nil {
		return "", fmt.Errorf("scenario %d (seed %d): run: %w", i, sp.Seed, err)
	}
	return res.Hash(), nil
}

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

	hashes := make([]string, n)
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				hashes[i], errs[i] = goldenHash(g.Seed, i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	diverged := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			diverged++
			t.Errorf("%v", errs[i])
			continue
		}
		if hashes[i] != g.Hashes[i] {
			diverged++
			t.Errorf("scenario %d: hash %.12s diverged from golden %.12s", i, hashes[i], g.Hashes[i])
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

func TestLoadGoldenRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no seed line":       "0 abc\n",
		"empty":              "",
		"comments only":      "# nothing here\n",
		"bad seed":           "seed banana\n0 abc\n",
		"index gap":          "seed 1\n0 abc\n2 def\n",
		"index out of order": "seed 1\n1 abc\n",
		"missing hash":       "seed 1\n0\n",
		"no hashes":          "seed 1\n",
	}
	for name, input := range cases {
		if _, err := LoadGolden(strings.NewReader(input)); err == nil {
			t.Errorf("%s: LoadGolden accepted %q", name, input)
		}
	}
}
