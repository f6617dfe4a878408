package check

import (
	"reflect"
	"testing"

	"mptcpsim"
)

// runSpec builds and runs one generated spec with the invariant oracle on.
func runSpec(t *testing.T, sp Spec) *mptcpsim.Result {
	t.Helper()
	nw, err := sp.Scenario.Build()
	if err != nil {
		t.Fatalf("spec %s (seed %d): build: %v", sp.Name, sp.Seed, err)
	}
	opts := sp.Options
	opts.ValidateInvariants = true
	r, err := mptcpsim.Run(nw, opts)
	if err != nil {
		t.Fatalf("spec %s (seed %d): run: %v", sp.Name, sp.Seed, err)
	}
	return r
}

func TestSpecDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, b := NewSpec(seed), NewSpec(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: NewSpec not deterministic", seed)
		}
	}
}

func TestSpecSeedDistinct(t *testing.T) {
	// Determinism and distinctness over a 10k-index window, for two
	// bases: batch sharding assumes spec i is a pure function of
	// (base, i) and that no two indices alias.
	for _, base := range []int64{1, 2} {
		seen := make(map[int64]int)
		for i := 0; i < 10_000; i++ {
			s := SpecSeed(base, i)
			if s < 0 {
				t.Fatalf("SpecSeed(%d, %d) = %d, want non-negative", base, i, s)
			}
			if s != SpecSeed(base, i) {
				t.Fatalf("SpecSeed(%d, %d) not deterministic", base, i)
			}
			if j, dup := seen[s]; dup {
				t.Fatalf("SpecSeed(%d, %d) collides with index %d", base, i, j)
			}
			seen[s] = i
		}
	}
	if SpecSeed(1, 0) == SpecSeed(2, 0) {
		t.Fatal("different bases yield the same first seed")
	}
}

func TestSpecShapes(t *testing.T) {
	// The generator must exercise the whole vocabulary over enough seeds:
	// every CC, every scheduler, dynamic and static timelines.
	ccs := make(map[string]bool)
	scheds := make(map[string]bool)
	withEvents, static := 0, 0
	for i := 0; i < 200; i++ {
		sp := NewSpec(SpecSeed(42, i))
		ccs[sp.Options.CC] = true
		scheds[sp.Options.Scheduler] = true
		if len(sp.Scenario.Events) > 0 {
			withEvents++
		} else {
			static++
		}
		if len(sp.Options.SubflowPaths) == 0 {
			t.Fatalf("spec %d: empty subflow order", i)
		}
		if sp.Options.Duration <= 0 {
			t.Fatalf("spec %d: non-positive duration", i)
		}
	}
	if len(ccs) != len(genCCs) {
		t.Fatalf("200 specs cover %d of %d CCs", len(ccs), len(genCCs))
	}
	if len(scheds) != len(genScheds) {
		t.Fatalf("200 specs cover %d of %d schedulers", len(scheds), len(genScheds))
	}
	if withEvents == 0 || static == 0 {
		t.Fatalf("want both dynamic and static specs, got %d/%d", withEvents, static)
	}
}

// Randomized scenarios from the generator must build, run and satisfy
// every invariant — the in-process slice of what cmd/simcheck runs at
// scale in CI.
func TestRandomScenariosSatisfyInvariants(t *testing.T) {
	n := 25
	if testing.Short() {
		n = 8
	}
	for i := 0; i < n; i++ {
		sp := NewSpec(SpecSeed(11, i))
		r := runSpec(t, sp)
		if len(r.Invariants) != 0 {
			t.Errorf("spec %d %s (seed %d): %v", i, sp.Name, sp.Seed, r.Invariants)
		}
	}
}

// Generated specs replay bit-identically: the hash of a rerun matches.
func TestRandomScenarioReplayDeterminism(t *testing.T) {
	sp := NewSpec(SpecSeed(5, 0))
	a := runSpec(t, sp)
	b := runSpec(t, sp)
	if a.Hash() != b.Hash() {
		t.Fatalf("spec %s (seed %d): replay diverged", sp.Name, sp.Seed)
	}
}
