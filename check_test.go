package mptcpsim

import (
	"bytes"
	"testing"
	"time"

	"mptcpsim/internal/check"
)

// runSpecForTest builds and runs one generated spec with the oracle on.
func runSpecForTest(t *testing.T, sp check.Spec) *Result {
	t.Helper()
	nw, err := LoadNetwork(bytes.NewReader(sp.Scenario))
	if err != nil {
		t.Fatalf("spec %s (seed %d): build: %v", sp.Name, sp.Seed, err)
	}
	r, err := Run(nw, Options{
		CC: sp.CC, Scheduler: sp.Scheduler, SubflowPaths: sp.Order,
		Seed: sp.RunSeed, Duration: sp.Duration, QueueScale: sp.QueueScale,
		ValidateInvariants: true, EventLimit: 50_000_000,
	})
	if err != nil {
		t.Fatalf("spec %s (seed %d): run: %v", sp.Name, sp.Seed, err)
	}
	return r
}

// The paper experiment itself must satisfy every invariant, statically and
// under a failure/restore timeline.
func TestPaperRunSatisfiesInvariants(t *testing.T) {
	r, err := RunPaper(Options{ValidateInvariants: true, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Invariants) != 0 {
		t.Fatalf("paper run violates invariants: %v", r.Invariants)
	}

	nw := PaperNetwork()
	for _, e := range []Event{
		{At: 600 * time.Millisecond, Type: EventSetRate, A: "v3", B: "v4", Mbps: 20},
		{At: 800 * time.Millisecond, Type: EventLinkDown, A: "s", B: "v1"},
		{At: 1400 * time.Millisecond, Type: EventLinkUp, A: "s", B: "v1"},
	} {
		if err := nw.AddEvent(e); err != nil {
			t.Fatal(err)
		}
	}
	r, err = Run(nw, Options{CC: "olia", ValidateInvariants: true, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Invariants) != 0 {
		t.Fatalf("dynamic paper run violates invariants: %v", r.Invariants)
	}
}

// The oracle must only observe: a validated run hashes identically to an
// unvalidated one.
func TestValidationDoesNotPerturbRun(t *testing.T) {
	opts := Options{CC: "olia", Duration: time.Second}
	plain, err := RunPaper(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.ValidateInvariants = true
	checked, err := RunPaper(opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Hash() != checked.Hash() {
		t.Fatal("enabling ValidateInvariants changed the run")
	}
}

// Result.Hash is the replay-determinism fingerprint: equal for identical
// runs, different as soon as anything observable differs.
func TestResultHashReplayDeterminism(t *testing.T) {
	a, err := RunPaper(Options{CC: "cubic", Duration: time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPaper(Options{CC: "cubic", Duration: time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() != b.Hash() {
		t.Fatal("identical runs hash differently")
	}
	if a.LoopEvents != b.LoopEvents {
		t.Fatalf("identical runs executed %d and %d events", a.LoopEvents, b.LoopEvents)
	}
	c, err := RunPaper(Options{CC: "cubic", Duration: time.Second, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Hash() == c.Hash() {
		t.Fatal("different seeds hash identically")
	}
	if a.LoopEvents == 0 {
		t.Fatal("LoopEvents not recorded")
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
		sp := check.NewSpec(check.SpecSeed(11, i))
		r := runSpecForTest(t, sp)
		if len(r.Invariants) != 0 {
			t.Errorf("spec %d %s (seed %d): %v", i, sp.Name, sp.Seed, r.Invariants)
		}
	}
}

// Generated specs replay bit-identically: the hash of a rerun matches.
func TestRandomScenarioReplayDeterminism(t *testing.T) {
	sp := check.NewSpec(check.SpecSeed(5, 0))
	a := runSpecForTest(t, sp)
	b := runSpecForTest(t, sp)
	if a.Hash() != b.Hash() {
		t.Fatalf("spec %s (seed %d): replay diverged", sp.Name, sp.Seed)
	}
}

// Sweep.ValidateInvariants turns violations into per-run errors without
// flagging healthy cells.
func TestSweepValidateInvariants(t *testing.T) {
	grid := &Grid{
		CCs:        []string{"cubic", "olia"},
		DurationMs: 600,
		Events: []EventSet{
			{Name: "static"},
			{Name: "outage", Events: []ScenarioEvent{
				{AtMs: 200, Type: EventLinkDown, A: "s", B: "v1"},
				{AtMs: 400, Type: EventLinkUp, A: "s", B: "v1"},
			}},
		},
	}
	res, err := (&Sweep{Workers: 2, ValidateInvariants: true}).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Errs(); n != 0 {
		for _, run := range res.Runs {
			if run.Err != "" {
				t.Errorf("run %d: %s", run.Index, run.Err)
			}
		}
		t.Fatalf("%d of %d self-checking sweep runs failed", n, len(res.Runs))
	}
}
