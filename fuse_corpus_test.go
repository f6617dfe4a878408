package mptcpsim_test

import (
	"bufio"
	"os"
	"strconv"
	"strings"
	"testing"

	"mptcpsim"
	"mptcpsim/internal/check"
)

// TestCorpusFusedMatchesPerHop runs every corpus scenario with its hops
// fused and with every hop an event (fusedMatchesPerHop).
func TestCorpusFusedMatchesPerHop(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 32
	}
	for i := range n {
		fusedMatchesPerHop(t, i)
	}
}

// TestTrapSetFusedMatchesPerHop does the same over the trap set: the specs
// of internal/check/testdata/trap-seed1.txt, in which greedy leaves
// capacity unused, so the subflows contend for shared links.
func TestTrapSetFusedMatchesPerHop(t *testing.T) {
	f, err := os.Open("internal/check/testdata/trap-seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	n := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		i, err := strconv.Atoi(strings.Fields(sc.Text())[0])
		if err != nil {
			t.Fatalf("trap set line %q: %v", sc.Text(), err)
		}
		if n++; testing.Short() && n > 32 {
			break
		}
		fusedMatchesPerHop(t, i)
	}
	if n < 32 {
		t.Fatalf("trap set has %d entries", n)
	}
}

// fusedMatchesPerHop runs the spec SpecSeed(1, i) fused and per-hop. The
// invariant oracle (conservation, FIFO by virtual time, per-epoch capacity)
// must pass on both, and the two must hash identically: same-instant
// arrivals run in link order either way. A divergence fails with the
// locator's first differing window of host events.
func fusedMatchesPerHop(t *testing.T, i int) {
	t.Helper()
	rs, err := check.NewSpec(check.SpecSeed(1, i)).Grid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	spec := rs[0]
	spec.Options.ValidateInvariants = true
	fused, _, err := mptcpsim.RunSpecHops(spec, false, nil)
	if err != nil {
		t.Fatalf("scenario %d fused: %v", i, err)
	}
	perHop, _, err := mptcpsim.RunSpecHops(spec, true, nil)
	if err != nil {
		t.Fatalf("scenario %d per-hop: %v", i, err)
	}
	for what, res := range map[string]*mptcpsim.Result{"fused": fused, "per-hop": perHop} {
		if len(res.Invariants) > 0 {
			t.Errorf("scenario %d %s: %v", i, what, res.Invariants)
		}
	}
	if fused.Hash() == perHop.Hash() {
		return
	}
	report, err := mptcpsim.FirstDivergence(spec, 6)
	if err != nil {
		t.Fatal(err)
	}
	t.Errorf("scenario %d: fused run diverged from per-hop:\n%s", i, report)
}
