package mptcpsim_test

import (
	"bufio"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

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

// TestTrapSetFusedMatchesPerHop does the same over the trap set, in which
// greedy leaves capacity unused, so the subflows contend for shared links.
func TestTrapSetFusedMatchesPerHop(t *testing.T) {
	set := trapSet(t)
	if testing.Short() {
		set = set[:32]
	}
	for _, i := range set {
		fusedMatchesPerHop(t, i)
	}
}

// trapSet reads the indices of internal/check/testdata/trap-seed1.txt: the
// specs SpecSeed(1, i) whose first epoch has greedy's total at least 10 %
// below the optimum's.
func trapSet(t *testing.T) []int {
	t.Helper()
	f, err := os.Open("internal/check/testdata/trap-seed1.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var set []int
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		i, err := strconv.Atoi(strings.Fields(sc.Text())[0])
		if err != nil {
			t.Fatalf("trap set line %q: %v", sc.Text(), err)
		}
		set = append(set, i)
	}
	if len(set) < 32 {
		t.Fatalf("trap set has %d entries", len(set))
	}
	return set
}

// TestRoundRobinGrantsAsMinRTT pins the one thing the "roundrobin" name
// does: it grants exactly as "minrtt" does, so its runs are minrtt's under
// another label. Nothing the repository draws names it any more, but
// bench's screen_stream grid does. Over the first 16 corpus specs and the
// paper network under every CC, the two names give equal engine hashes
// once Options.Scheduler reads the same.
func TestRoundRobinGrantsAsMinRTT(t *testing.T) {
	same := func(what string, run func(sched string) (*mptcpsim.Result, error)) {
		t.Helper()
		var hash [2]string
		for k, sched := range []string{"roundrobin", "minrtt"} {
			res, err := run(sched)
			if err != nil {
				t.Fatalf("%s %s: %v", what, sched, err)
			}
			res.Options.Scheduler = "minrtt"
			hash[k] = res.EngineHash()
		}
		if hash[0] != hash[1] {
			t.Errorf("%s: roundrobin ran differently from minrtt (engine hash %.12s, want %.12s)", what, hash[0], hash[1])
		}
	}
	for i := range 16 {
		rs, err := check.NewSpec(check.SpecSeed(1, i)).Grid().Expand()
		if err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("corpus spec %d", i), func(sched string) (*mptcpsim.Result, error) {
			spec := rs[0]
			spec.Options.Scheduler = sched
			res, _, err := mptcpsim.RunSpecHops(spec, false, nil)
			return res, err
		})
	}
	for _, cc := range []string{"cubic", "reno", "lia", "olia", "balia", "wvegas"} {
		same("paper network, "+cc, func(sched string) (*mptcpsim.Result, error) {
			return mptcpsim.RunPaper(mptcpsim.Options{CC: cc, Scheduler: sched, Duration: 2 * time.Second})
		})
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
