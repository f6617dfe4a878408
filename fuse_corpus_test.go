package mptcpsim_test

import (
	"testing"

	"mptcpsim"
	"mptcpsim/internal/check"
)

// tieMoved are the corpus scenarios whose fused run differs from the
// per-hop one. In each, two packets reach one node at the same nanosecond
// over two links and go on over a third, and one of the two links is
// admitted by its feeder, so its arrival's seq was reserved earlier than
// the per-hop model reserves it and the two leave in the other order:
// 10 at m21 (m32->m21 fused), 11 at m11 (m22->m11 fused), 29 at m32
// (m22->m32 and m21->m32 fused).
var tieMoved = map[int]bool{10: true, 11: true, 29: true}

// TestCorpusFusedMatchesPerHop runs every corpus scenario with its hops
// fused and with every hop an event. The invariant oracle (conservation,
// FIFO by virtual time, per-epoch capacity) must pass on both, and the two
// must hash identically except where a same-instant tie moved; a new
// divergence fails with the locator's first differing window of host
// events.
func TestCorpusFusedMatchesPerHop(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 32
	}
	for i := range n {
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
		if same := fused.Hash() == perHop.Hash(); same == !tieMoved[i] {
			continue
		}
		report, err := mptcpsim.FirstDivergence(spec, 6)
		if err != nil {
			t.Fatal(err)
		}
		if tieMoved[i] {
			t.Errorf("scenario %d: fused and per-hop runs agree now; drop it from tieMoved", i)
		} else {
			t.Errorf("scenario %d: fused run diverged from per-hop:\n%s", i, report)
		}
	}
}
