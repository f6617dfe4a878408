package dynamics

import (
	"strings"
	"testing"
	"time"

	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// grid builds s - v1 - d with a side link s - v2 - d.
func testGraph() *topo.Graph {
	g := topo.New()
	s, v1, v2, d := g.AddNode("s"), g.AddNode("v1"), g.AddNode("v2"), g.AddNode("d")
	g.AddDuplex(s, v1, 40*unit.Mbps, time.Millisecond, 0)
	g.AddDuplex(v1, d, 100*unit.Mbps, time.Millisecond, 0)
	g.AddDuplex(s, v2, 30*unit.Mbps, time.Millisecond, 0)
	g.AddDuplex(v2, d, 100*unit.Mbps, time.Millisecond, 0)
	return g
}

func TestTimelineSortsAndValidates(t *testing.T) {
	g := testGraph()
	tl, err := New(g, []Event{
		{At: 3 * time.Second, Kind: LinkUp, A: "s", B: "v1"},
		{At: time.Second, Kind: SetRate, A: "s", B: "v2", Rate: 10 * unit.Mbps},
		{At: 2 * time.Second, Kind: LinkDown, A: "s", B: "v1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := tl.events
	if len(evs) != 3 {
		t.Fatalf("len = %d", len(evs))
	}
	if evs[0].Kind != SetRate || evs[1].Kind != LinkDown || evs[2].Kind != LinkUp {
		t.Fatalf("not time-ordered: %v", evs)
	}
}

func TestTimelineRejectsBadEvents(t *testing.T) {
	g := testGraph()
	cases := map[string][]Event{
		"negative time": {{At: -time.Second, Kind: LinkDown, A: "s", B: "v1"}},
		"unknown node":  {{At: time.Second, Kind: LinkDown, A: "s", B: "zzz"}},
		"no such link":  {{At: time.Second, Kind: LinkDown, A: "s", B: "d"}},
		"zero rate":     {{At: time.Second, Kind: SetRate, A: "s", B: "v1"}},
		"neg delay":     {{At: time.Second, Kind: SetDelay, A: "s", B: "v1", Delay: -time.Millisecond}},
		"loss > 1":      {{At: time.Second, Kind: SetLoss, A: "s", B: "v1", Loss: 1.5}},
		"burst no len":  {{At: time.Second, Kind: LossBurst, A: "s", B: "v1", Loss: 0.5}},
		"double down": {
			{At: time.Second, Kind: LinkDown, A: "s", B: "v1"},
			{At: 2 * time.Second, Kind: LinkDown, A: "v1", B: "s"},
		},
		"up while up": {{At: time.Second, Kind: LinkUp, A: "s", B: "v1"}},
		"loss inside burst": {
			{At: time.Second, Kind: LossBurst, A: "s", B: "v1", Loss: 0.5, Burst: time.Second},
			{At: 1500 * time.Millisecond, Kind: SetLoss, A: "s", B: "v1", Loss: 0.1},
		},
		// The restore fires exactly at burst end with a later sequence
		// number, so an event at that instant would be silently reverted.
		"loss at burst end": {
			{At: time.Second, Kind: LossBurst, A: "s", B: "v1", Loss: 0.5, Burst: time.Second},
			{At: 2 * time.Second, Kind: SetLoss, A: "s", B: "v1", Loss: 0.1},
		},
		"back-to-back bursts": {
			{At: time.Second, Kind: LossBurst, A: "s", B: "v1", Loss: 0.5, Burst: time.Second},
			{At: 2 * time.Second, Kind: LossBurst, A: "s", B: "v1", Loss: 0.3, Burst: time.Second},
		},
	}
	for name, evs := range cases {
		if _, err := New(g, evs); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEpochStartsAndCaps(t *testing.T) {
	g := testGraph()
	tl, err := New(g, []Event{
		{At: 2 * time.Second, Kind: LinkDown, A: "s", B: "v1"},
		{At: 2 * time.Second, Kind: SetLoss, A: "s", B: "v2", Loss: 0.01}, // no epoch
		{At: 5 * time.Second, Kind: LinkUp, A: "s", B: "v1"},
		{At: 5 * time.Second, Kind: SetRate, A: "s", B: "v2", Rate: 10 * unit.Mbps},
		{At: 9 * time.Second, Kind: SetRate, A: "s", B: "v2", Rate: 20 * unit.Mbps}, // past horizon
	})
	if err != nil {
		t.Fatal(err)
	}
	starts := tl.EpochStarts(8 * time.Second)
	want := []time.Duration{0, 2 * time.Second, 5 * time.Second}
	if len(starts) != len(want) {
		t.Fatalf("starts = %v, want %v", starts, want)
	}
	for i := range want {
		if starts[i] != want[i] {
			t.Fatalf("starts = %v, want %v", starts, want)
		}
	}

	// Epoch 0: untouched.
	if caps := tl.CapsAt(0, g); caps != nil {
		t.Fatalf("caps at 0 = %v, want none", caps)
	}
	// Epoch at 2s: s-v1 down in both directions.
	caps := tl.CapsAt(2*time.Second, g)
	sv1, _ := g.FindLink(0, 1)
	v1s, _ := g.FindLink(1, 0)
	if caps[sv1] != 0 || caps[v1s] != 0 {
		t.Fatalf("caps at 2s = %v, want s-v1 down", caps)
	}
	// Epoch at 5s: s-v1 restored to its graph rate, s-v2 renegotiated.
	caps = tl.CapsAt(5*time.Second, g)
	if caps[sv1] != 40 {
		t.Fatalf("restored capacity = %v, want 40", caps[sv1])
	}
	sv2, _ := g.FindLink(0, 2)
	if caps[sv2] != 10 {
		t.Fatalf("renegotiated capacity = %v, want 10", caps[sv2])
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 2 * time.Second, Kind: SetRate, A: "s", B: "v1", Rate: 20 * unit.Mbps}
	if got := e.String(); !strings.Contains(got, "set_rate") || !strings.Contains(got, "20Mbps") {
		t.Fatalf("String() = %q", got)
	}
	if _, err := ParseKind("link_down"); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseKind("linkdown"); err == nil {
		t.Fatal("bad spelling accepted")
	}
}
