package mptcpsim

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// paperWith builds the paper network with the given event timeline.
func paperWith(t testing.TB, events ...ScenarioEvent) *Network {
	t.Helper()
	sf := PaperScenario()
	sf.Events = events
	nw, err := sf.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestDynamicLinkDownEpochs is the acceptance scenario: a LinkDown at
// t=2s on the paper network cuts paths 1 and 2 (both cross s-v1), the LP
// baseline becomes piecewise (90 Mbps, then 60 on path 3 alone), and the
// measured traffic re-converges to the post-failure optimum.
func TestDynamicLinkDownEpochs(t *testing.T) {
	run := func() *Result {
		nw := paperWith(t, ScenarioEvent{AtMs: 2000, Type: EventLinkDown, A: "s", B: "v1"})
		res, err := Run(nw, Options{CC: "cubic", Seed: 1, SubflowPaths: []int{2, 1, 3}})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if len(res.Epochs) != 2 {
		t.Fatalf("epochs = %d, want 2", len(res.Epochs))
	}
	e0, e1 := res.Epochs[0], res.Epochs[1]
	if e0.Start != 0 || e0.End != 2*time.Second || e1.Start != 2*time.Second || e1.End != 4*time.Second {
		t.Fatalf("epoch bounds wrong: %+v %+v", e0, e1)
	}
	if math.Abs(e0.Optimum.Total-90) > 1e-6 {
		t.Fatalf("epoch 1 optimum = %v, want 90", e0.Optimum.Total)
	}
	if math.Abs(e1.Optimum.Total-60) > 1e-6 {
		t.Fatalf("epoch 2 optimum = %v, want 60 (path 3 alone)", e1.Optimum.Total)
	}
	want := []float64{0, 0, 60}
	for i, v := range want {
		if math.Abs(e1.Optimum.PerPath[i]-v) > 1e-6 {
			t.Fatalf("epoch 2 allocation = %v, want %v", e1.Optimum.PerPath, want)
		}
	}
	// The gap of each epoch is measured against that epoch's optimum: the
	// post-failure epoch must sit essentially on its 60 Mbps optimum even
	// though it is far below the static 90.
	if math.Abs(e1.Gap) > 0.08 {
		t.Fatalf("post-failure gap = %.3f vs the active epoch, want ~0", e1.Gap)
	}
	if !e1.Converged {
		t.Fatal("traffic did not re-converge to the post-failure optimum")
	}
	// Paths 1 and 2 are dead after the cut.
	if e1.PathMeans[0] > 1 || e1.PathMeans[1] > 1 {
		t.Fatalf("dead paths still carry traffic: %v", e1.PathMeans)
	}
	if e1.PathMeans[2] < 55 {
		t.Fatalf("surviving path at %.1f Mbps, want ~60", e1.PathMeans[2])
	}
	// Summary.Gap is measured against the time-weighted piecewise optimum,
	// not the stale static 90: the run tracks both epochs well, so the gap
	// must be far below the ~33%% it would show against 90 Mbps.
	if res.Summary.Gap > 0.15 {
		t.Fatalf("summary gap %.3f not computed against the piecewise optimum", res.Summary.Gap)
	}
	// The static headline optimum is still the initial topology's.
	if math.Abs(res.Optimum.Total-90) > 1e-6 {
		t.Fatalf("static optimum = %v", res.Optimum.Total)
	}
	// For dynamic runs Summary convergence means settling into the final
	// epoch's band, not the synthetic time-weighted one.
	if res.Summary.Converged != e1.Converged || res.Summary.ConvergedAt != e1.ConvergedAt {
		t.Fatalf("summary convergence %v@%v != final epoch %v@%v",
			res.Summary.Converged, res.Summary.ConvergedAt, e1.Converged, e1.ConvergedAt)
	}
	if len(res.Events) != 1 || res.Events[0].Type != EventLinkDown {
		t.Fatalf("events not echoed: %+v", res.Events)
	}

	// Bit-identical determinism: same seed, same series.
	res2 := run()
	if res.Packets != res2.Packets || res.DeliveredBytes != res2.DeliveredBytes {
		t.Fatalf("dynamic run not deterministic: %d/%d vs %d/%d",
			res.Packets, res.DeliveredBytes, res2.Packets, res2.DeliveredBytes)
	}
	for i := range res.Total.Mbps {
		if res.Total.Mbps[i] != res2.Total.Mbps[i] {
			t.Fatalf("series diverge at bin %d", i)
		}
	}
}

// TestStaticRunHasSingleEpoch: a run without events reports exactly one
// epoch spanning the run, consistent with the static baseline.
func TestStaticRunHasSingleEpoch(t *testing.T) {
	res, err := RunPaper(Options{Duration: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 1 {
		t.Fatalf("epochs = %d, want 1", len(res.Epochs))
	}
	ep := res.Epochs[0]
	if ep.Start != 0 || ep.End != 500*time.Millisecond {
		t.Fatalf("epoch bounds: %+v", ep)
	}
	if ep.Optimum.Total != res.Optimum.Total {
		t.Fatalf("single epoch optimum %v != static %v", ep.Optimum.Total, res.Optimum.Total)
	}
	if len(res.Events) != 0 {
		t.Fatalf("static run has events: %v", res.Events)
	}
}

// TestLinkUpRestoresCapacityEpoch: down at 1s, up at 2.5s -> three epochs
// with the middle one degraded, and traffic recovering in the last.
func TestLinkUpRestoresCapacityEpoch(t *testing.T) {
	nw := paperWith(t,
		ScenarioEvent{AtMs: 1000, Type: EventLinkDown, A: "s", B: "v1"},
		ScenarioEvent{AtMs: 2500, Type: EventLinkUp, A: "s", B: "v1"})
	res, err := Run(nw, Options{CC: "cubic", Seed: 1, Duration: 6 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 3 {
		t.Fatalf("epochs = %d, want 3", len(res.Epochs))
	}
	if math.Abs(res.Epochs[0].Optimum.Total-90) > 1e-6 ||
		math.Abs(res.Epochs[1].Optimum.Total-60) > 1e-6 ||
		math.Abs(res.Epochs[2].Optimum.Total-90) > 1e-6 {
		t.Fatalf("epoch optima: %v %v %v, want 90/60/90",
			res.Epochs[0].Optimum.Total, res.Epochs[1].Optimum.Total, res.Epochs[2].Optimum.Total)
	}
	// Recovery: the final epoch carries more than the outage epoch.
	if res.Epochs[2].TotalMean <= res.Epochs[1].TotalMean {
		t.Fatalf("no recovery after link_up: %.1f then %.1f",
			res.Epochs[1].TotalMean, res.Epochs[2].TotalMean)
	}
	// Paths 1 and 2 actually come back.
	if res.Epochs[2].PathMeans[0]+res.Epochs[2].PathMeans[1] < 5 {
		t.Fatalf("restored paths idle: %v", res.Epochs[2].PathMeans)
	}
}

// TestSetRateEventChangesEpochOptimum: renegotiating v3-v4 down to 20
// Mbps moves the LP optimum to 70 (x2+x3 <= 20 binds).
func TestSetRateEventChangesEpochOptimum(t *testing.T) {
	nw := paperWith(t, ScenarioEvent{AtMs: 1000, Type: EventSetRate, A: "v3", B: "v4", Mbps: 20})
	res, err := Run(nw, Options{CC: "cubic", Seed: 1, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 2 {
		t.Fatalf("epochs = %d, want 2", len(res.Epochs))
	}
	// max x1+x2+x3 s.t. x1+x2<=40, x2+x3<=20, x1+x3<=80: optimum 60.
	if math.Abs(res.Epochs[1].Optimum.Total-60) > 1e-6 {
		t.Fatalf("renegotiated optimum = %v, want 60", res.Epochs[1].Optimum.Total)
	}
	// The slower link must actually shed throughput.
	if res.Epochs[1].TotalMean >= res.Epochs[0].TotalMean {
		t.Fatalf("rate cut had no effect: %.1f then %.1f",
			res.Epochs[0].TotalMean, res.Epochs[1].TotalMean)
	}
}

// TestLossBurstDegradesWindow: a heavy loss burst mid-run dents throughput
// during the burst window and restores the pre-burst probability after.
func TestLossBurstDegradesWindow(t *testing.T) {
	nw := paperWith(t, ScenarioEvent{AtMs: 1000, Type: EventLossBurst, A: "s", B: "v2", Loss: 0.3, DurationMs: 500})
	res, err := Run(nw, Options{CC: "cubic", Seed: 1, Duration: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Loss events do not open LP epochs.
	if len(res.Epochs) != 1 {
		t.Fatalf("loss burst opened an epoch: %d", len(res.Epochs))
	}
	// Path 3 (the only user of s-v2) suffers during the burst window and
	// recovers after.
	p3 := res.Paths[2]
	during := p3.Mean(time.Second, 1500*time.Millisecond)
	after := p3.Mean(2*time.Second, 3*time.Second)
	if during >= after {
		t.Fatalf("burst did not dent path 3: during=%.1f after=%.1f", during, after)
	}
	if res.Drops["s->v2"] == 0 {
		t.Fatal("burst produced no drops on s->v2")
	}
}

// TestSetDelayEventRuns: a delay change mid-run keeps the connection alive
// and does not open an epoch.
func TestSetDelayEventRuns(t *testing.T) {
	nw := paperWith(t, ScenarioEvent{AtMs: 1000, Type: EventSetDelay, A: "s", B: "v1", DelayMs: 20})
	res, err := Run(nw, Options{CC: "cubic", Seed: 1, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 1 {
		t.Fatalf("delay event opened an epoch: %d", len(res.Epochs))
	}
	if res.Summary.TotalMean < 40 {
		t.Fatalf("throughput collapsed after delay change: %.1f", res.Summary.TotalMean)
	}
}

// TestEventValidation: broken events are rejected when the scenario is
// built, never mid-simulation, and a rejected build leaves the file as it
// was.
func TestEventValidation(t *testing.T) {
	for name, e := range map[string]ScenarioEvent{
		"unknown type":  {AtMs: 1000, Type: "explode", A: "s", B: "v1"},
		"unknown link":  {AtMs: 1000, Type: EventLinkDown, A: "s", B: "d"},
		"negative time": {AtMs: -1000, Type: EventLinkDown, A: "s", B: "v1"},
		"zero rate":     {AtMs: 1000, Type: EventSetRate, A: "s", B: "v1"},
		"loss > 1":      {AtMs: 1000, Type: EventSetLoss, A: "s", B: "v1", Loss: 2},
		"burst no len":  {AtMs: 1000, Type: EventLossBurst, A: "s", B: "v1", Loss: 0.5},
		// Cross-event rule: up without a preceding down.
		"up without down": {AtMs: 1000, Type: EventLinkUp, A: "s", B: "v1"},
	} {
		sf := PaperScenario()
		sf.Events = []ScenarioEvent{e}
		nw, err := sf.Build()
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if nw != nil {
			t.Errorf("%s: rejected build returned a network", name)
		}
		if len(sf.Events) != 1 || sf.Events[0] != e {
			t.Errorf("%s: build changed the file's events: %v", name, sf.Events)
		}
	}
}

// TestChartMarksEvents: the ASCII chart draws a vertical marker at each
// event time.
func TestChartMarksEvents(t *testing.T) {
	nw := paperWith(t, ScenarioEvent{AtMs: 1000, Type: EventLinkDown, A: "s", B: "v1"})
	res, err := Run(nw, Options{CC: "cubic", Seed: 1, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Chart(&buf, "dyn"); err != nil {
		t.Fatal(err)
	}
	// Every row starts with the "|" axis; the event marker adds a second
	// "|" mid-plot on rows no series overwrites.
	marked := false
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Count(line, "|") >= 2 {
			marked = true
			break
		}
	}
	if !marked {
		t.Fatal("chart has no event marker")
	}
	var rep bytes.Buffer
	if err := res.Report(&rep); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"event:", "epoch 1:", "epoch 2:", "link_down"} {
		if !strings.Contains(rep.String(), frag) {
			t.Fatalf("report missing %q:\n%s", frag, rep.String())
		}
	}
}
