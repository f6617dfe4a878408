package mptcpsim

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPaperLPOptimum verifies experiment E2: the LP of Fig. 1c has optimum
// 90 Mbps at {30, 10, 50} and all three shared bottlenecks bind.
func TestPaperLPOptimum(t *testing.T) {
	res, err := RunPaper(Options{Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Optimum.Total-90) > 1e-6 {
		t.Fatalf("LP total = %v, want 90", res.Optimum.Total)
	}
	want := []float64{30, 10, 50}
	for i, v := range want {
		if math.Abs(res.Optimum.PerPath[i]-v) > 1e-6 {
			t.Fatalf("LP solution = %v, want %v", res.Optimum.PerPath, want)
		}
	}
	for _, frag := range []string{"max x1 + x2 + x3", "x1 + x2 <= 40", "x2 + x3 <= 60", "x1 + x3 <= 80"} {
		if !strings.Contains(res.Problem, frag) {
			t.Fatalf("LP rendering missing %q:\n%s", frag, res.Problem)
		}
	}
	// Analytic baselines (greedy trap, max-min).
	if math.Abs(total(res.Greedy)-60) > 1e-6 {
		t.Fatalf("greedy total = %v, want 60", total(res.Greedy))
	}
	if math.Abs(total(res.MaxMin)-80) > 1e-6 {
		t.Fatalf("max-min total = %v, want 80", total(res.MaxMin))
	}
}

// TestPaperTopology verifies experiment E1: the built network matches
// Fig. 1a/1b.
func TestPaperTopology(t *testing.T) {
	nw := PaperNetwork()
	if nw.NumPaths() != 3 {
		t.Fatalf("paths = %d", nw.NumPaths())
	}
	wants := []string{
		"s -> v1 -> v2 -> v3 -> d",
		"s -> v1 -> v3 -> v4 -> d",
		"s -> v2 -> v3 -> v4 -> d",
	}
	for i, w := range wants {
		if got := nw.PathDescription(i + 1); got != w {
			t.Fatalf("path %d = %q, want %q", i+1, got, w)
		}
	}
}

// TestFig2aCubicShape verifies experiment E3's qualitative shape: the
// default path ramps first, the allocation then shakes down towards the
// LP vertex, and the total converges into the optimum band.
func TestFig2aCubicShape(t *testing.T) {
	res, err := RunPaper(Options{CC: "cubic", Seed: 1, Duration: 4 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Path 2 (default) dominates the first bins.
	p1, p2 := res.Paths[0], res.Paths[1]
	if !(p2.Mbps[0] > p1.Mbps[0]) {
		t.Fatalf("first bin: P2=%v should lead P1=%v", p2.Mbps[0], p1.Mbps[0])
	}
	// Late allocation approaches the LP vertex: x2 smallest, x3 largest.
	m := res.Summary.PathMeans
	if !(m[2] > m[0] && m[0] > m[1]) {
		t.Fatalf("late allocation %v does not order x3 > x1 > x2", m)
	}
	// The total exceeds every single-path bottleneck and the greedy trap.
	if res.Summary.TotalMean < 70 {
		t.Fatalf("CUBIC total %v too low", res.Summary.TotalMean)
	}
	if !res.Summary.Converged {
		t.Fatal("CUBIC seed 1 should converge within 4s")
	}
}

// TestCubicAlwaysReachesOptimum is the §3 headline for CUBIC: on a 12 s
// horizon every seed reaches the optimum band.
func TestCubicAlwaysReachesOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	conv := 0
	for seed := int64(1); seed <= 8; seed++ {
		res, err := RunPaper(Options{CC: "cubic", Seed: seed, Duration: 12 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Converged {
			conv++
		}
	}
	if conv < 7 {
		t.Fatalf("CUBIC converged for %d/8 seeds, want >= 7", conv)
	}
}

// TestLIANeverReachesOptimum is the §3 headline for LIA: stable but stuck
// below the optimum at the paper's horizon.
func TestLIANeverReachesOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for seed := int64(1); seed <= 8; seed++ {
		res, err := RunPaper(Options{CC: "lia", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Converged {
			t.Fatalf("LIA converged at seed %d — paper says it never does", seed)
		}
		if res.Summary.Gap < 0.10 {
			t.Fatalf("LIA gap %.1f%% suspiciously small at seed %d", res.Summary.Gap*100, seed)
		}
	}
}

// TestOLIASlowConvergence is the §3 headline for OLIA: not converged at
// the 4 s horizon, but reaching the band in a fraction of long runs, and
// never quickly.
func TestOLIASlowConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("long-horizon sweep")
	}
	for seed := int64(1); seed <= 4; seed++ {
		res, err := RunPaper(Options{CC: "olia", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Converged {
			t.Fatalf("OLIA converged within 4s at seed %d — should be slow", seed)
		}
	}
	conv := 0
	for seed := int64(1); seed <= 6; seed++ {
		res, err := RunPaper(Options{CC: "olia", Seed: seed, Duration: 25 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Converged {
			conv++
			if res.Summary.ConvergedAt < 5*time.Second {
				t.Fatalf("OLIA converged at %v — implausibly fast", res.Summary.ConvergedAt)
			}
		}
	}
	if conv == 0 {
		t.Fatal("OLIA never converged on the long horizon (paper: 'in many measurements')")
	}
}

// TestCCOrderingAtPaperHorizon: CUBIC beats the coupled algorithms at 4 s
// (seed-averaged).
func TestCCOrderingAtPaperHorizon(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	mean := func(cc string) float64 {
		var sum float64
		for seed := int64(1); seed <= 5; seed++ {
			res, err := RunPaper(Options{CC: cc, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			sum += res.Summary.TotalMean
		}
		return sum / 5
	}
	cubic, lia, olia := mean("cubic"), mean("lia"), mean("olia")
	if !(cubic > lia && cubic > olia) {
		t.Fatalf("ordering violated: cubic=%.1f lia=%.1f olia=%.1f", cubic, lia, olia)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	run := func() *Result {
		res, err := RunPaper(Options{CC: "cubic", Seed: 42, Duration: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Packets != b.Packets || a.DeliveredBytes != b.DeliveredBytes {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d packets/bytes",
			a.Packets, a.DeliveredBytes, b.Packets, b.DeliveredBytes)
	}
	for i := range a.Total.Mbps {
		if a.Total.Mbps[i] != b.Total.Mbps[i] {
			t.Fatalf("series diverge at bin %d", i)
		}
	}
	c, err := RunPaper(Options{CC: "cubic", Seed: 43, Duration: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if c.DeliveredBytes == a.DeliveredBytes {
		t.Fatal("different seeds produced identical byte counts (no run-to-run noise?)")
	}
}

// chain is the scenario a - m - b: two 20 Mbps, 5 ms links and one path.
func chain() *ScenarioFile {
	sf := &ScenarioFile{
		Links: []ScenarioLink{
			{A: "a", B: "m", Mbps: 20, DelayMs: 5},
			{A: "m", B: "b", Mbps: 20, DelayMs: 5},
		},
		Paths: []ScenarioPath{{Nodes: []string{"a", "m", "b"}}},
	}
	sf.Endpoints.Src, sf.Endpoints.Dst = "a", "b"
	return sf
}

// mustBuild builds sf or fails the test.
func mustBuild(t testing.TB, sf *ScenarioFile) *Network {
	t.Helper()
	nw, err := sf.Build()
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// TestCustomNetworkValidation: what Build cannot see — the run's own path
// selections — is refused by Run before any simulation. Build's checks are
// TestLoadNetworkRejectsBadInput's.
func TestCustomNetworkValidation(t *testing.T) {
	nw := mustBuild(t, chain())
	for name, opts := range map[string]Options{
		"unknown subflow path":  {SubflowPaths: []int{7}},
		"repeated subflow path": {SubflowPaths: []int{1, 1}},
		"unknown cross path":    {CrossTCP: []int{2}},
	} {
		if _, err := Run(nw, opts); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCustomTwoPathNetwork(t *testing.T) {
	// A classic wifi/cellular disjoint-path setup: MPTCP should aggregate.
	sf := &ScenarioFile{
		Links: []ScenarioLink{
			{A: "phone", B: "wifi", Mbps: 30, DelayMs: 5},
			{A: "wifi", B: "server", Mbps: 100, DelayMs: 10},
			{A: "phone", B: "lte", Mbps: 20, DelayMs: 15},
			{A: "lte", B: "server", Mbps: 100, DelayMs: 20},
		},
		Paths: []ScenarioPath{
			{Nodes: []string{"phone", "wifi", "server"}},
			{Nodes: []string{"phone", "lte", "server"}},
		},
	}
	sf.Endpoints.Src, sf.Endpoints.Dst = "phone", "server"
	res, err := Run(mustBuild(t, sf), Options{CC: "lia", Duration: 5 * time.Second, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Optimum.Total-50) > 1e-6 {
		t.Fatalf("disjoint LP total = %v, want 50", res.Optimum.Total)
	}
	// Aggregation: beat the best single path by a clear margin.
	if res.Summary.TotalMean < 35 {
		t.Fatalf("aggregate = %.1f Mbps, want > 35 (wifi alone is 30)", res.Summary.TotalMean)
	}
}

func TestLossyPathDegrades(t *testing.T) {
	lossyFile := chain()
	lossyFile.Links[0].Loss = 0.02
	clean, err := Run(mustBuild(t, chain()), Options{CC: "reno", Duration: 3 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := Run(mustBuild(t, lossyFile), Options{CC: "reno", Duration: 3 * time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lossy.Summary.TotalMean >= clean.Summary.TotalMean {
		t.Fatalf("2%% loss did not reduce throughput: %.1f vs %.1f",
			lossy.Summary.TotalMean, clean.Summary.TotalMean)
	}
}

func TestOutputsRender(t *testing.T) {
	res, err := RunPaper(Options{CC: "cubic", Duration: time.Second, RetainPackets: true})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	head := strings.SplitN(csv.String(), "\n", 2)[0]
	if head != "t,Path 1,Path 2,Path 3,Total" {
		t.Fatalf("CSV header = %q", head)
	}
	var chart bytes.Buffer
	if err := res.Chart(&chart, "title"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart.String(), "T=Total") {
		t.Fatal("chart missing legend")
	}
	var rep bytes.Buffer
	if err := res.Report(&rep); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"optimum:", "measured:", "subflow"} {
		if !strings.Contains(rep.String(), frag) {
			t.Fatalf("report missing %q:\n%s", frag, rep.String())
		}
	}
	var pcap bytes.Buffer
	if err := res.WritePCAP(&pcap); err != nil {
		t.Fatal(err)
	}
	if pcap.Len() < 24 {
		t.Fatal("pcap too small")
	}
	// Without retention, WritePCAP must refuse.
	res2, err := RunPaper(Options{Duration: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.WritePCAP(&pcap); err == nil {
		t.Fatal("WritePCAP without retention succeeded")
	}
}

// TestSchedulerOptions runs each scheduler name once. What the roundrobin
// alias does is pinned by TestRoundRobinGrantsAsMinRTT.
func TestSchedulerOptions(t *testing.T) {
	for _, sched := range []string{"minrtt", "roundrobin", "redundant"} {
		res, err := RunPaper(Options{CC: "cubic", Scheduler: sched, Duration: time.Second})
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		if res.Summary.TotalMean <= 0 {
			t.Fatalf("%s: no throughput", sched)
		}
		if sched == "redundant" && res.DuplicateBytes == 0 {
			t.Fatal("redundant scheduler produced no duplicates")
		}
	}
	if _, err := RunPaper(Options{Scheduler: "warp"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
	if _, err := RunPaper(Options{CC: "tahoe9"}); err == nil {
		t.Fatal("unknown CC accepted")
	}
}

// TestDefaultsHashAsTheirNames: a run's hashes record what the packets did,
// not how its options were written: the empty CC and scheduler resolve to
// "cubic" and "minrtt" before anything reads them, the digests included.
func TestDefaultsHashAsTheirNames(t *testing.T) {
	implicit, err := RunPaper(Options{})
	if err != nil {
		t.Fatal(err)
	}
	named, err := RunPaper(Options{CC: "cubic", Scheduler: "minrtt"})
	if err != nil {
		t.Fatal(err)
	}
	if implicit.Hash() != named.Hash() || implicit.EngineHash() != named.EngineHash() {
		t.Fatalf("defaults hash apart from their names: Hash %.12s vs %.12s, EngineHash %.12s vs %.12s",
			implicit.Hash(), named.Hash(), implicit.EngineHash(), named.EngineHash())
	}
	if o := implicit.Options; o.CC != "cubic" || o.Scheduler != "minrtt" {
		t.Fatalf("Result.Options has cc=%q scheduler=%q, want the resolved names", o.CC, o.Scheduler)
	}
}

func TestDisableSACKAblation(t *testing.T) {
	// Without SACK, recovery degrades: more RTOs / lower throughput on the
	// same seed and horizon.
	sack, err := RunPaper(Options{CC: "cubic", Seed: 2, Duration: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	nosack, err := RunPaper(Options{CC: "cubic", Seed: 2, Duration: 3 * time.Second, DisableSACK: true})
	if err != nil {
		t.Fatal(err)
	}
	if nosack.Summary.TotalMean >= sack.Summary.TotalMean {
		t.Fatalf("no-SACK (%.1f) should underperform SACK (%.1f)",
			nosack.Summary.TotalMean, sack.Summary.TotalMean)
	}
}

// TestCrossTrafficFairness checks the RFC 6356 ordering with a competing
// TCP flow on the shared bottleneck: coupled LIA takes less than
// uncoupled CUBIC relative to the cross flow.
func TestCrossTrafficFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("10s runs")
	}
	run := func(cc string) (mptcpRate, tcpRate float64) {
		res, err := RunPaper(Options{
			CC:           cc,
			Seed:         1,
			Duration:     10 * time.Second,
			SubflowPaths: []int{2, 1},
			CrossTCP:     []int{2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Cross) != 1 {
			t.Fatalf("cross series = %d, want 1", len(res.Cross))
		}
		m1, _, _, _ := res.Paths[0].Stats(2*time.Second, 10*time.Second)
		m2, _, _, _ := res.Paths[1].Stats(2*time.Second, 10*time.Second)
		c, _, _, _ := res.Cross[0].Stats(2*time.Second, 10*time.Second)
		return m1 + m2, c
	}
	liaM, liaT := run("lia")
	cubM, cubT := run("cubic")
	if liaT <= 0 || cubT <= 0 {
		t.Fatal("cross flow starved entirely")
	}
	liaRatio, cubRatio := liaM/liaT, cubM/cubT
	if liaRatio >= cubRatio {
		t.Fatalf("coupled LIA ratio %.2f should be below uncoupled CUBIC %.2f", liaRatio, cubRatio)
	}
	if liaRatio > 1.3 {
		t.Fatalf("LIA takes %.2fx a single TCP — violates 'do no harm'", liaRatio)
	}
}

func TestCrossTrafficValidation(t *testing.T) {
	if _, err := RunPaper(Options{CrossTCP: []int{9}, Duration: time.Second}); err == nil {
		t.Fatal("CrossTCP with bad path accepted")
	}
}

// TestRunRejectsTooManyBins: a nanosecond bin width must be refused before
// the per-path series are allocated (4 s / 1 ns is 4e9 floats per path, an
// out-of-memory death if attempted). A bin wider than the run stays legal:
// it has no full bin and reports nothing measured.
func TestRunRejectsTooManyBins(t *testing.T) {
	_, err := RunPaper(Options{Duration: 4 * time.Second, SampleInterval: time.Nanosecond})
	if err == nil {
		t.Fatal("4e9 bins per series accepted")
	}
	for _, want := range []string{"4000000000 bins", "1048576"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	res, err := RunPaper(Options{Duration: 50 * time.Millisecond})
	if err != nil {
		t.Fatalf("50 ms run on the 100 ms default bin: %v", err)
	}
	if res.Summary.TotalMean != 0 || res.DeliveredBytes == 0 {
		t.Fatalf("run without a full bin: measured %v Mbps, delivered %d bytes; want 0 Mbps of a run that did move data",
			res.Summary.TotalMean, res.DeliveredBytes)
	}
}

// TestWVegasRuns exercises the delay-based coupled algorithm end to end.
func TestWVegasRuns(t *testing.T) {
	res, err := RunPaper(Options{CC: "wvegas", Seed: 2, Duration: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.TotalMean < 40 {
		t.Fatalf("wvegas total = %.1f, want > 40", res.Summary.TotalMean)
	}
	// Delay-based control should be (near) lossless on its own paths once
	// settled — far fewer retransmissions than loss-based CUBIC.
	cubic, err := RunPaper(Options{CC: "cubic", Seed: 2, Duration: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	var wvRtx, cuRtx uint64
	for _, sf := range res.Subflows {
		wvRtx += sf.Retransmits
	}
	for _, sf := range cubic.Subflows {
		cuRtx += sf.Retransmits
	}
	if wvRtx >= cuRtx {
		t.Fatalf("wvegas rtx=%d not below cubic rtx=%d", wvRtx, cuRtx)
	}
}

// TestQueueScaleRestoresNetwork: a Network is reusable across runs; a
// QueueScale run must not clobber explicit queue sizes.
func TestQueueScaleRestoresNetwork(t *testing.T) {
	sf := chain()
	sf.Links[0].QueueBytes = 64 * 1024
	nw := mustBuild(t, sf)
	base, err := Run(nw, Options{CC: "reno", Duration: time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(nw, Options{CC: "reno", Duration: time.Second, Seed: 1, QueueScale: 0.25}); err != nil {
		t.Fatal(err)
	}
	again, err := Run(nw, Options{CC: "reno", Duration: time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if base.DeliveredBytes != again.DeliveredBytes {
		t.Fatalf("network state leaked across runs: %d vs %d bytes",
			base.DeliveredBytes, again.DeliveredBytes)
	}
}

func TestTimestampsOptionRuns(t *testing.T) {
	res, err := RunPaper(Options{CC: "cubic", Seed: 1, Duration: 2 * time.Second, Timestamps: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.TotalMean < 50 {
		t.Fatalf("timestamps run total = %.1f, want > 50", res.Summary.TotalMean)
	}
}

// TestQueueScaleRestoresLinkQueues asserts the restoration directly: after
// a QueueScale run, every link's configured queue value — explicit or
// auto-sized (zero) — is back to what it was, so a reused Network sees no
// leftover scaling.
func TestQueueScaleRestoresLinkQueues(t *testing.T) {
	// One explicit queue, the rest auto-sized (Queue == 0).
	sf := chain()
	sf.Links[0].QueueBytes = 64 * 1024
	nw := mustBuild(t, sf)
	before := make([]int64, nw.graph.NumLinks())
	for i, l := range nw.graph.Links() {
		before[i] = int64(l.Queue)
	}
	for _, qs := range []float64{0.25, 4} {
		if _, err := Run(nw, Options{CC: "reno", Duration: 500 * time.Millisecond, Seed: 1, QueueScale: qs}); err != nil {
			t.Fatal(err)
		}
		for i, l := range nw.graph.Links() {
			if int64(l.Queue) != before[i] {
				t.Fatalf("QueueScale %v leaked: link %d queue %d, want %d", qs, i, l.Queue, before[i])
			}
		}
	}
	// The auto-sized links are still auto (0), not frozen at a scaled size.
	autoSeen := false
	for i, l := range nw.graph.Links() {
		if before[i] == 0 {
			autoSeen = true
			if l.Queue != 0 {
				t.Fatalf("auto-sized link %d pinned to %d", i, l.Queue)
			}
		}
	}
	if !autoSeen {
		t.Fatal("test lost its auto-sized links")
	}
}

// TestRunSharesNetwork: Run writes nothing reachable from its Network, so
// one Network serves concurrent runs — across congestion controls, seeds
// and queue scales, on a topology with an explicit queue, a lossy link and
// a capacity/outage timeline — each hashing like the same run on a network
// of its own, and the network equal to a freshly built one afterwards.
func TestRunSharesNetwork(t *testing.T) {
	build := func() *Network {
		sf := PaperScenario()
		sf.Links[0].QueueBytes = 48 * 1024
		sf.Links[5].Loss = 0.002
		sf.Events = []ScenarioEvent{
			{AtMs: 80, Type: EventSetRate, A: "v2", B: "v3", Mbps: 40},
			{AtMs: 120, Type: EventLinkDown, A: "s", B: "v1"},
			{AtMs: 160, Type: EventLinkUp, A: "s", B: "v1"},
			{AtMs: 200, Type: EventLossBurst, A: "v3", B: "v4", Loss: 0.1, DurationMs: 20},
		}
		return mustBuild(t, sf)
	}
	var all []Options
	for _, cc := range []string{"cubic", "olia", "wvegas"} {
		for _, seed := range []int64{1, 2} {
			for _, qs := range []float64{0.25, 1, 3} {
				all = append(all, Options{CC: cc, Seed: seed, QueueScale: qs,
					Duration: 300 * time.Millisecond, ValidateInvariants: seed == 2})
			}
		}
	}
	shared := build()
	if !reflect.DeepEqual(shared, build()) {
		t.Fatal("two builds of one scenario differ")
	}
	hashes := make([]string, len(all))
	var wg sync.WaitGroup
	for i, opts := range all {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(shared, opts)
			if err != nil {
				t.Errorf("shared run %d: %v", i, err)
				return
			}
			hashes[i] = res.Hash()
		}()
	}
	wg.Wait()
	if !reflect.DeepEqual(shared, build()) {
		t.Fatal("Run modified its network")
	}
	for i, opts := range all {
		res, err := Run(build(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if h := res.Hash(); h != hashes[i] {
			t.Fatalf("run %d (%s seed %d queue x%v): shared network hashed %.12s, a fresh one %.12s",
				i, opts.CC, opts.Seed, opts.QueueScale, hashes[i], h)
		}
	}
}
