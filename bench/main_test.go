package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mptcpsim"
)

// TestMain lets the driver re-execute the test binary as a benchmark
// child: with the child marker set, the process is the benchmark, not the
// tests.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadContract(t *testing.T) contract {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var c contract
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestBenchmarkContract holds BENCHMARK.json to the contract's limits and
// to the driver's own catalogue, so neither can drift from the other.
func TestBenchmarkContract(t *testing.T) {
	c := loadContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", c.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(c.Workloads), len(workloads))
	}
	for i, w := range c.Workloads {
		use(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the driver %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	match := func(kind string, got []contractMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the driver %d", kind, len(got), len(want))
		}
		for i, m := range got {
			use(m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the driver %s [%s]", kind, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !bounded {
				if m.Bound != nil {
					t.Errorf("%s: per-layer metrics carry no bound", m.Name)
				}
				continue
			}
			if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
				t.Errorf("%s: bound must be in (0, 0.25]", m.Name)
			} else if *m.Bound != want[i].bound || m.Better != want[i].better {
				t.Errorf("%s: BENCHMARK.json has %s by %g, the driver %s by %g", m.Name, m.Better, *m.Bound, want[i].better, want[i].bound)
			}
		}
	}
	match("end_to_end", c.EndToEnd, endToEnd, true)
	match("per_layer", c.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end must include setup_s")
	}
	for _, n := range exactCounts {
		if !seen[n] {
			t.Errorf("exact count %q is not a declared metric", n)
		}
	}
	for _, d := range layerDrivers {
		if !seen[d.metric] {
			t.Errorf("micro-driver metric %q is not a declared metric", d.metric)
		}
	}
}

// TestQuickDriver is the smoke test: the whole driver at -quick sizes,
// children and all, must report every declared workload and metric with
// its unit, with no failed run and no failed check.
func TestQuickDriver(t *testing.T) {
	c := loadContract(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-quick", "-seconds", "0.1", "-dir", dir, "-out", out}, &stdout, &stderr, hooks{})
	if code != 0 {
		t.Fatalf("driver exited %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	rep, err := loadReport(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Workloads {
		wr := rep.Workloads[w.Name]
		if wr == nil {
			t.Errorf("workload %s is missing from the driver's output", w.Name)
			continue
		}
		if !wr.Correct || wr.RunsFailed != 0 || wr.RunsAttempted == 0 || len(wr.ResultsDigest) != 64 {
			t.Errorf("%s: correct %v, %d of %d runs failed, digest %q: %v", w.Name, wr.Correct, wr.RunsFailed, wr.RunsAttempted, wr.ResultsDigest, wr.FailedChecks)
		}
		for _, m := range c.EndToEnd {
			st, ok := wr.EndToEnd[m.Name]
			if !ok || st.Unit != m.Unit || st.N == 0 || st.Median <= 0 {
				t.Errorf("%s: end-to-end metric %s reported as %+v, want a positive value in %s", w.Name, m.Name, st, m.Unit)
			}
		}
		for _, m := range c.PerLayer {
			got, ok := wr.PerLayer[m.Name]
			if !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer metric %s reported as %+v, want unit %s", w.Name, m.Name, got, m.Unit)
			}
		}
		if len(wr.Phases) == 0 {
			t.Errorf("%s: no phase table", w.Name)
		}
		// The human-readable output names every metric too.
		if !strings.Contains(stdout.String(), "== "+w.Name) {
			t.Errorf("%s is missing from the printed output", w.Name)
		}
	}
	for _, m := range append(c.EndToEnd, c.PerLayer...) {
		if !strings.Contains(stdout.String(), m.Name) {
			t.Errorf("metric %s is missing from the printed output", m.Name)
		}
	}

	// A file compares clean against itself, exact counts included.
	var cmp bytes.Buffer
	if code := compareFiles(out, out, &cmp, &cmp); code != 0 {
		t.Errorf("-compare of a file with itself exited %d:\n%s", code, cmp.String())
	}
}

// TestCorruptRunLogFails shows an output check failing the command: one
// flipped byte in a shard run-log must cost the runs of that shard, mark
// the result incorrect and exit non-zero.
func TestCorruptRunLogFails(t *testing.T) {
	corrupt := func(paths []string) {
		data, err := os.ReadFile(paths[0])
		if err != nil {
			t.Error(err)
			return
		}
		// Inside the second record: mid-file damage, not a torn tail.
		at := bytes.IndexByte(data, '\n') + 2
		data[at] ^= 0xff
		if err := os.WriteFile(paths[0], data, 0o666); err != nil {
			t.Error(err)
		}
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-workload", "screen_stream", "-quick", "-seconds", "0.1", "-dir", t.TempDir()},
		&stdout, &stderr, hooks{afterLogs: corrupt})
	if code != 1 {
		t.Fatalf("exit code %d, want 1\n%s\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v", err)
	}
	if last.Correct || last.Failed == 0 || last.Failed >= last.Attempted {
		t.Errorf("result %+v, want incorrect with the corrupted shard's runs (and only those) failed", last)
	}
}

// TestCountSinkOrderIndependent: shard streams and fleet leases deliver the
// same runs in different orders, and the simulated statistics are compared
// for equality, so they may not depend on the order.
func TestCountSinkOrderIndependent(t *testing.T) {
	gaps := []float64{0.1, 0.2, 0.3, 1e-9, 0.7}
	feed := func(order ...int) *countSink {
		c := newCountSink(len(gaps))
		for _, i := range order {
			c.record(mptcpsim.RunSummary{Index: i, Gap: gaps[i], TotalMbps: 90 * gaps[i]}, &mptcpsim.Result{}, "h")
		}
		return c
	}
	a, b := feed(0, 1, 2, 3, 4), feed(4, 2, 0, 3, 1)
	if a.meanGap() != b.meanGap() || a.meanMbps() != b.meanMbps() {
		t.Errorf("delivery order changed the statistics: gap %v vs %v, goodput %v vs %v",
			a.meanGap(), b.meanGap(), a.meanMbps(), b.meanMbps())
	}
	if a.digest() != b.digest() {
		t.Error("delivery order changed the digest")
	}
}

// TestRefKernel: the reference kernel does the same work every time, keeps
// its pending set at its size, and a meter that never got a slice leaves
// the numbers as measured.
func TestRefKernel(t *testing.T) {
	a, b := newRefKernel(256, 1<<12), newRefKernel(256, 1<<12)
	a.spin(100000)
	b.spin(60000)
	b.spin(40000)
	if a.check != b.check || a.check == 0 || len(a.heap) != 256 {
		t.Errorf("after the same 100000 events: check %d vs %d, %d pending, want equal, non-zero, 256", a.check, b.check, len(a.heap))
	}
	for i := 1; i < len(a.heap); i++ {
		if a.heap[i].before(a.heap[(i-1)/2]) {
			t.Fatalf("heap order broken at %d", i)
		}
	}
	if s := (refTotals{}).slowdown(); s != 1 {
		t.Errorf("slowdown with no slice = %v, want 1", s)
	}
	if s := (refTotals{Ops: refNominal, Wall: 2, CPU: 1.5}); s.slowdown() != 2 || s.cpuSlowdown() != 1.5 {
		t.Errorf("a host that takes 2 s (1.5 s of CPU) for the reference host's second: slowdown %v, %v", s.slowdown(), s.cpuSlowdown())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3, err := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if err != nil || q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, %v; want 3.5, 31", q1, q3, err)
	}
	if _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("one sample has no quartiles")
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{name: "sim_s_per_s", better: "higher", bound: 0.05}
	tight := func(med float64) stat {
		return stat{Median: med, Q1: med * 0.995, Q3: med * 1.005, N: 3, Samples: []float64{med * 0.995, med, med * 1.005}}
	}
	wide := func(med float64) stat {
		return stat{Median: med, Q1: med * 0.9, Q3: med * 1.1, N: 3, Samples: []float64{med * 0.9, med, med * 1.1}}
	}
	for _, tc := range []struct {
		name string
		a, b stat
		want string
	}{
		{"unchanged", tight(100), tight(99), "ok"},
		{"faster", tight(100), tight(130), "ok"},
		{"slower than the bound", tight(100), tight(90), "worse"},
		{"noisy and overlapping", wide(100), wide(101), "unresolved"},
		{"noisy but every run better", wide(100), wide(200), "ok"},
		{"noisy but every run worse", wide(200), wide(100), "worse"},
	} {
		if _, got := verdict(higher, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
	lower := metricDef{name: "cpu_ms_per_sim_s", better: "lower", bound: 0.05}
	if _, got := verdict(lower, tight(100), tight(110)); got != "worse" {
		t.Errorf("lower-is-better metric that rose 10%%: verdict %q, want worse", got)
	}
}
