package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"mptcpsim"
	"mptcpsim/internal/cli"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestDefaultGridShape(t *testing.T) {
	grid, err := cli.LoadGrid("")
	if err != nil {
		t.Fatal(err)
	}
	specs, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 24 {
		t.Fatalf("default grid expands to %d runs, want 24 (6 CCs x 4 orders)", len(specs))
	}
}

func TestLoadGridResolvesFileReferences(t *testing.T) {
	dir := t.TempDir()
	scenario, err := json.Marshal(mptcpsim.PaperScenario())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "net.json"), scenario, 0o644); err != nil {
		t.Fatal(err)
	}
	gridJSON := `{"scenarios": [{"file": "net.json"}], "ccs": ["cubic"]}`
	gridPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(gridJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	grid, err := cli.LoadGrid(gridPath)
	if err != nil {
		t.Fatal(err)
	}
	if grid.Scenarios[0].Scenario == nil || grid.Scenarios[0].File != "" {
		t.Fatalf("file reference not resolved inline: %+v", grid.Scenarios[0])
	}
	if grid.Scenarios[0].Name != "net.json" {
		t.Fatalf("scenario name = %q, want the path as written", grid.Scenarios[0].Name)
	}
	if _, err := grid.Expand(); err != nil {
		t.Fatal(err)
	}
}

func TestLoadGridMissingFile(t *testing.T) {
	dir := t.TempDir()
	gridPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(`{"scenarios":[{"file":"absent.json"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.LoadGrid(gridPath); err == nil {
		t.Fatal("missing scenario file not reported")
	}
}

// goldenGrid is a tiny deterministic sweep the golden files are built
// from: 300 ms runs, one static and one dynamic cell.
const goldenGrid = `{
  "ccs": ["cubic", "olia"],
  "orders": [[2, 1, 3]],
  "duration_ms": 300,
  "events": [
    {"name": "static"},
    {"name": "outage", "events": [
      {"at_ms": 100, "type": "link_down", "a": "s", "b": "v1"},
      {"at_ms": 200, "type": "link_up", "a": "s", "b": "v1"}]}
  ]
}`

// TestRunGolden executes the whole command against the golden grid and
// compares every output byte for byte: the human report on stdout, the
// per-run CSV, the groups CSV and the JSON document. Regenerate with
// go test ./cmd/sweep -update (and review the diff as a behaviour
// change).
func TestRunGolden(t *testing.T) {
	dir := t.TempDir()
	gridPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(goldenGrid), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{
		seeds:    1,
		Flags:    outputsIn(dir),
		gridPath: gridPath,
		workers:  4,
		check:    true,
	}
	var stdout, stderr bytes.Buffer
	if err := run(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}

	// The report references the temp paths; strip the "wrote ..." lines
	// before comparing.
	var reportLines []string
	for _, line := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(line, "wrote ") {
			continue
		}
		reportLines = append(reportLines, line)
	}
	compareGolden(t, "report.txt", []byte(strings.Join(reportLines, "\n")))
	for _, name := range []string{"runs.csv", "groups.csv", "sweep.json"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, name, got)
	}

	// Shape checks independent of the golden bytes: every CSV row parses
	// and carries the full column set.
	f, err := os.Open(filepath.Join(dir, "runs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 { // header + 2 CCs x 2 event sets
		t.Fatalf("runs.csv has %d rows, want 5", len(rows))
	}
	wantHeader := "index,scenario,perturbation,events,cc,scheduler,order,seed"
	if got := strings.Join(rows[0][:8], ","); got != wantHeader {
		t.Fatalf("runs.csv header starts %q, want %q", got, wantHeader)
	}
}

// TestCIShardGridShape pins the CI shard-matrix workload: the grid the
// workflow fans across 4 shards must stay a valid, >= 500-run sweep over
// every CC, every scheduler and both event sets — the scale at which the
// distributed-determinism contract is enforced on every PR.
func TestCIShardGridShape(t *testing.T) {
	grid, err := cli.LoadGrid(filepath.Join("testdata", "ci-shard-grid.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := grid.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) < 500 {
		t.Fatalf("CI shard grid expands to %d runs, want >= 500", len(specs))
	}
	if len(grid.CCs) != 6 || len(grid.Orders) != 3 || len(grid.Events) != 2 || len(grid.Seeds) < 2 {
		t.Fatalf("CI shard grid lost an axis: %d CCs, %d orders, %d event sets, %d seeds",
			len(grid.CCs), len(grid.Orders), len(grid.Events), len(grid.Seeds))
	}
	// Only minrtt and redundant do different work; roundrobin grants as
	// minrtt does, so a grid that lists it buys no cell.
	scheds := map[string]bool{}
	for _, s := range specs {
		scheds[s.Options.Scheduler] = true
	}
	if len(scheds) != 2 || !scheds["minrtt"] || !scheds["redundant"] {
		t.Fatalf("CI shard grid runs schedulers %v, want minrtt and redundant", slices.Sorted(maps.Keys(scheds)))
	}
}

// TestCIRespelledGridDigest: CI merges a shard of
// ci-shard-grid-respelled.json, which writes out defaults the CI grid leaves
// implicit, with the CI grid's other shards. That holds only while the two
// files differ in spelling and describe the same runs.
func TestCIRespelledGridDigest(t *testing.T) {
	var digests [2]string
	for i, name := range []string{"ci-shard-grid.json", "ci-shard-grid-respelled.json"} {
		grid, err := cli.LoadGrid(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if i == 1 && (grid.SampleMs == 0 || len(grid.Perturbations) == 0) {
			t.Fatalf("%s spells out no default", name)
		}
		if digests[i], _, err = (&mptcpsim.Sweep{}).Describe(grid); err != nil {
			t.Fatal(err)
		}
	}
	if digests[0] != digests[1] {
		t.Fatalf("the re-spelled CI grid digests %.12s, the CI grid %.12s", digests[1], digests[0])
	}
}

// TestRunShardMergeGolden drives the CLI seam through shard and merge
// mode: two shard run-logs of the golden grid merged back must reproduce
// the exact golden report, CSVs and JSON of the unsharded run — the CLI
// half of the distributed-determinism contract
// TestShardMergeByteIdentical proves at the library layer.
func TestRunShardMergeGolden(t *testing.T) {
	dir, gridPath := writeGoldenGrid(t)

	var logPaths []string
	for k := 0; k < 2; k++ {
		cfg := config{
			seeds:      1,
			Flags:      cli.Flags{Quiet: true},
			gridPath:   gridPath,
			workers:    k + 1, // run-logs must not depend on worker count
			check:      true,
			shard:      fmt.Sprintf("%d/2", k),
			streamPath: filepath.Join(dir, fmt.Sprintf("shard-%d.ndjson", k)),
		}
		var stdout, stderr bytes.Buffer
		if err := run(cfg, &stdout, &stderr); err != nil {
			t.Fatalf("shard %d: %v\nstderr: %s", k, err, stderr.String())
		}
		if !strings.Contains(stdout.String(), "wrote "+cfg.streamPath) {
			t.Fatalf("shard %d never announced its run-log:\n%s", k, stdout.String())
		}
		logPaths = append(logPaths, cfg.streamPath)
	}

	cfg := config{Flags: outputsIn(dir), merge: true, logPaths: logPaths}
	var stdout, stderr bytes.Buffer
	if err := run(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("merge: %v\nstderr: %s", err, stderr.String())
	}
	// The merged outputs compare against the same golden files as the
	// unsharded TestRunGolden — byte-identical by contract.
	compareOutputsGolden(t, dir, stdout.String())
}

// TestRunTelemetryAndProgress drives the observability flag surface on a
// passing sweep: -telemetry adds the rollup lines to the report without
// touching the golden outputs, and -progress streams NDJSON heartbeats
// whose final frame accounts for every run.
func TestRunTelemetryAndProgress(t *testing.T) {
	dir := t.TempDir()
	gridPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(goldenGrid), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{
		seeds: 1,
		Flags: cli.Flags{Quiet: true, Progress: filepath.Join(dir, "progress.ndjson"),
			CSV: filepath.Join(dir, "runs.csv")},
		gridPath:  gridPath,
		workers:   4,
		check:     true,
		telemetry: true,
	}
	var stdout, stderr bytes.Buffer
	if err := run(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}

	// The rollup rides below the report; the deterministic outputs above it
	// (and the CSV) must still match the telemetry-off golden files.
	report := stdout.String()
	if !strings.Contains(report, "telemetry:") || !strings.Contains(report, "events fired") {
		t.Fatalf("report carries no telemetry rollup:\n%s", report)
	}
	var reportLines []string
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "wrote ") {
			continue
		}
		if strings.HasPrefix(line, "telemetry:") {
			// Drop the blank separator that introduces the rollup block too.
			if n := len(reportLines); n > 0 && reportLines[n-1] == "" {
				reportLines = reportLines[:n-1]
			}
			continue
		}
		reportLines = append(reportLines, line)
	}
	compareGolden(t, "report.txt", []byte(strings.Join(reportLines, "\n")))
	got, err := os.ReadFile(cfg.CSV)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "runs.csv", got)

	raw, err := os.ReadFile(cfg.Progress)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("progress file is empty")
	}
	prevDone := -1
	var hb struct {
		Done    int     `json:"done"`
		Total   int     `json:"total"`
		Failed  int     `json:"failed"`
		RunsPS  float64 `json:"runs_per_s"`
		ETA     float64 `json:"eta_s"`
		Workers int     `json:"workers"`
	}
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &hb); err != nil {
			t.Fatalf("heartbeat %d: %v: %s", i, err, line)
		}
		if hb.Done < prevDone {
			t.Fatalf("heartbeat %d: done went backwards (%d after %d)", i, hb.Done, prevDone)
		}
		prevDone = hb.Done
	}
	if hb.Done != 4 || hb.Total != 4 || hb.Failed != 0 {
		t.Fatalf("final heartbeat = %+v, want done=4 total=4 failed=0", hb)
	}
	if hb.Workers != 4 || hb.ETA != 0 {
		t.Fatalf("final heartbeat = %+v, want workers=4 eta_s=0", hb)
	}
}

// TestRunReportsPoolSize: -workers 0 or below runs GOMAXPROCS workers, and
// the timing line and every heartbeat say so rather than echo the flag.
func TestRunReportsPoolSize(t *testing.T) {
	dir := t.TempDir()
	gridPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(goldenGrid), 0o644); err != nil {
		t.Fatal(err)
	}
	pool := runtime.GOMAXPROCS(0)
	for _, workers := range []int{0, -2} {
		cfg := config{
			seeds:    1,
			Flags:    cli.Flags{Quiet: true, Progress: filepath.Join(dir, "progress.ndjson")},
			gridPath: gridPath,
			workers:  workers,
		}
		var stdout, stderr bytes.Buffer
		if err := run(cfg, &stdout, &stderr); err != nil {
			t.Fatalf("-workers %d: %v\nstderr: %s", workers, err, stderr.String())
		}
		if want := fmt.Sprintf(" with %d workers\n", pool); !strings.Contains(stderr.String(), want) {
			t.Errorf("-workers %d: stderr does not say %q:\n%s", workers, want, stderr.String())
		}
		raw, err := os.ReadFile(cfg.Progress)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
			var hb struct{ Workers int }
			if err := json.Unmarshal([]byte(line), &hb); err != nil {
				t.Fatalf("heartbeat %d: %v: %s", i, err, line)
			}
			if hb.Workers != pool {
				t.Errorf("-workers %d: heartbeat %d reports %d workers, want %d", workers, i, hb.Workers, pool)
			}
		}
	}
}

// TestRunFlightDumps aborts every run with a tiny event limit and checks
// -flightdir captures a parseable NDJSON tail per failed run (implying
// -telemetry without the flag being set).
func TestRunFlightDumps(t *testing.T) {
	dir := t.TempDir()
	gridPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(goldenGrid), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{
		seeds:      1,
		gridPath:   gridPath,
		workers:    2,
		flightDir:  filepath.Join(dir, "flight"),
		eventLimit: 5000,
	}
	var stdout, stderr bytes.Buffer
	err := run(cfg, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "runs failed") {
		t.Fatalf("event-limited sweep did not fail: %v", err)
	}
	// Not quiet: every failed run's flight notice comes right before its
	// progress line — the observer sinks' chain order.
	lines := strings.Split(stderr.String(), "\n")
	for i := 0; i < 8; i += 2 {
		if !strings.Contains(lines[i], "flight tail in") || !strings.HasPrefix(lines[i+1], "[") ||
			!strings.Contains(lines[i+1], "error: ") {
			t.Fatalf("stderr lines %d-%d are not a flight notice then a progress line:\n%s", i, i+1, stderr.String())
		}
	}

	dumps, err := filepath.Glob(filepath.Join(cfg.flightDir, "flight-*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 4 {
		t.Fatalf("%d flight dumps, want one per aborted run (4): %v", len(dumps), dumps)
	}
	for _, path := range dumps {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		if len(lines) == 0 || lines[0] == "" {
			t.Fatalf("%s is empty", path)
		}
		var ev struct {
			Kind  string `json:"kind"`
			Where string `json:"where"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ev); err != nil {
			t.Fatalf("%s tail: %v", path, err)
		}
		if ev.Kind == "" || ev.Where == "" {
			t.Fatalf("%s tail does not name the event/location: %s", path, lines[len(lines)-1])
		}
	}
}

// TestRunFlagDiagnostics exercises the fail-fast checks around the
// shard/merge flag surface.
func TestRunFlagDiagnostics(t *testing.T) {
	dir := t.TempDir()
	gridPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(goldenGrid), 0o644); err != nil {
		t.Fatal(err)
	}
	quiet := cli.Flags{Quiet: true}
	cases := map[string]struct {
		cfg  config
		want string
	}{
		"shard without stream": {
			config{seeds: 1, Flags: cli.Flags{Quiet: true, Progress: filepath.Join(dir, "early.ndjson"),
				CPUProfile: filepath.Join(dir, "early.pprof")},
				gridPath: gridPath, shard: "0/2", flightDir: filepath.Join(dir, "early-flight")},
			"-stream",
		},
		"shard with aggregate output": {
			config{seeds: 1, Flags: cli.Flags{Quiet: true, JSON: filepath.Join(dir, "x.json")}, gridPath: gridPath,
				shard: "0/2", streamPath: filepath.Join(dir, "s.ndjson")},
			"-merge",
		},
		"bad shard spec": {
			config{seeds: 1, Flags: quiet, gridPath: gridPath, shard: "2/2", streamPath: filepath.Join(dir, "s.ndjson")},
			"out of range",
		},
		"merge without artifacts": {
			config{merge: true},
			"at least one run-log",
		},
		"merge with grid": {
			config{merge: true, gridPath: gridPath, logPaths: []string{"x.ndjson"}},
			"-grid",
		},
		"merge with missing file": {
			config{merge: true, logPaths: []string{filepath.Join(dir, "absent.ndjson")}},
			"absent.ndjson",
		},
		"stray arguments": {
			config{seeds: 1, Flags: quiet, gridPath: gridPath, logPaths: []string{"stray.ndjson"}},
			"unexpected arguments",
		},
		// Both used to run the grid's own duration or seed 1 silently.
		"negative duration": {
			config{seeds: 1, Flags: cli.Flags{Quiet: true, Progress: filepath.Join(dir, "early-duration.ndjson")},
				gridPath: gridPath, duration: -100 * time.Millisecond},
			"-duration -100ms is negative",
		},
		"zero seeds": {
			config{Flags: cli.Flags{Quiet: true, Progress: filepath.Join(dir, "early-seeds.ndjson")}, gridPath: gridPath},
			"-seeds 0 runs no seed",
		},
		"negative seeds": {
			config{seeds: -3, Flags: quiet, gridPath: gridPath},
			"-seeds -3 runs no seed",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.cfg, &stdout, &stderr)
			if err == nil {
				t.Fatal("run accepted a broken flag combination")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// A refused flag combination must not have created or truncated any
	// output on its way to the diagnostic.
	if early, _ := filepath.Glob(filepath.Join(dir, "early*")); len(early) > 0 {
		t.Fatalf("a refused command line left outputs behind: %v", early)
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden file missing (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file %s:\n--- got ---\n%s\n--- want ---\n%s",
			name, path, got, want)
	}
}
