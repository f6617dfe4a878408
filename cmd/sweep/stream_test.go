package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mptcpsim"
	"mptcpsim/internal/cli"
)

// writeGoldenGrid materialises the shared golden grid spec in a temp dir.
func writeGoldenGrid(t *testing.T) (dir, gridPath string) {
	t.Helper()
	dir = t.TempDir()
	gridPath = filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(goldenGrid), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, gridPath
}

// outputsIn is a quiet flag set writing all three output files into dir,
// under the names compareOutputsGolden reads back.
func outputsIn(dir string) cli.Flags {
	return cli.Flags{
		Quiet:  true,
		CSV:    filepath.Join(dir, "runs.csv"),
		Groups: filepath.Join(dir, "groups.csv"),
		JSON:   filepath.Join(dir, "sweep.json"),
	}
}

// reportBody strips the path-bearing "wrote ..." lines from a report.
func reportBody(stdout string) []byte {
	var lines []string
	for _, line := range strings.Split(stdout, "\n") {
		if strings.HasPrefix(line, "wrote ") {
			continue
		}
		lines = append(lines, line)
	}
	return []byte(strings.Join(lines, "\n"))
}

// compareOutputsGolden checks the four output formats against the same
// golden files the in-memory sweep is pinned to.
func compareOutputsGolden(t *testing.T, dir, stdout string) {
	t.Helper()
	compareGolden(t, "report.txt", reportBody(stdout))
	for _, name := range []string{"runs.csv", "groups.csv", "sweep.json"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		compareGolden(t, name, got)
	}
}

// TestRunStreamGolden drives the flat-memory pipeline end to end at two
// worker counts: the report and all three output files, rendered from the
// run-log in the second pass, must match the in-memory sweep's golden
// files byte for byte.
func TestRunStreamGolden(t *testing.T) {
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir, gridPath := writeGoldenGrid(t)
			cfg := config{
				seeds:      1,
				Flags:      outputsIn(dir),
				gridPath:   gridPath,
				workers:    workers,
				check:      true,
				streamPath: filepath.Join(dir, "sweep.ndjson"),
			}
			var stdout, stderr bytes.Buffer
			if err := run(cfg, &stdout, &stderr); err != nil {
				t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
			}
			compareOutputsGolden(t, dir, stdout.String())
		})
	}
}

// truncateMidRecord cuts the run-log a few bytes into its final record and
// returns how many committed records survive.
func truncateMidRecord(t *testing.T, path string) int {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := bytes.TrimRight(raw, "\n")
	lastStart := bytes.LastIndexByte(trimmed, '\n') + 1
	if err := os.WriteFile(path, raw[:lastStart+3], 0o644); err != nil {
		t.Fatal(err)
	}
	return bytes.Count(raw[:lastStart], []byte("\n")) - 1 // minus the header
}

// TestRunResumeAfterTruncation is the crash-resume property at the CLI
// seam: kill a streamed sweep by cutting its log mid-record, resume it,
// and the command must announce the torn tail, re-execute only what is
// missing, leave an exactly-once log, and render outputs byte-identical
// to the golden (in-memory) sweep.
func TestRunResumeAfterTruncation(t *testing.T) {
	dir, gridPath := writeGoldenGrid(t)
	logPath := filepath.Join(dir, "sweep.ndjson")

	first := config{seeds: 1, Flags: cli.Flags{Quiet: true}, gridPath: gridPath, workers: 2, check: true, streamPath: logPath}
	var stdout, stderr bytes.Buffer
	if err := run(first, &stdout, &stderr); err != nil {
		t.Fatalf("stream: %v\nstderr: %s", err, stderr.String())
	}
	committed := truncateMidRecord(t, logPath)
	if committed >= 4 {
		t.Fatalf("truncation left %d committed records, want < 4", committed)
	}

	second := config{
		seeds:      1,
		Flags:      outputsIn(dir),
		gridPath:   gridPath,
		workers:    2,
		check:      true,
		resumePath: logPath,
	}
	stdout.Reset()
	stderr.Reset()
	if err := run(second, &stdout, &stderr); err != nil {
		t.Fatalf("resume: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "torn trailing record") {
		t.Fatalf("resume never announced the torn tail:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), fmt.Sprintf("(%d resumed from log)", committed)) {
		t.Fatalf("resume did not credit the %d committed records:\n%s", committed, stderr.String())
	}

	log, err := mptcpsim.ReadShardLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if log.Torn() || len(log.Runs) != 4 || len(log.Indices()) != 4 {
		t.Fatalf("resumed log: torn=%v records=%d indices=%d, want clean 4/4",
			log.Torn(), len(log.Runs), len(log.Indices()))
	}
	compareOutputsGolden(t, dir, stdout.String())
}

// TestRunResumeTornHeader pins the header-boundary crash case at the CLI
// seam: a worker killed inside the run-log's header line leaves a file
// with no committed header, and -resume must announce there is nothing to
// resume, re-execute the full shard, and still render outputs
// byte-identical to the golden sweep — not refuse with an empty-log error.
func TestRunResumeTornHeader(t *testing.T) {
	dir, gridPath := writeGoldenGrid(t)
	logPath := filepath.Join(dir, "sweep.ndjson")
	// A prefix of a genuine header with no committing newline — the bytes a
	// writer killed mid-header leaves behind.
	if err := os.WriteFile(logPath, []byte(`{"run_log":1,"grid_digest":"ab`), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := config{
		seeds:      1,
		Flags:      outputsIn(dir),
		gridPath:   gridPath,
		workers:    2,
		check:      true,
		resumePath: logPath,
	}
	var stdout, stderr bytes.Buffer
	if err := run(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("resume over a torn header: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "nothing to resume") {
		t.Fatalf("resume never explained the torn header:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "(0 resumed from log)") {
		t.Fatalf("resume credited runs from a log that committed none:\n%s", stderr.String())
	}
	compareOutputsGolden(t, dir, stdout.String())
}

// TestRunResumeProgress checks the progress meter across a resume: the
// final heartbeat must account for the whole grid, not just the runs this
// execution performed.
func TestRunResumeProgress(t *testing.T) {
	dir, gridPath := writeGoldenGrid(t)
	logPath := filepath.Join(dir, "sweep.ndjson")
	var stdout, stderr bytes.Buffer
	if err := run(config{seeds: 1, Flags: cli.Flags{Quiet: true}, gridPath: gridPath, workers: 2, streamPath: logPath},
		&stdout, &stderr); err != nil {
		t.Fatalf("stream: %v\nstderr: %s", err, stderr.String())
	}
	truncateMidRecord(t, logPath)

	cfg := config{
		seeds:      1,
		Flags:      cli.Flags{Quiet: true, Progress: filepath.Join(dir, "progress.ndjson")},
		gridPath:   gridPath,
		workers:    2,
		resumePath: logPath,
	}
	stdout.Reset()
	stderr.Reset()
	if err := run(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("resume: %v\nstderr: %s", err, stderr.String())
	}
	raw, err := os.ReadFile(cfg.Progress)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	var hb struct {
		Done  int `json:"done"`
		Total int `json:"total"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &hb); err != nil {
		t.Fatalf("final heartbeat: %v: %s", err, lines[len(lines)-1])
	}
	if hb.Done != 4 || hb.Total != 4 {
		t.Fatalf("final heartbeat done/total = %d/%d, want 4/4 across the resume", hb.Done, hb.Total)
	}
}

// TestRunStreamFlagDiagnostics exercises the fail-fast checks around the
// stream/resume flag surface, including the resume-against-the-wrong-grid
// guard and merging a torn log.
func TestRunStreamFlagDiagnostics(t *testing.T) {
	dir, gridPath := writeGoldenGrid(t)

	// A committed log for the default paper grid: resuming it against the
	// golden grid must refuse with a digest diagnostic, and a torn copy
	// must refuse to merge.
	logPath := filepath.Join(dir, "other.ndjson")
	var stdout, stderr bytes.Buffer
	quiet := cli.Flags{Quiet: true}
	if err := run(config{seeds: 1, Flags: quiet, workers: 2, duration: 100 * 1e6, streamPath: logPath},
		&stdout, &stderr); err != nil {
		t.Fatalf("seed log: %v\nstderr: %s", err, stderr.String())
	}
	tornPath := filepath.Join(dir, "torn.ndjson")
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tornPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	// What a JSON shard artifact of an older sweep looks like to -merge: not
	// a run-log. The diagnostic must name the file and the way out.
	legacyPath := filepath.Join(dir, "shard-0.json")
	if err := os.WriteFile(legacyPath, []byte("{\n  \"grid_digest\": \"ab\",\n  \"runs\": []\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := map[string]struct {
		cfg  config
		want []string
	}{
		"stream with resume": {
			config{seeds: 1, Flags: quiet, gridPath: gridPath, streamPath: "a.ndjson", resumePath: "b.ndjson"},
			[]string{"exactly one"},
		},
		"streamed shard with aggregate output": {
			config{seeds: 1, Flags: cli.Flags{Quiet: true, JSON: filepath.Join(dir, "x.json")}, gridPath: gridPath,
				shard: "0/2", streamPath: filepath.Join(dir, "s.ndjson")},
			[]string{"-merge"},
		},
		"merge with stream": {
			config{merge: true, streamPath: "a.ndjson", logPaths: []string{"x.ndjson"}},
			[]string{"-stream"},
		},
		"resume against different grid": {
			config{seeds: 1, Flags: quiet, gridPath: gridPath, resumePath: logPath},
			[]string{"digest"},
		},
		"merge of torn log": {
			config{merge: true, logPaths: []string{tornPath}},
			[]string{"-resume"},
		},
		"merge of non-run-log": {
			config{merge: true, logPaths: []string{logPath, legacyPath}},
			[]string{legacyPath, "re-run that shard with -stream"},
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.cfg, &stdout, &stderr)
			if err == nil {
				t.Fatal("run accepted a broken flag combination")
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// TestRunShardCrashStatesResume is the crash property of the sharded route:
// four shards of the golden grid are streamed, each log is left in a
// different state a killed writer leaves behind — cut mid-record, torn
// inside its header, empty, and clean — and `-shard k/4 -resume` on each
// followed by `-merge` of all four must give the unsharded golden outputs,
// with every resumed log byte-identical to the one an uninterrupted shard
// wrote.
func TestRunShardCrashStatesResume(t *testing.T) {
	dir, gridPath := writeGoldenGrid(t)
	const n = 4
	shardCfg := func(k int) config {
		return config{seeds: 1, Flags: cli.Flags{Quiet: true}, gridPath: gridPath, workers: 1, check: true,
			shard: fmt.Sprintf("%d/%d", k, n)}
	}
	logPaths := make([]string, n)
	clean := make([][]byte, n)
	for k := range n {
		cfg := shardCfg(k)
		cfg.streamPath = filepath.Join(dir, fmt.Sprintf("shard-%d.ndjson", k))
		var stdout, stderr bytes.Buffer
		if err := run(cfg, &stdout, &stderr); err != nil {
			t.Fatalf("shard %d: %v\nstderr: %s", k, err, stderr.String())
		}
		raw, err := os.ReadFile(cfg.streamPath)
		if err != nil {
			t.Fatal(err)
		}
		logPaths[k], clean[k] = cfg.streamPath, raw
	}

	headerLen := bytes.IndexByte(clean[1], '\n') + 1
	crashes := []struct {
		name   string
		crash  func(path string)
		notice string // what the resume must say on stderr
	}{
		{"cut mid-record", func(path string) { truncateMidRecord(t, path) }, "torn trailing record"},
		{"torn header", func(path string) { os.WriteFile(path, clean[1][:headerLen/2], 0o644) }, "nothing to resume"},
		{"empty file", func(path string) { os.WriteFile(path, nil, 0o644) }, "(0 resumed from log)"},
		{"clean", func(string) {}, "(1 resumed from log)"},
	}
	for k, c := range crashes {
		c.crash(logPaths[k])
		cfg := shardCfg(k)
		cfg.resumePath = logPaths[k]
		var stdout, stderr bytes.Buffer
		if err := run(cfg, &stdout, &stderr); err != nil {
			t.Fatalf("resume of shard %d (%s): %v\nstderr: %s", k, c.name, err, stderr.String())
		}
		if !strings.Contains(stderr.String(), c.notice) {
			t.Errorf("resume of shard %d (%s) never said %q:\n%s", k, c.name, c.notice, stderr.String())
		}
		if got, _ := os.ReadFile(logPaths[k]); !bytes.Equal(got, clean[k]) {
			t.Errorf("resumed log of shard %d (%s) differs from the uninterrupted one:\n%s\nwant:\n%s", k, c.name, got, clean[k])
		}
	}

	cfg := config{Flags: outputsIn(dir), merge: true, logPaths: logPaths}
	var stdout, stderr bytes.Buffer
	if err := run(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("merge: %v\nstderr: %s", err, stderr.String())
	}
	compareOutputsGolden(t, dir, stdout.String())
}
