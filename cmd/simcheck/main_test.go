package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mptcpsim"
	"mptcpsim/internal/check"
)

// The acceptance property: the report is identical bytes across reruns
// and across worker counts.
func TestReportDeterministicAcrossWorkers(t *testing.T) {
	const n, seed = 12, 1
	var a, b, c bytes.Buffer
	if tl, _ := runCheck(n, seed, harness{workers: 1}, false, &a); tl.failed() != 0 {
		t.Fatalf("%d scenarios failed:\n%s", tl.failed(), a.String())
	}
	if tl, _ := runCheck(n, seed, harness{workers: 4}, false, &b); tl.failed() != 0 {
		t.Fatalf("%d scenarios failed with 4 workers:\n%s", tl.failed(), b.String())
	}
	if tl, _ := runCheck(n, seed, harness{workers: 4}, false, &c); tl.failed() != 0 {
		t.Fatalf("%d scenarios failed on rerun:\n%s", tl.failed(), c.String())
	}
	if a.String() != b.String() {
		t.Fatal("report differs between 1 and 4 workers")
	}
	if b.String() != c.String() {
		t.Fatal("report differs across reruns")
	}
	if got := strings.Count(a.String(), "\n"); got != n+2 {
		t.Fatalf("report has %d lines, want %d scenario lines + header + summary", got, n+2)
	}
}

func TestQuietReportsOnlySummary(t *testing.T) {
	var buf bytes.Buffer
	if tl, _ := runCheck(3, 2, harness{workers: 2}, true, &buf); tl.failed() != 0 {
		t.Fatalf("%d scenarios failed:\n%s", tl.failed(), buf.String())
	}
	out := buf.String()
	if strings.Count(out, "\n") != 2 {
		t.Fatalf("quiet report should be header + summary only:\n%s", out)
	}
	if !strings.Contains(out, "3/3 scenarios passed") {
		t.Fatalf("summary missing:\n%s", out)
	}
}

// The trend mode carries the same determinism contract: ladder reports
// are identical bytes across worker counts and reruns.
func TestTrendReportDeterministicAcrossWorkers(t *testing.T) {
	const ladders, steps, seed = 4, 2, 1
	var a, b, c bytes.Buffer
	if tl, failed := runTrend(ladders, steps, seed, harness{workers: 1}, false, &a); tl.failed() != 0 || failed != 0 {
		t.Fatalf("trend run failed (%d rung failures, %d ladder violations):\n%s",
			tl.failed(), failed, a.String())
	}
	if tl, failed := runTrend(ladders, steps, seed, harness{workers: 4}, false, &b); tl.failed() != 0 || failed != 0 {
		t.Fatalf("trend run failed with 4 workers:\n%s", b.String())
	}
	if tl, failed := runTrend(ladders, steps, seed, harness{workers: 4}, false, &c); tl.failed() != 0 || failed != 0 {
		t.Fatalf("trend rerun failed:\n%s", c.String())
	}
	if a.String() != b.String() {
		t.Fatal("trend report differs between 1 and 4 workers")
	}
	if b.String() != c.String() {
		t.Fatal("trend report differs across reruns")
	}
	if !strings.Contains(a.String(), fmt.Sprintf("%d/%d ladders passed", ladders, ladders)) {
		t.Fatalf("summary missing:\n%s", a.String())
	}
}

// The acceptance demonstration for the metamorphic oracle: a build whose
// loss is applied with inverted probability produces rungs that are each
// perfectly deterministic — every one passes replay-hash equality — yet
// the goodput trend runs the wrong way, and only the trend oracle sees
// it. The mutation seam replaces the derived ladder with a loss ladder
// whose rungs run in inverted order, which is exactly the observable a
// sign flip in the loss path would produce.
func TestTrendCatchesInvertedLossBuild(t *testing.T) {
	trendMutate = func(check.Ladder) check.Ladder {
		l := check.NewLadder(1, 16, 4) // seed-1 loss ladder with a healthy monotone base
		if l.Knob != check.KnobLossUp {
			t.Fatalf("ladder 16 perturbs %s, want %s", l.Knob, check.KnobLossUp)
		}
		for i, j := 0, len(l.Rungs)-1; i < j; i, j = i+1, j-1 {
			l.Rungs[i], l.Rungs[j] = l.Rungs[j], l.Rungs[i]
		}
		return l
	}
	defer func() { trendMutate = nil }()

	var buf bytes.Buffer
	tl, failed := runTrend(1, 4, 1, harness{workers: 4}, false, &buf)
	out := buf.String()
	if tl.run != 0 || tl.hash != 0 {
		t.Fatalf("inverted build must pass invariants and replay hashes, got tally %+v:\n%s", tl, out)
	}
	if strings.Contains(out, "ERROR") {
		t.Fatalf("rungs must measure cleanly:\n%s", out)
	}
	if failed != 1 {
		t.Fatalf("trend oracle flagged %d ladders, want 1:\n%s", failed, out)
	}
	if !strings.Contains(out, "goodput not non-increasing") {
		t.Fatalf("missing pairwise inversion violation:\n%s", out)
	}
	if !strings.Contains(out, "rose end-to-end") {
		t.Fatalf("missing end-to-end drift violation:\n%s", out)
	}

	// The same ladder in its true order passes: the violation comes from
	// the inversion, not from loose rungs.
	trendMutate = func(check.Ladder) check.Ladder { return check.NewLadder(1, 16, 4) }
	buf.Reset()
	if tl, failed := runTrend(1, 4, 1, harness{workers: 4}, false, &buf); tl.failed() != 0 || failed != 0 {
		t.Fatalf("uninverted ladder 16 should pass:\n%s", buf.String())
	}
}

// The full CLI path for the broken build: exit code 4, distinct from
// invariant (1) and hash (3) failures.
func TestRunExitCodeTrendViolation(t *testing.T) {
	trendMutate = func(check.Ladder) check.Ladder {
		l := check.NewLadder(1, 16, 4)
		for i, j := 0, len(l.Rungs)-1; i < j; i, j = i+1, j-1 {
			l.Rungs[i], l.Rungs[j] = l.Rungs[j], l.Rungs[i]
		}
		return l
	}
	defer func() { trendMutate = nil }()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-trend", "-ladders", "1", "-steps", "4", "-q"}, &stdout, &stderr); code != exitTrend {
		t.Fatalf("exit code %d, want %d (trend violation)\nstdout:\n%s\nstderr:\n%s",
			code, exitTrend, stdout.String(), stderr.String())
	}
}

// breakRuns installs a mutateRuns that fails scenario i in the class
// kinds[i] names: a kindRun scenario's checked run aborts on a one-event
// limit, a kindHash scenario's replay runs another seed, so it diverges.
func breakRuns(t *testing.T, kinds []failKind) {
	t.Helper()
	mutateRuns = func(runs []mptcpsim.RunSpec) {
		n := len(runs) / 2
		for j := range runs {
			switch i := runs[j].Index % n; {
			case kinds[i] == kindRun && runs[j].Index < n:
				runs[j].Options.EventLimit = 1
			case kinds[i] == kindHash && runs[j].Index >= n:
				runs[j].Options.Seed++
			}
		}
	}
	t.Cleanup(func() { mutateRuns = nil })
}

func TestRunExitCodeClasses(t *testing.T) {
	cases := []struct {
		name  string
		kinds []failKind
		want  int
	}{
		{"all pass", []failKind{kindOK, kindOK}, exitOK},
		{"invariant failure", []failKind{kindOK, kindRun}, exitFail},
		{"hash divergence", []failKind{kindHash, kindOK}, exitHash},
		{"run failure outranks hash", []failKind{kindHash, kindRun}, exitFail},
	}
	for _, tc := range cases {
		breakRuns(t, tc.kinds)
		var stdout, stderr bytes.Buffer
		args := []string{"-n", fmt.Sprint(len(tc.kinds)), "-q"}
		if code := run(args, &stdout, &stderr); code != tc.want {
			t.Errorf("%s: exit code %d, want %d\n%s", tc.name, code, tc.want, stdout.String())
		}
	}
}

func TestWriteGoldenRefusedOnFailingRun(t *testing.T) {
	breakRuns(t, []failKind{kindOK, kindRun})
	path := filepath.Join(t.TempDir(), "corpus.golden")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-n", "2", "-q", "-write-golden", path}, &stdout, &stderr)
	if code != exitFail {
		t.Fatalf("exit code %d, want %d", code, exitFail)
	}
	if !strings.Contains(stderr.String(), "refusing to record") {
		t.Fatalf("missing refusal diagnostic:\n%s", stderr.String())
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("refused corpus was still written (stat err: %v)", err)
	}
}

func TestGoldenRoundTripAndDivergence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corpus.golden")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "3", "-q", "-write-golden", path}, &stdout, &stderr); code != exitOK {
		t.Fatalf("recording failed with code %d:\n%s", code, stderr.String())
	}

	// Replaying the identical run against its own corpus passes.
	stdout.Reset()
	if code := run([]string{"-n", "3", "-q", "-golden", path}, &stdout, &stderr); code != exitOK {
		t.Fatalf("replay diverged, code %d:\n%s", code, stdout.String())
	}
	if !strings.Contains(stdout.String(), "3/3 hashes identical") {
		t.Fatalf("missing golden verdict:\n%s", stdout.String())
	}

	// Tamper with one recorded hash, and with another scenario's engine
	// digest: each divergence must map to the determinism exit code, name
	// its scenario and say which column moved.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	g, err := check.LoadGolden(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	g.Hashes[1] = strings.Repeat("1", len(g.Hashes[1]))
	g.Hashes[2] = strings.Repeat("2", len(g.Hashes[2]))
	g.Engine[2] = strings.Repeat("2", len(g.Engine[2]))
	var tampered bytes.Buffer
	if err := check.WriteGolden(&tampered, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, tampered.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"-n", "3", "-q", "-golden", path}, &stdout, &stderr); code != exitHash {
		t.Fatalf("tampered corpus gave code %d, want %d:\n%s", code, exitHash, stdout.String())
	}
	for _, want := range []string{"   1 DIVERGED (references only)", "   2 DIVERGED (engine moved)", "2/3 hashes DIVERGED from corpus (1 engine moved, 1 references only)"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("divergence report lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunProgressHeartbeats drives -progress through the CLI seam: the
// stream is NDJSON, done never regresses, and the final frame accounts
// for every run, a checked pass and a replay per scenario, including the
// failed one.
func TestRunProgressHeartbeats(t *testing.T) {
	breakRuns(t, []failKind{kindOK, kindRun, kindOK, kindOK})
	path := filepath.Join(t.TempDir(), "progress.ndjson")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-n", "4", "-q", "-progress", path}, &stdout, &stderr); code != exitFail {
		t.Fatalf("exit code %d, want %d\nstderr: %s", code, exitFail, stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("progress file is empty")
	}
	prevDone := -1
	var hb struct {
		T      string  `json:"t"`
		Done   int     `json:"done"`
		Total  int     `json:"total"`
		Failed int     `json:"failed"`
		ETA    float64 `json:"eta_s"`
	}
	for i, line := range lines {
		if err := json.Unmarshal([]byte(line), &hb); err != nil {
			t.Fatalf("heartbeat %d: %v: %s", i, err, line)
		}
		if _, err := time.Parse(time.RFC3339Nano, hb.T); err != nil {
			t.Fatalf("heartbeat %d timestamp: %v", i, err)
		}
		if hb.Done < prevDone {
			t.Fatalf("heartbeat %d: done went backwards (%d after %d)", i, hb.Done, prevDone)
		}
		prevDone = hb.Done
	}
	if hb.Done != 8 || hb.Total != 8 || hb.Failed != 1 || hb.ETA != 0 {
		t.Fatalf("final heartbeat = %+v, want done=8 total=8 failed=1 eta_s=0", hb)
	}
}

// The trend mode sizes its progress total as ladders x rungs x 2 passes,
// not from -n.
func TestRunTrendProgressTotal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "progress.ndjson")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trend", "-ladders", "1", "-steps", "2", "-q", "-progress", path}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, exitOK, stdout.String(), stderr.String())
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	var hb struct {
		Done, Total, Failed int
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &hb); err != nil {
		t.Fatal(err)
	}
	if hb.Done != 6 || hb.Total != 6 || hb.Failed != 0 {
		t.Fatalf("final heartbeat = %+v, want done=6 total=6 failed=0 (1 ladder x 3 rungs x 2 passes)", hb)
	}
}

// A real (tiny) plain run with the full observability surface on: the
// checked pass carries telemetry yet every replay hash still matches —
// the per-scenario proof that telemetry is observation-only.
func TestRunTelemetryObservationOnly(t *testing.T) {
	dir := t.TempDir()
	var plain, telem bytes.Buffer
	var stderr bytes.Buffer
	if code := run([]string{"-n", "3", "-seed", "2"}, &plain, &stderr); code != exitOK {
		t.Fatalf("plain run exited %d:\n%s\n%s", code, plain.String(), stderr.String())
	}
	args := []string{"-n", "3", "-seed", "2", "-telemetry",
		"-flightdir", filepath.Join(dir, "flight"), "-http", "localhost:0"}
	if code := run(args, &telem, &stderr); code != exitOK {
		t.Fatalf("telemetry run exited %d:\n%s\n%s", code, telem.String(), stderr.String())
	}
	if plain.String() != telem.String() {
		t.Fatalf("telemetry changed the report:\n--- plain ---\n%s\n--- telemetry ---\n%s",
			plain.String(), telem.String())
	}
	if !strings.Contains(stderr.String(), "debug endpoint on http://") {
		t.Fatalf("-http never announced its endpoint:\n%s", stderr.String())
	}
	// All scenarios passed, so no flight dumps.
	dumps, err := filepath.Glob(filepath.Join(dir, "flight", "flight-*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 0 {
		t.Fatalf("passing scenarios left flight dumps: %v", dumps)
	}
}

// -flightdir serves the trend mode too: a rung whose checked run aborts
// leaves its flight-recorder tail under its run index, a notice on stderr
// and an ERROR rung in the report.
func TestRunTrendFlightDumps(t *testing.T) {
	breakRuns(t, []failKind{kindOK, kindRun, kindOK})
	dir := filepath.Join(t.TempDir(), "flight")
	var stdout, stderr bytes.Buffer
	args := []string{"-trend", "-ladders", "1", "-steps", "2", "-q", "-flightdir", dir}
	if code := run(args, &stdout, &stderr); code != exitFail {
		t.Fatalf("exit code %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, exitFail, stdout.String(), stderr.String())
	}
	path := filepath.Join(dir, "flight-1.ndjson")
	if !strings.Contains(stderr.String(), "run 1 failed; flight tail in "+path) {
		t.Fatalf("stderr lacks the flight notice for run 1:\n%s", stderr.String())
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-*.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 || dumps[0] != path {
		t.Fatalf("flight dumps = %v, want only %s", dumps, path)
	}
	if !strings.Contains(stdout.String(), "  rung 1 ") || !strings.Contains(stdout.String(), "ERROR") {
		t.Fatalf("report does not show rung 1 failing:\n%s", stdout.String())
	}
}

// Every flag-error path exits with the usage code and a pointed
// diagnostic, before any simulation work starts.
func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // required stderr substring
	}{
		{"bad golden path", []string{"-golden", "/nonexistent/dir/corpus.golden"}, "no such file"},
		{"golden conflicts with write-golden", []string{"-golden", "a", "-write-golden", "b"}, "mutually exclusive"},
		{"trend conflicts with golden", []string{"-trend", "-golden", "a"}, "hash corpora belong to the plain mode"},
		{"trend conflicts with write-golden", []string{"-trend", "-write-golden", "a"}, "hash corpora belong to the plain mode"},
		{"trend conflicts with n", []string{"-trend", "-n", "5"}, "-n applies to the plain mode"},
		{"ladders without trend", []string{"-ladders", "5"}, "-ladders/-steps require -trend"},
		{"steps without trend", []string{"-steps", "2"}, "-ladders/-steps require -trend"},
		{"zero ladders", []string{"-trend", "-ladders", "0"}, "-ladders must be positive"},
		{"zero steps", []string{"-trend", "-steps", "0"}, "-steps must be positive"},
		{"zero scenarios", []string{"-n", "0"}, "-n must be positive"},
		{"bad progress path", []string{"-progress", "/nonexistent/dir/progress.ndjson"}, "no such file"},
		{"unknown flag", []string{"-bogus"}, "flag provided but not defined"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != exitUsage {
			t.Errorf("%s: exit code %d, want %d", tc.name, code, exitUsage)
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr missing %q:\n%s", tc.name, tc.want, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: flag error wrote to stdout:\n%s", tc.name, stdout.String())
		}
	}
}

// -h is not an error: it documents the exit-code contract and exits 0.
func TestRunHelpDocumentsExitCodes(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != exitOK {
		t.Fatalf("-h exited %d, want %d", code, exitOK)
	}
	for _, want := range []string{"Exit codes:", "trend violation", "golden-corpus divergence", "invariant violation"} {
		if !strings.Contains(stderr.String(), want) {
			t.Fatalf("-h output missing %q:\n%s", want, stderr.String())
		}
	}
}
