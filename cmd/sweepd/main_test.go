package main

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mptcpsim"
	"mptcpsim/internal/cli"
)

// testGrid is a small fleet-sized grid: 2 CCs x 2 orders x 3 seeds = 12
// runs, short enough to execute many times per test binary.
const testGrid = `{
  "ccs": ["cubic", "olia"],
  "orders": [[2, 1, 3], [1, 2, 3]],
  "seeds": [1, 2, 3],
  "duration_ms": 150
}`

// TestRunMatchesUnshardedSweep is the CLI end of the byte-identity
// contract: sweepd's report and all three output files must be
// byte-identical to rendering the unsharded library result through the
// same code path.
func TestRunMatchesUnshardedSweep(t *testing.T) {
	dir := t.TempDir()
	gridPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(testGrid), 0o666); err != nil {
		t.Fatal(err)
	}

	cfg := config{
		Flags: cli.Flags{
			CSV:      filepath.Join(dir, "runs.csv"),
			Groups:   filepath.Join(dir, "groups.csv"),
			JSON:     filepath.Join(dir, "sweep.json"),
			Progress: filepath.Join(dir, "progress.ndjson"),
		},
		gridPath:  gridPath,
		shards:    3,
		fleetSize: 2,
		workers:   2,
		spool:     filepath.Join(dir, "spool"),
		ttl:       time.Minute,
		attempts:  3,
		backoff:   10 * time.Millisecond,
		poll:      5 * time.Millisecond,
	}
	var stdout, stderr bytes.Buffer
	if err := run(cfg, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, stderr.String())
	}

	// The reference: the same grid swept unsharded, rendered through the
	// same report helper into a sibling set of files.
	grid, err := cli.LoadGrid(gridPath)
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&mptcpsim.Sweep{Workers: 2}).Run(grid)
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	refOut := cli.Flags{
		CSV:    filepath.Join(refDir, "runs.csv"),
		Groups: filepath.Join(refDir, "groups.csv"),
		JSON:   filepath.Join(refDir, "sweep.json"),
	}
	var wantOut bytes.Buffer
	if err := refOut.Report(want, &wantOut); err != nil {
		t.Fatal(err)
	}

	gotReport := stdout.String()
	wantReport := wantOut.String()
	// The "wrote <path>" lines name different directories; compare them
	// structurally and the rest byte-for-byte.
	stripWrote := func(s string) (body string, wrote []string) {
		var kept []string
		for _, line := range strings.SplitAfter(s, "\n") {
			if strings.HasPrefix(line, "wrote ") {
				wrote = append(wrote, filepath.Base(strings.TrimSpace(strings.TrimPrefix(line, "wrote "))))
				continue
			}
			kept = append(kept, line)
		}
		return strings.Join(kept, ""), wrote
	}
	gotBody, gotWrote := stripWrote(gotReport)
	wantBody, wantWrote := stripWrote(wantReport)
	if gotBody != wantBody {
		t.Errorf("fleet report differs from unsharded report:\n--- fleet ---\n%s\n--- unsharded ---\n%s", gotBody, wantBody)
	}
	if fmt.Sprint(gotWrote) != fmt.Sprint(wantWrote) {
		t.Errorf("wrote lines = %v, want %v", gotWrote, wantWrote)
	}

	for _, name := range []string{"runs.csv", "groups.csv", "sweep.json"} {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("%s differs between fleet and unsharded sweep (%d vs %d bytes)", name, len(got), len(ref))
		}
	}

	// Heartbeats: every line valid JSON, final line accounts for all runs.
	raw, err := os.ReadFile(cfg.Progress)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("no heartbeats written")
	}
	var last struct {
		Done  int `json:"done"`
		Total int `json:"total"`
	}
	for i, line := range lines {
		if !json.Valid([]byte(line)) {
			t.Fatalf("heartbeat line %d is not valid JSON: %q", i+1, line)
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Done != 12 || last.Total != 12 {
		t.Errorf("final heartbeat done/total = %d/%d, want 12/12", last.Done, last.Total)
	}
}

// TestFleetProgressIsTheReport: after run, the fleet_progress expvar serves
// the groups of -json's sweep.json, byte for byte once compacted — the live
// view and the final report are one aggregation, medians included.
func TestFleetProgressIsTheReport(t *testing.T) {
	dir := t.TempDir()
	gridPath := filepath.Join(dir, "grid.json")
	if err := os.WriteFile(gridPath, []byte(testGrid), 0o666); err != nil {
		t.Fatal(err)
	}
	cfg := config{
		Flags:     cli.Flags{JSON: filepath.Join(dir, "sweep.json"), Quiet: true},
		gridPath:  gridPath,
		shards:    3,
		fleetSize: 2,
		workers:   2,
		spool:     filepath.Join(dir, "spool"),
		ttl:       time.Minute,
		attempts:  3,
		backoff:   10 * time.Millisecond,
		poll:      5 * time.Millisecond,
	}
	if err := run(cfg, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}

	compactGroups := func(raw []byte) []byte {
		t.Helper()
		var doc struct {
			Groups json.RawMessage `json:"groups"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, doc.Groups); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	v := expvar.Get("fleet_progress")
	if v == nil {
		t.Fatal("fleet_progress is not published")
	}
	var counts struct {
		Runs   int `json:"runs"`
		Errors int `json:"errors"`
	}
	if err := json.Unmarshal([]byte(v.String()), &counts); err != nil {
		t.Fatal(err)
	}
	if counts.Runs != 12 || counts.Errors != 0 {
		t.Errorf("fleet_progress counts %d runs and %d errors, want 12 and 0", counts.Runs, counts.Errors)
	}
	file, err := os.ReadFile(cfg.JSON)
	if err != nil {
		t.Fatal(err)
	}
	liveGroups, wantGroups := compactGroups([]byte(v.String())), compactGroups(file)
	if !bytes.Equal(liveGroups, wantGroups) {
		t.Errorf("fleet_progress groups differ from sweep.json's:\n--- fleet_progress ---\n%s\n--- sweep.json ---\n%s", liveGroups, wantGroups)
	}
}

// TestRunRejectsBadFlags pins the precondition errors.
func TestRunRejectsBadFlags(t *testing.T) {
	if err := run(config{shards: 0}, nil, nil); err == nil || !strings.Contains(err.Error(), "-shards") {
		t.Errorf("shards=0: err = %v, want -shards complaint", err)
	}
	if err := run(config{shards: 1, fleetSize: 0}, nil, nil); err == nil || !strings.Contains(err.Error(), "-fleet") {
		t.Errorf("fleet=0: err = %v, want -fleet complaint", err)
	}
}
