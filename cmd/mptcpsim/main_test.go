package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mptcpsim/internal/capture"
)

// runOK runs the command and fails the test unless it exits 0.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("mptcpsim %v: exit %d, stderr: %s", args, code, stderr.String())
	}
	return stdout.String()
}

// TestRunPaperDefault: a short default run prints the Fig. 1a path list, the
// Fig. 1c problem and a report in the default subflow order [2 1 3].
func TestRunPaperDefault(t *testing.T) {
	out := runOK(t, "-duration", "200ms")
	for _, want := range []string{
		"  Path 1: s -> v1 -> v2 -> v3 -> d\n",
		"  Path 2: s -> v1 -> v3 -> v4 -> d\n",
		"  Path 3: s -> v2 -> v3 -> v4 -> d\n",
		"max x1 + x2 + x3\n",
		"  x1 + x2 <= 40   (s-v1 cap 40Mbps)\n",
		"  x2 + x3 <= 60   (v3-v4 cap 60Mbps)\n",
		"  x1 + x3 <= 80   (v2-v3 cap 80Mbps)\n",
		"optimum:    90.0 Mbps at {x1=30.0, x2=10.0, x3=50.0}\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	if first := strings.Index(out, "subflow Path "); first < 0 || !strings.HasPrefix(out[first:], "subflow Path 2:") {
		t.Errorf("the default subflow is not Path 2:\n%s", out)
	}
}

// TestRunCustomTopology: with -topo and no -paths, a scenario runs in its
// own definition order, whatever its path count: the paper's 2,1,3 applies
// to the paper network only, not to a custom topology that happens to have
// three paths.
func TestRunCustomTopology(t *testing.T) {
	for _, tc := range []struct {
		name, scenario string
		paths          int
		want           []string
	}{
		{"two", `{
  "links": [
    {"a": "phone", "b": "wifi", "mbps": 30, "delay_ms": 3},
    {"a": "wifi", "b": "server", "mbps": 100, "delay_ms": 5},
    {"a": "phone", "b": "lte", "mbps": 20, "delay_ms": 15},
    {"a": "lte", "b": "server", "mbps": 100, "delay_ms": 10}
  ],
  "endpoints": {"src": "phone", "dst": "server"},
  "paths": [{"nodes": ["phone", "wifi", "server"]}, {"nodes": ["phone", "lte", "server"]}]
}`, 2, []string{
			"  Path 1: phone -> wifi -> server\n",
			"  Path 2: phone -> lte -> server\n",
			"optimum:    50.0 Mbps at {x1=30.0, x2=20.0}\n",
		}},
		{"three", `{
  "links": [
    {"a": "s", "b": "m1", "mbps": 10, "delay_ms": 2},
    {"a": "s", "b": "m2", "mbps": 20, "delay_ms": 3},
    {"a": "s", "b": "m3", "mbps": 30, "delay_ms": 4},
    {"a": "m1", "b": "d", "mbps": 100, "delay_ms": 1},
    {"a": "m2", "b": "d", "mbps": 100, "delay_ms": 1},
    {"a": "m3", "b": "d", "mbps": 100, "delay_ms": 1}
  ],
  "endpoints": {"src": "s", "dst": "d"},
  "paths": [{"nodes": ["s", "m1", "d"]}, {"nodes": ["s", "m2", "d"]}, {"nodes": ["s", "m3", "d"]}]
}`, 3, []string{
			"  Path 3: s -> m3 -> d\n",
			"optimum:    60.0 Mbps at {x1=10.0, x2=20.0, x3=30.0}\n",
		}},
	} {
		path := filepath.Join(t.TempDir(), tc.name+".json")
		if err := os.WriteFile(path, []byte(tc.scenario), 0o666); err != nil {
			t.Fatal(err)
		}
		out := runOK(t, "-topo", path, "-duration", "200ms")
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%s paths: output lacks %q:\n%s", tc.name, want, out)
			}
		}
		// Subflows print in subflow order: Path 1 first, then each next one.
		last := -1
		for i := 1; i <= tc.paths; i++ {
			at := strings.Index(out, fmt.Sprintf("subflow Path %d:", i))
			if at < 0 || at < last {
				t.Errorf("%s paths: subflows are not Path 1 to Path %d in order:\n%s", tc.name, tc.paths, out)
			}
			last = at
		}
		if strings.Contains(out, fmt.Sprintf("Path %d", tc.paths+1)) {
			t.Errorf("%s paths: output names a path the scenario lacks:\n%s", tc.name, out)
		}
	}
}

// TestRunCustomTopologyExplicitPaths: an explicit -paths is honoured on a
// custom topology even when it equals the flag's default, so a four-path
// scenario asked for paths 2,1,3 runs three subflows, Path 2 first.
func TestRunCustomTopologyExplicitPaths(t *testing.T) {
	path := filepath.Join(t.TempDir(), "four.json")
	scenario := `{
  "links": [
    {"a": "s", "b": "m1", "mbps": 10, "delay_ms": 2},
    {"a": "s", "b": "m2", "mbps": 10, "delay_ms": 3},
    {"a": "s", "b": "m3", "mbps": 10, "delay_ms": 4},
    {"a": "s", "b": "m4", "mbps": 10, "delay_ms": 5},
    {"a": "m1", "b": "d", "mbps": 100, "delay_ms": 1},
    {"a": "m2", "b": "d", "mbps": 100, "delay_ms": 1},
    {"a": "m3", "b": "d", "mbps": 100, "delay_ms": 1},
    {"a": "m4", "b": "d", "mbps": 100, "delay_ms": 1}
  ],
  "endpoints": {"src": "s", "dst": "d"},
  "paths": [{"nodes": ["s", "m1", "d"]}, {"nodes": ["s", "m2", "d"]},
            {"nodes": ["s", "m3", "d"]}, {"nodes": ["s", "m4", "d"]}]
}`
	if err := os.WriteFile(path, []byte(scenario), 0o666); err != nil {
		t.Fatal(err)
	}
	out := runOK(t, "-topo", path, "-paths", "2,1,3", "-duration", "200ms")
	if n := strings.Count(out, "subflow Path "); n != 3 {
		t.Errorf("%d subflows, want 3:\n%s", n, out)
	}
	if first := strings.Index(out, "subflow Path "); first < 0 || !strings.HasPrefix(out[first:], "subflow Path 2:") || strings.Contains(out, "subflow Path 4") {
		t.Errorf("subflows are not Paths 2, 1, 3:\n%s", out)
	}
}

// TestRunPCAPRoundTrip: -pcap writes a capture that reads back with exactly
// the packet count the command reports.
func TestRunPCAPRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.pcap")
	out := runOK(t, "-duration", "200ms", "-pcap", path)
	var reported int
	want := fmt.Sprintf("wrote %s (", path)
	i := strings.Index(out, want)
	if i < 0 {
		t.Fatalf("no %q line:\n%s", want, out)
	}
	if _, err := fmt.Sscanf(out[i+len(want):], "%d packets)", &reported); err != nil {
		t.Fatalf("parsing the packet count: %v\n%s", err, out)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	records, err := capture.ReadPCAP(bufio.NewReader(f))
	if err != nil {
		t.Fatal(err)
	}
	if reported == 0 || len(records) != reported {
		t.Fatalf("pcap holds %d records, the command reported %d", len(records), reported)
	}
}

// TestRunBadPathsIsUsage: a malformed -paths is a usage error, exit 2.
func TestRunBadPathsIsUsage(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-paths", "2,x"}, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d, want 2; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), `bad -paths element "x"`) || stdout.Len() != 0 {
		t.Fatalf("stdout %q, stderr %q", stdout.String(), stderr.String())
	}
}

// TestRunNonPositiveDurationIsUsage: a -duration of 0 or less is a usage
// error naming the flag, not a silent run of the 4 s default.
func TestRunNonPositiveDurationIsUsage(t *testing.T) {
	for _, d := range []string{"0", "-100ms"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-duration", d}, &stdout, &stderr); code != 2 {
			t.Fatalf("-duration %s: exit %d, want 2; stderr: %s", d, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "-duration") || stdout.Len() != 0 {
			t.Fatalf("-duration %s: stdout %q, stderr %q", d, stdout.String(), stderr.String())
		}
	}
}
