package cli

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mptcpsim"
)

// TestFlightSink pins the flight dump sweep and simcheck hang off their
// sweeps: a failed run's tail lands in flight-<index>.ndjson and parses,
// stderr names the file, and a passing run, a failed run without a result
// and one without a recorder write nothing and say nothing.
func TestFlightSink(t *testing.T) {
	res, err := mptcpsim.RunPaper(mptcpsim.Options{Duration: 100 * time.Millisecond, Telemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.FlightEvents() == 0 {
		t.Fatal("telemetry run retained no flight events")
	}
	plain, err := mptcpsim.RunPaper(mptcpsim.Options{Duration: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var stderr bytes.Buffer
	sink := &FlightSink{Dir: dir, Stderr: &stderr}
	failed := func(i int) mptcpsim.RunSummary { return mptcpsim.RunSummary{Index: i, Err: "boom"} }
	for name, tc := range map[string]struct {
		s   mptcpsim.RunSummary
		res *mptcpsim.Result
	}{
		"passing run": {mptcpsim.RunSummary{Index: 1}, res},
		"nil result":  {failed(2), nil},
		"no recorder": {failed(3), plain},
	} {
		if err := sink.Accept(1, 1, tc.s, tc.res); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if stderr.Len() != 0 {
			t.Fatalf("%s: stderr = %q, want nothing", name, stderr.String())
		}
	}
	if dumps, _ := filepath.Glob(filepath.Join(dir, "*")); len(dumps) != 0 {
		t.Fatalf("runs without a tail to dump wrote %v", dumps)
	}

	if err := sink.Accept(1, 1, failed(7), res); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "flight-7.ndjson")
	if want := "run 7 failed; flight tail in " + path + "\n"; stderr.String() != want {
		t.Fatalf("stderr = %q, want %q", stderr.String(), want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != res.FlightEvents() {
		t.Fatalf("dump has %d lines, result retained %d events", len(lines), res.FlightEvents())
	}
	var ev struct {
		Kind  string `json:"kind"`
		Where string `json:"where"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Kind == "" || ev.Where == "" {
		t.Fatalf("tail line does not name the event/location: %s", lines[len(lines)-1])
	}

	// A dump that cannot be written is reported, and the sweep carries on.
	stderr.Reset()
	sink.Dir = filepath.Join(dir, "missing")
	if err := sink.Accept(1, 1, failed(8), res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(stderr.String(), "flight dump ") {
		t.Fatalf("stderr = %q, want a flight dump error", stderr.String())
	}
}
