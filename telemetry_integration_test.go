package mptcpsim

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestTelemetryHashNeutral is the library half of the issue's headline
// property: a run with telemetry enabled is bit-identical to one without
// (canonical hash and all), while producing a populated one-run rollup and
// a dumpable flight-recorder tail.
func TestTelemetryHashNeutral(t *testing.T) {
	opts := Options{Duration: 200 * time.Millisecond, Seed: 7}
	plain, err := RunPaper(opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Telemetry = true
	tele, err := RunPaper(opts)
	if err != nil {
		t.Fatal(err)
	}
	if ph, th := plain.Hash(), tele.Hash(); ph != th {
		t.Fatalf("telemetry changed the run: hash %.12s != %.12s", th, ph)
	}
	if plain.Telemetry != nil || plain.FlightEvents() != 0 {
		t.Fatal("telemetry-off run carries a rollup or flight events")
	}
	if err := plain.WriteFlightRecorder(io.Discard); err == nil {
		t.Fatal("telemetry-off run dumped a flight recorder")
	}

	roll := tele.Telemetry
	if roll == nil {
		t.Fatal("telemetry-on run has no rollup")
	}
	if roll.Runs != 1 {
		t.Fatalf("one run's rollup counts %d runs", roll.Runs)
	}
	if roll.EventsFired == 0 || roll.EventsFired != tele.LoopEvents {
		t.Fatalf("sim counters: fired=%d, want the run's LoopEvents %d",
			roll.EventsFired, tele.LoopEvents)
	}
	if roll.EventsScheduled < roll.EventsFired {
		t.Fatalf("scheduled %d < fired %d", roll.EventsScheduled, roll.EventsFired)
	}
	if roll.HeapPeak == 0 || roll.TxPackets == 0 || roll.SchedPicks == 0 {
		t.Fatalf("rollup has empty counters: %+v", roll)
	}
	// The rollup's drops are the run's own per-link drops, summed.
	var dropped uint64
	for _, n := range tele.Drops {
		dropped += n
	}
	if dropped == 0 {
		t.Fatal("the run dropped nothing: the drops check is vacuous")
	}
	if roll.Drops != dropped {
		t.Fatalf("rollup counts %d drops, the run's links %d", roll.Drops, dropped)
	}
	var retx uint64
	for _, sf := range tele.Subflows {
		retx += sf.Retransmits
	}
	if roll.Retransmits != retx {
		t.Fatalf("rollup counts %d retransmits, the run's subflows %d", roll.Retransmits, retx)
	}

	var buf bytes.Buffer
	if err := tele.WriteFlightRecorder(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != tele.FlightEvents() {
		t.Fatalf("dump has %d lines, the recorder says %d retained", len(lines), tele.FlightEvents())
	}
	var first struct {
		Seq  uint64 `json:"seq"`
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("dump line 0: %v", err)
	}
	if want := tele.flight.Total() - uint64(tele.FlightEvents()); first.Seq != want {
		t.Fatalf("dump starts at seq %d, want %d", first.Seq, want)
	}
}

// sweepGrid is the shared workload of the sweep-telemetry tests.
func sweepGrid() *Grid {
	return &Grid{
		CCs:        []string{"cubic", "olia"},
		Orders:     [][]int{{2, 1, 3}},
		Seeds:      []int64{1, 2},
		DurationMs: 200,
	}
}

// TestSweepTelemetryRollup checks the sweep-level aggregation: the rollup
// counts every run, is identical across worker counts, and enabling it
// changes nothing about the run summaries.
func TestSweepTelemetryRollup(t *testing.T) {
	res8, err := (&Sweep{Workers: 8, Telemetry: true}).Run(sweepGrid())
	if err != nil {
		t.Fatal(err)
	}
	roll := res8.Telemetry
	if roll == nil {
		t.Fatal("telemetry sweep produced no rollup")
	}
	if roll.Runs != uint64(len(res8.Runs)) {
		t.Fatalf("rollup covers %d of %d runs", roll.Runs, len(res8.Runs))
	}
	if roll.EventsFired == 0 || roll.TxPackets == 0 || roll.SchedPicks == 0 || roll.HeapPeak == 0 {
		t.Fatalf("rollup has empty counters: %+v", roll)
	}

	res1, err := (&Sweep{Workers: 1, Telemetry: true}).Run(sweepGrid())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res1.Telemetry, roll) {
		t.Fatalf("rollup depends on worker count:\nw1: %+v\nw8: %+v", res1.Telemetry, roll)
	}

	plain, err := (&Sweep{Workers: 4}).Run(sweepGrid())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Telemetry != nil {
		t.Fatal("telemetry-off sweep produced a rollup")
	}
	got, err := json.Marshal(res8.Runs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(plain.Runs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("telemetry changed the run summaries")
	}
}

// TestSweepHooksSerialised locks the contract the observer sinks of a
// chain build on (progress lines, the heartbeat meter, flight dumps):
// Accepts never overlap, done increments by exactly one per call, every run
// is reported, and within one completion the sinks of a MultiSink run in
// chain order before the next completion starts — which is what puts a
// failed run's flight notice ahead of its progress line.
func TestSweepHooksSerialised(t *testing.T) {
	var inAccept int32
	prevDone, firstSaw := 0, -1
	seen := make(map[int]bool)
	first := sinkFunc(func(done, total int, r RunSummary, _ *Result) {
		if !atomic.CompareAndSwapInt32(&inAccept, 0, 1) {
			t.Error("Accept ran concurrently with another Accept")
		}
		if done != prevDone+1 {
			t.Errorf("done jumped from %d to %d", prevDone, done)
		}
		prevDone = done
		if total != 4 {
			t.Errorf("total = %d, want 4", total)
		}
		if seen[r.Index] {
			t.Errorf("run %d reported twice", r.Index)
		}
		seen[r.Index] = true
		firstSaw = r.Index
		time.Sleep(time.Millisecond) // widen any race window
	})
	second := sinkFunc(func(done, _ int, r RunSummary, _ *Result) {
		if firstSaw != r.Index || done != prevDone {
			t.Errorf("second sink got run %d (done %d) while the first was at run %d (done %d)",
				r.Index, done, firstSaw, prevDone)
		}
		atomic.StoreInt32(&inAccept, 0)
	})
	s := &Sweep{Workers: 8, Telemetry: true}
	if err := s.Stream(sweepGrid(), StreamSpec{}, MultiSink(first, second)); err != nil {
		t.Fatal(err)
	}
	if prevDone != 4 || len(seen) != 4 {
		t.Fatalf("sinks saw %d completions over %d runs, want 4/4", prevDone, len(seen))
	}
}

// TestSweepOnFailureFlightTail drives runs into a mid-run abort (tiny
// event limit) and checks Accept is handed a partial result whose
// flight-recorder tail is dumpable — and nil when telemetry is off.
func TestSweepOnFailureFlightTail(t *testing.T) {
	grid := sweepGrid()
	const eventLimit = 2000

	failures := 0
	flight := sinkFunc(func(_, _ int, r RunSummary, res *Result) {
		failures++
		if r.Err == "" {
			t.Errorf("run %d survived the event limit", r.Index)
		}
		if res == nil {
			t.Fatalf("run %d failed with telemetry on but no partial result", r.Index)
		}
		if res.FlightEvents() == 0 {
			t.Fatalf("run %d partial result has no flight tail", r.Index)
		}
		var buf bytes.Buffer
		if err := res.WriteFlightRecorder(&buf); err != nil {
			t.Fatal(err)
		}
		line := buf.String()[strings.LastIndex(strings.TrimRight(buf.String(), "\n"), "\n")+1:]
		var tail struct {
			Kind  string `json:"kind"`
			Where string `json:"where"`
		}
		if err := json.Unmarshal([]byte(line), &tail); err != nil {
			t.Fatalf("flight tail line: %v: %s", err, line)
		}
		if tail.Kind == "" || tail.Where == "" {
			t.Fatalf("flight tail does not name the event/location: %s", line)
		}
	})
	roll := &RollupSink{}
	if err := (&Sweep{Workers: 4, Telemetry: true, EventLimit: eventLimit}).Stream(grid, StreamSpec{}, MultiSink(roll, flight)); err != nil {
		t.Fatal(err)
	}
	if failures != 4 {
		t.Fatalf("%d failures over 4 runs, want every run aborted by the event limit", failures)
	}
	// Aborted runs produce no rollup, so the sweep's stays empty rather
	// than mixing partial counts.
	if roll.Rollup.Runs != 0 {
		t.Fatalf("rollup over aborted runs = %+v, want 0 runs", roll.Rollup)
	}

	// Without telemetry there is no recorder: the failure is still
	// delivered, with a nil result.
	gotNil := 0
	plain := sinkFunc(func(_, _ int, r RunSummary, res *Result) {
		if r.Err == "" || res != nil {
			t.Errorf("run %d: err %q, partial result %v without telemetry", r.Index, r.Err, res != nil)
		}
		gotNil++
	})
	if err := (&Sweep{Workers: 2, EventLimit: eventLimit}).Stream(grid, StreamSpec{}, plain); err != nil {
		t.Fatal(err)
	}
	if gotNil != 4 {
		t.Fatalf("%d of 4 failures delivered without telemetry", gotNil)
	}
}
