package mptcpsim

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mptcpsim/internal/lp"
)

// streamToLog runs the grid through Stream with a LogSink into a buffer
// and returns the raw log bytes.
func streamToLog(t testing.TB, s *Sweep, g *Grid, opt LogOptions) []byte {
	t.Helper()
	return streamShardToLog(t, s, g, Shard{K: 0, N: 1}, opt)
}

// streamShardToLog is streamToLog for one shard of the grid.
func streamShardToLog(t testing.TB, s *Sweep, g *Grid, shard Shard, opt LogOptions) []byte {
	t.Helper()
	digest, total, err := s.Describe(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink, err := NewLogSink(&buf, RunLogHeader{GridDigest: digest, K: shard.K, N: shard.N, Total: total}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stream(g, StreamSpec{Shard: shard}, sink); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamShard executes one shard and returns it the way a merge sees it:
// written as a run-log, read back, converted to the merge input.
func streamShard(t *testing.T, s *Sweep, g *Grid, shard Shard) *ShardResult {
	t.Helper()
	log, err := ReadRunLog(bytes.NewReader(streamShardToLog(t, s, g, shard, LogOptions{})))
	if err != nil {
		t.Fatal(err)
	}
	return log.ShardResult()
}

// parentGrid is the grid parentLog's record belongs to.
func parentGrid() *Grid {
	return &Grid{CCs: []string{"cubic"}, Orders: [][]int{{2, 1, 3}}, Seeds: []int64{1, 2}, DurationMs: 200}
}

// parentLog is parentGrid's run-log as a build from before the Derived
// record left it after one run: the header, then run 0's record, which has
// no "derived" key.
func parentLog(t testing.TB) []byte {
	t.Helper()
	digest, total, err := (&Sweep{}).Describe(parentGrid())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := NewLogSink(&buf, RunLogHeader{GridDigest: digest, N: 1, Total: total}, LogOptions{}); err != nil {
		t.Fatal(err)
	}
	buf.WriteString(`{"run":{"index":0,"scenario":"paper","perturbation":"base","events":"static","cc":"cubic","scheduler":"minrtt",` +
		`"order":[2,1,3],"seed":1,"optimum_mbps":90,"target_mbps":90,"greedy_mbps":60,"total_mbps":68.67840000000001,` +
		`"gap":0.2369066666666666,"converged":false,"post_cov":0,"path_mbps":[8.760000000000002,27.097600000000003,32.820800000000006]}}` + "\n")
	return buf.Bytes()
}

// requireDerived fails t unless every record of the run-log raw carries a
// derived record with a goodput, as every completed run's does.
func requireDerived(t testing.TB, raw []byte) {
	t.Helper()
	log, err := ReadRunLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range log.Runs {
		if rec.Run.Derived.GoodputMbps <= 0 {
			t.Fatalf("run %d has derived record %+v, want a goodput", rec.Run.Index, rec.Run.Derived)
		}
	}
}

// TestLogSinkFillsTheRecord hands LogSink.Accept a summary without its
// Derived record, beside the full Result, the way a caller that builds its
// own summaries does (bench's traced pass). The sink fills the record, so
// the log is byte for byte the one the sweep's own route writes.
func TestLogSinkFillsTheRecord(t *testing.T) {
	sw := &Sweep{Workers: 1}
	want := streamToLog(t, sw, parentGrid(), LogOptions{})
	requireDerived(t, want)
	digest, total, err := sw.Describe(parentGrid())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	ls, err := NewLogSink(&got, RunLogHeader{GridDigest: digest, N: 1, Total: total}, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bare := sinkFunc(func(done, total int, s RunSummary, full *Result) {
		s.Derived = Derived{}
		if err := ls.Accept(done, total, s, full); err != nil {
			t.Error(err)
		}
	})
	if err := sw.Stream(parentGrid(), StreamSpec{}, bare); err != nil {
		t.Fatal(err)
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("run-log of bare summaries:\n%s\nthe sweep's:\n%s", got.Bytes(), want)
	}
}

// TestLogSinkRoundTrip streams a sweep into a run-log and reads it back:
// header intact, one record per run with exactly-once index coverage and no
// torn tail.
func TestLogSinkRoundTrip(t *testing.T) {
	s := &Sweep{Workers: 4}
	raw := streamToLog(t, s, sweepGrid(), LogOptions{})

	log, err := ReadRunLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if log.Torn() {
		t.Fatalf("clean log reports torn tail at %d", log.TornTail)
	}
	if log.Header.Version != RunLogVersion || log.Header.N != 1 || log.Header.Total != 4 {
		t.Fatalf("header round-trip: %+v", log.Header)
	}
	if len(log.Runs) != 4 || len(log.Indices()) != 4 {
		t.Fatalf("log has %d records over %d indices, want 4/4", len(log.Runs), len(log.Indices()))
	}
	if log.Errs() != 0 {
		t.Fatalf("log counts %d errors for a passing grid", log.Errs())
	}
}

// TestLogSinkSyncBatching counts durability barriers: one for the header,
// then one per SyncEvery records plus the final Close flush.
func TestLogSinkSyncBatching(t *testing.T) {
	syncs := 0
	s := &Sweep{Workers: 1}
	_ = streamToLog(t, s, sweepGrid(), LogOptions{
		SyncEvery: 2,
		Sync:      func() error { syncs++; return nil },
	})
	// Header barrier + records 2 and 4 + Close = 4. (Close lands on an
	// empty batch here, but it must still barrier: the final records in a
	// partial batch have to reach the disk.)
	if syncs != 4 {
		t.Fatalf("4 runs with SyncEvery=2 hit %d sync barriers, want 4", syncs)
	}
}

// TestStreamSkipResumesExactlyOnce drives the library resume loop: stream
// half the grid, then stream again skipping the logged indices into the
// same buffer (Resume mode), and check the concatenated log covers every
// index exactly once.
func TestStreamSkipResumesExactlyOnce(t *testing.T) {
	s := &Sweep{Workers: 2}
	grid := sweepGrid()
	digest, total, err := s.Describe(grid)
	if err != nil {
		t.Fatal(err)
	}
	header := RunLogHeader{GridDigest: digest, N: 1, Total: total}

	var buf bytes.Buffer
	sink, err := NewLogSink(&buf, header, LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stream(grid, StreamSpec{Skip: func(i int) bool { return i%2 == 0 }}, sink); err != nil {
		t.Fatal(err)
	}
	log, err := ReadRunLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != 2 {
		t.Fatalf("first pass logged %d of 2 odd-index runs", len(log.Runs))
	}

	skip := log.Indices()
	sink, err = NewLogSink(&buf, header, LogOptions{Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stream(grid, StreamSpec{Skip: func(i int) bool { return skip[i] }}, sink); err != nil {
		t.Fatal(err)
	}
	log, err = ReadRunLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Runs) != total || len(log.Indices()) != total {
		t.Fatalf("resumed log has %d records over %d indices, want %d each",
			len(log.Runs), len(log.Indices()), total)
	}
	if _, err := MergeShards(log.ShardResult()); err != nil {
		t.Fatalf("resumed log does not merge: %v", err)
	}
}

// TestReadRunLogTornTail pins the crash-recovery semantics: the trailing
// newline is a record's commit mark, so any truncation point inside (or at
// the end of) the final line is a resumable torn tail at the right byte
// offset — while corruption that a killed single writer cannot produce is
// a hard error.
func TestReadRunLogTornTail(t *testing.T) {
	s := &Sweep{Workers: 1}
	raw := streamToLog(t, s, sweepGrid(), LogOptions{})
	lines := bytes.SplitAfter(raw, []byte("\n"))
	lines = lines[:len(lines)-1] // drop the empty tail of SplitAfter
	if len(lines) != 5 {
		t.Fatalf("log has %d lines, want header + 4 records", len(lines))
	}
	lastStart := int64(len(raw) - len(lines[4]))

	// Every truncation point inside the final record — from one byte in to
	// one byte short of the committing newline, and even the fully parseable
	// unterminated line — is the same torn tail.
	for _, cut := range []int{1, len(lines[4]) / 2, len(lines[4]) - 1} {
		log, err := ReadRunLog(bytes.NewReader(raw[:int(lastStart)+cut]))
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !log.Torn() || log.TornTail != lastStart {
			t.Fatalf("cut %d: torn=%v tail=%d, want torn at %d", cut, log.Torn(), log.TornTail, lastStart)
		}
		if len(log.Runs) != 3 {
			t.Fatalf("cut %d: %d committed records survive, want 3", cut, len(log.Runs))
		}
	}

	// Every truncation point before the header's committing newline — the
	// empty file, any cut inside the header bytes, and the cut exactly at
	// the end of the header text — is the ErrHeaderTorn case: nothing was
	// committed, so there is nothing to resume and no tail offset to report.
	for cut := 0; cut < len(lines[0]); cut++ {
		_, err := ReadRunLog(bytes.NewReader(raw[:cut]))
		if !errors.Is(err, ErrHeaderTorn) {
			t.Fatalf("header cut at byte %d: err = %v, want ErrHeaderTorn", cut, err)
		}
	}

	// A committed first line that is no header — blank ones included — is
	// a file that is not a run-log, never a torn one that resume would
	// truncate.
	for _, notLog := range []string{"\nimportant notes\nmore\n", " \n", "\n"} {
		_, err := ReadRunLog(strings.NewReader(notLog))
		if err == nil || errors.Is(err, ErrHeaderTorn) || !strings.Contains(err.Error(), "run-log header") {
			t.Fatalf("%q: err = %v, want a header error that is not ErrHeaderTorn", notLog, err)
		}
	}

	// The cut right after the header's newline is a committed empty log:
	// clean, zero records, everything still to run.
	log, err := ReadRunLog(bytes.NewReader(raw[:len(lines[0])]))
	if err != nil || log.Torn() || len(log.Runs) != 0 {
		t.Fatalf("cut after header newline: err=%v torn=%v records=%d, want clean empty log",
			err, log != nil && log.Torn(), len(log.Runs))
	}

	// A clean log read normally.
	if log, err := ReadRunLog(bytes.NewReader(raw)); err != nil || log.Torn() {
		t.Fatalf("clean log: err=%v torn=%v", err, log.Torn())
	}
}

// TestFollowTailsAGrowingLog follows a log its writer appends to and then
// cuts back below what was read, as the fleet's test crashes do: each call
// returns only the records committed since the last one, a torn tail waits
// for its newline, and a shrunk log is read again from its header.
func TestFollowTailsAGrowingLog(t *testing.T) {
	raw := streamToLog(t, &Sweep{Workers: 1}, sweepGrid(), LogOptions{})
	lines := bytes.SplitAfter(raw, []byte("\n"))
	whole, err := ReadRunLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	oneAndABit := len(lines[0]) + len(lines[1]) + 2
	var log RunLog
	for i, step := range []struct {
		size, wantNew int
		wantTorn      int64
	}{
		{len(lines[0]) / 2, 0, -1},             // torn header: an error, nothing read
		{oneAndABit, 1, int64(oneAndABit - 2)}, // the header, one record, a torn one
		{len(raw), 3, -1},                      // the rest
		{len(raw), 0, -1},                      // nothing new
		{oneAndABit, 1, int64(oneAndABit - 2)}, // cut back: read again from byte 0
		{len(raw), 3, -1},                      // and grown again
	} {
		recs, err := log.Follow(bytes.NewReader(raw[:step.size]))
		if (i == 0) != errors.Is(err, ErrHeaderTorn) || (i > 0 && err != nil) {
			t.Fatalf("step %d: err = %v", i, err)
		}
		if len(recs) != step.wantNew || (i > 0 && log.TornTail != step.wantTorn) {
			t.Fatalf("step %d: %d new records, torn tail %d; want %d, %d", i, len(recs), log.TornTail, step.wantNew, step.wantTorn)
		}
	}
	if !reflect.DeepEqual(log.Runs, whole.Runs) || log.Header != whole.Header {
		t.Fatalf("followed log differs from ReadRunLog's")
	}
}

// TestReadRunLogRejectsCorruption enumerates the non-resumable cases.
func TestReadRunLogRejectsCorruption(t *testing.T) {
	s := &Sweep{Workers: 1}
	raw := streamToLog(t, s, sweepGrid(), LogOptions{})
	lines := bytes.SplitAfter(raw, []byte("\n"))
	lines = lines[:len(lines)-1]

	cases := []struct {
		name string
		muck func() []byte
		want string
	}{
		{"empty file", func() []byte { return nil }, "empty file"},
		{"garbage header", func() []byte {
			return append([]byte("not json\n"), bytes.Join(lines[1:], nil)...)
		}, "run-log header"},
		{"mid-file garbage line", func() []byte {
			out := bytes.Join(lines[:2], nil)
			out = append(out, []byte("{broken\n")...)
			return append(out, bytes.Join(lines[2:], nil)...)
		}, "run-log record"},
		{"duplicate index", func() []byte {
			out := append([]byte{}, raw...)
			return append(out, lines[2]...)
		}, "twice"},
		{"unknown field", func() []byte {
			out := bytes.Join(lines[:4], nil)
			return append(out, []byte(`{"run":{"index":3},"surprise":1}`+"\n")...)
		}, "surprise"},
		{"future version", func() []byte {
			h := bytes.Replace(lines[0], []byte(`"run_log":1`), []byte(`"run_log":99`), 1)
			return append(h, bytes.Join(lines[1:], nil)...)
		}, "version 99"},
	}
	for _, tc := range cases {
		_, err := ReadRunLog(bytes.NewReader(tc.muck()))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

// TestStreamPoisonsOnSinkError checks the first sink error surfaces from
// Stream, ends the deliveries and still closes the sink.
func TestStreamPoisonsOnSinkError(t *testing.T) {
	s := &Sweep{Workers: 2}
	fail := &failingSink{failAt: 2}
	err := s.Stream(sweepGrid(), StreamSpec{}, fail)
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("err = %v, want the sink's own error", err)
	}
	if fail.accepts != 2 {
		t.Fatalf("sink accepted %d deliveries after erroring at 2", fail.accepts)
	}
	if !fail.closed {
		t.Fatal("Stream did not Close the sink after the error")
	}
}

// TestStreamStopsDispatchingOnSinkError checks a sink error stops the
// sweep rather than only muting it. Cells prepare lazily, so a cell whose
// runs were never dispatched solves no LP: of sixteen cells with sixteen
// distinct problems, one worker reaches only the one whose delivery failed.
func TestStreamStopsDispatchingOnSinkError(t *testing.T) {
	grid := &Grid{DurationMs: 50}
	for i := 0; i < 16; i++ {
		grid.Perturbations = append(grid.Perturbations, Perturbation{
			Name:  fmt.Sprintf("v2v3-%d", i),
			Links: []LinkPerturbation{{A: "v2", B: "v3", Mbps: float64(20 + i)}},
		})
	}
	ResetBaselineCache()
	fail := &failingSink{failAt: 1}
	err := (&Sweep{Workers: 1}).Stream(grid, StreamSpec{}, fail)
	if err == nil || !strings.Contains(err.Error(), "sink full") {
		t.Fatalf("err = %v, want the sink's own error", err)
	}
	if fail.accepts != 1 || !fail.closed {
		t.Fatalf("sink saw %d deliveries (closed: %v), want the failing one and a Close", fail.accepts, fail.closed)
	}
	if n := lp.BaselineCacheSize(); n > 2 {
		t.Fatalf("%d of 16 cells solved their baselines after the first delivery failed, want at most 2", n)
	}
}

type failingSink struct {
	failAt  int
	accepts int
	closed  bool
}

func (f *failingSink) Accept(done, total int, s RunSummary, full *Result) error {
	f.accepts++
	if f.accepts >= f.failAt {
		return fmt.Errorf("sink full")
	}
	return nil
}

func (f *failingSink) Close() error { f.closed = true; return nil }
