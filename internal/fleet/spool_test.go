package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mptcpsim"
)

// TestUnknownFieldRecordIsNotProgress: the coordinator's tail reads a shard
// log under ReadRunLog's record grammar, so a committed record with a field
// no schema has is an error to both readers, and the tail never keeps it —
// not on the poll that meets it, nor on any later one.
func TestUnknownFieldRecordIsNotProgress(t *testing.T) {
	var log bytes.Buffer
	header := mptcpsim.RunLogHeader{GridDigest: "aaaaaaaaaaaaaaaa", K: 0, N: 1, Total: 2}
	sink, err := mptcpsim.NewLogSink(&log, header, mptcpsim.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Accept(1, 2, mptcpsim.RunSummary{Index: 0}, nil); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	log.WriteString(`{"run":{"index":1,"err":"boom"},"extra":1}` + "\n")
	path := filepath.Join(t.TempDir(), "shard.ndjson")
	if err := os.WriteFile(path, log.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}

	if _, err := mptcpsim.ReadShardLog(path); err == nil || !strings.Contains(err.Error(), `unknown field "extra"`) {
		t.Fatalf("ReadShardLog: err = %v, want the unknown field refused", err)
	}
	tail := newShardTail(path, header)
	for poll := range 2 {
		if err := tail.poll(); err == nil || !strings.Contains(err.Error(), `unknown field "extra"`) {
			t.Fatalf("poll %d: err = %v, want the unknown field refused", poll, err)
		}
	}
	if runs := tail.log.Runs; len(runs) != 1 || runs[0].Run.Index != 0 || runs[0].Run.Err != "" {
		t.Fatalf("tail kept %+v, want only the good record", runs)
	}
}

// TestRepeatedIndexIsRefusedLive: a shard log that commits an index twice
// is not a single-writer log. The coordinator's tail refuses it with
// ReadRunLog's own error, on every poll, keeps the index once, and never
// calls the shard complete.
func TestRepeatedIndexIsRefusedLive(t *testing.T) {
	var log bytes.Buffer
	header := mptcpsim.RunLogHeader{GridDigest: "aaaaaaaaaaaaaaaa", K: 0, N: 1, Total: 3}
	sink, err := mptcpsim.NewLogSink(&log, header, mptcpsim.LogOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, index := range []int{0, 1, 0} {
		if err := sink.Accept(i+1, 3, mptcpsim.RunSummary{Index: index}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "shard.ndjson")
	if err := os.WriteFile(path, log.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}

	const twice = "records index 0 twice"
	if _, err := mptcpsim.ReadShardLog(path); err == nil || !strings.Contains(err.Error(), twice) {
		t.Fatalf("ReadShardLog: err = %v, want %q", err, twice)
	}
	tail := newShardTail(path, header)
	for poll := range 2 {
		if err := tail.poll(); err == nil || !strings.Contains(err.Error(), twice) {
			t.Fatalf("poll %d: err = %v, want %q", poll, err, twice)
		}
	}
	if runs := tail.log.Runs; len(runs) != 2 || runs[0].Run.Index != 0 || runs[1].Run.Index != 1 {
		t.Fatalf("tail kept %+v, want indices 0 and 1 once each", runs)
	}
	if tail.complete() {
		t.Fatal("complete() with a repeated index in the log")
	}
}
