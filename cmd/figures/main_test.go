package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickArtefactsGolden regenerates the -quick artefacts and compares
// every file, byte for byte, with the committed set: no figure or table of
// the paper's evaluation may move without testdata/quick moving with it.
// To re-record after a deliberate change:
//
//	go run ./cmd/figures -quick -out cmd/figures/testdata/quick
func TestQuickArtefactsGolden(t *testing.T) {
	golden, err := filepath.Glob("testdata/quick/*")
	if err != nil || len(golden) != 12 {
		t.Fatalf("testdata/quick holds %d artefacts (%v), want 12", len(golden), err)
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	made, err := os.ReadDir(out)
	if err != nil || len(made) != len(golden) {
		t.Fatalf("run wrote %d artefacts (%v), want %d", len(made), err, len(golden))
	}
	for _, path := range golden {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(out, filepath.Base(path)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the committed artefact", filepath.Base(path))
		}
	}
}

func TestUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown flag: exit %d, want 2", code)
	}
	// An output directory that cannot be created fails loudly and writes
	// nothing else.
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"-quick", "-out", filepath.Join(file, "sub")}, &stdout, &stderr); code != 1 || stderr.Len() == 0 {
		t.Fatalf("uncreatable -out: exit %d, stderr %q, want 1 and a message", code, stderr.String())
	}
}
