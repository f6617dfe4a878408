package cli

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartNoPathsIsNoOp(t *testing.T) {
	stop, err := (&Flags{}).StartProfile()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	f := &Flags{CPUProfile: filepath.Join(dir, "cpu.pprof"), MemProfile: filepath.Join(dir, "mem.pprof")}
	stop, err := f.StartProfile()
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU and heap so the profiles have content.
	sink := make([][]byte, 0, 1024)
	for i := 0; i < 1024; i++ {
		sink = append(sink, make([]byte, 1024))
	}
	_ = sink
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{f.CPUProfile, f.MemProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
}

func TestStartBadPathFails(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "profile")
	if _, err := (&Flags{CPUProfile: bad}).StartProfile(); err == nil {
		t.Fatal("StartProfile accepted an uncreatable CPU profile path")
	}
	stop, err := (&Flags{MemProfile: bad}).StartProfile()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Fatal("stop accepted an uncreatable heap profile path")
	}
}
