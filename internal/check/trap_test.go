package check

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"mptcpsim"
)

// The trap set: the generated specs in which the greedy allocation, filled
// in the run's own subflow order, leaves at least trapLoss of the LP
// optimum's total unused in the first epoch, the one the run starts in.
// trapFile lists the first trapSize of them at base seed 1. The scan needs
// only the baselines, so each spec runs for 1 ms of virtual time.
const (
	trapFile = "testdata/trap-seed1.txt"
	trapSize = 200
	trapLoss = 0.10
)

// scanTraps scans SpecSeed(1, i) in order and renders the trap-set file:
// a header, then one line per kept index with its path count and greedy's
// loss as a share of the optimum's total.
func scanTraps(t *testing.T) []byte {
	var b bytes.Buffer
	b.WriteString("# index paths greedy-loss: specs SpecSeed(1, index) whose greedy total, in the\n")
	b.WriteString("# run's subflow order, is at least 10 % below Optimum.Total in the first epoch\n")
	for i, kept := 0, 0; kept < trapSize; i++ {
		sp := NewSpec(SpecSeed(1, i))
		nw, err := sp.Scenario.Build()
		if err != nil {
			t.Fatalf("spec %d: build: %v", i, err)
		}
		opts := sp.Options
		opts.Duration, opts.SampleInterval = time.Millisecond, time.Millisecond
		r, err := mptcpsim.Run(nw, opts)
		if err != nil {
			t.Fatalf("spec %d: run: %v", i, err)
		}
		greedy := 0.0
		for _, v := range r.Greedy {
			greedy += v
		}
		if loss := 1 - greedy/r.Optimum.Total; loss >= trapLoss {
			fmt.Fprintf(&b, "%d %d %.4f\n", i, len(r.Greedy), loss)
			kept++
		}
	}
	return b.Bytes()
}

// TestTrapSetMatchesGenerator re-scans the generator and requires the
// committed trap set to be what it finds, so the file cannot drift from
// NewSpec. On a mismatch it writes the fresh scan to a temporary file and
// names it: after a deliberate generator change, copy it over trapFile.
func TestTrapSetMatchesGenerator(t *testing.T) {
	start := time.Now()
	got := scanTraps(t)
	want, err := os.ReadFile(trapFile)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		f, err := os.CreateTemp("", "trap-seed1-*.txt")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write(got); err != nil {
			t.Fatal(err)
		}
		g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("%s differs from a fresh scan from line %d on; the scan is in %s", trapFile, i+1, f.Name())
	}
	t.Logf("scanned the trap set in %v", time.Since(start))
}
