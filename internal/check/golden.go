package check

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Golden is a recorded hash corpus: two digests of each of the first
// len(Hashes) generated scenarios for one base seed. A corpus recorded
// before a performance refactor locks the refactor end to end — any
// behavioural drift in the kernel, the network model or the measurement
// pipeline shows up as a mismatch on replay — and the second column says
// whether the packets moved or only the references they are compared to.
type Golden struct {
	// Seed is the base seed; scenario i uses SpecSeed(Seed, i).
	Seed int64
	// Hashes[i] is scenario i's Result.Hash: what the packets did, then
	// the references they are compared to.
	Hashes []string
	// Engine[i] is scenario i's Result.EngineHash: what the packets did.
	Engine []string
}

// Divergence says how scenario i of a run's corpus got departs from the
// recorded corpus g: "" when both digests match, "engine moved" when the
// packets moved (or the scenario failed and has no digests), and
// "references only" when only what the packets are compared to moved.
func (g Golden) Divergence(got Golden, i int) string {
	switch {
	case got.Hashes[i] == g.Hashes[i] && got.Engine[i] == g.Engine[i]:
		return ""
	case got.Hashes[i] == "" || got.Engine[i] != g.Engine[i]:
		return "engine moved"
	}
	return "references only"
}

// WriteGolden renders a corpus in the golden file format: comment header,
// a "seed N" line, then one "index hash engine" line per scenario. The
// output is deterministic byte for byte.
func WriteGolden(w io.Writer, g Golden) error {
	if len(g.Engine) != len(g.Hashes) {
		return fmt.Errorf("check: golden corpus has %d hashes but %d engine digests", len(g.Hashes), len(g.Engine))
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# simcheck golden hash corpus: %d scenarios, base seed %d.\n", len(g.Hashes), g.Seed)
	fmt.Fprintf(bw, "# Columns: index, full Result hash, engine digest (what the packets did).\n")
	fmt.Fprintf(bw, "# Regenerate (only when a simulation-behaviour change is intended):\n")
	fmt.Fprintf(bw, "#   go run ./cmd/simcheck -n %d -seed %d -write-golden <path>\n", len(g.Hashes), g.Seed)
	fmt.Fprintf(bw, "seed %d\n", g.Seed)
	for i, h := range g.Hashes {
		fmt.Fprintf(bw, "%d %s %s\n", i, h, g.Engine[i])
	}
	return bw.Flush()
}

// LoadGolden parses a golden corpus. It is strict: the seed line must
// precede the digests, indices must be dense and ascending from 0, and
// every line must carry both digests — a truncated, hand-mangled or
// one-column corpus fails loudly instead of silently weakening the
// differential test.
func LoadGolden(r io.Reader) (Golden, error) {
	var g Golden
	seenSeed := false
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if !seenSeed {
			var err error
			rest, ok := strings.CutPrefix(text, "seed ")
			if !ok {
				return Golden{}, fmt.Errorf("check: golden line %d: want \"seed N\" before hashes, got %q", line, text)
			}
			g.Seed, err = strconv.ParseInt(strings.TrimSpace(rest), 10, 64)
			if err != nil {
				return Golden{}, fmt.Errorf("check: golden line %d: bad seed: %v", line, err)
			}
			seenSeed = true
			continue
		}
		fields := strings.Fields(text)
		switch len(fields) {
		case 3:
		case 2:
			return Golden{}, fmt.Errorf("check: golden line %d: %q has one digest column, the format before engine digests; "+
				"re-record the corpus with simcheck -write-golden to add the engine column", line, text)
		default:
			return Golden{}, fmt.Errorf("check: golden line %d: want \"index hash engine\", got %q", line, text)
		}
		idx, err := strconv.Atoi(fields[0])
		if err != nil {
			return Golden{}, fmt.Errorf("check: golden line %d: bad index: %v", line, err)
		}
		if idx != len(g.Hashes) {
			return Golden{}, fmt.Errorf("check: golden line %d: index %d out of order (want %d)", line, idx, len(g.Hashes))
		}
		g.Hashes = append(g.Hashes, fields[1])
		g.Engine = append(g.Engine, fields[2])
	}
	if err := sc.Err(); err != nil {
		return Golden{}, err
	}
	if !seenSeed {
		return Golden{}, fmt.Errorf("check: golden corpus has no seed line")
	}
	if len(g.Hashes) == 0 {
		return Golden{}, fmt.Errorf("check: golden corpus has no hashes")
	}
	return g, nil
}
