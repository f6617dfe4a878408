package check

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
	"strconv"
	"strings"

	"mptcpsim"
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
	// Hashes[i] is the full canonical Result hash of scenario i.
	Hashes []string
	// Engine[i] is scenario i's EngineDigest.
	Engine []string
}

// EngineDigest hashes what the packets did in a run, and nothing computed
// from the topology alone: the behaviour-defining options, every measured
// series, the subflow counters, per-link drops and utilisation, the
// receiver's packet and byte counts, the dynamic events, and each epoch's
// window and measured means. The LP optimum, the fairness references and
// everything derived from them (gaps, convergence verdicts, the summary)
// stay out, so a change to a reference moves Result.Hash but not this.
func EngineDigest(r *mptcpsim.Result) string {
	h := sha256.New()
	var buf [8]byte
	wU64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wF64 := func(v float64) { wU64(math.Float64bits(v)) }
	wStr := func(s string) {
		wU64(uint64(len(s)))
		io.WriteString(h, s)
	}
	wBool := func(b bool) {
		if b {
			wU64(1)
		} else {
			wU64(0)
		}
	}
	wInts := func(x []int) {
		wU64(uint64(len(x)))
		for _, v := range x {
			wU64(uint64(v))
		}
	}
	wVec := func(x []float64) {
		wU64(uint64(len(x)))
		for _, v := range x {
			wF64(v)
		}
	}
	wSeries := func(s mptcpsim.Series) {
		wStr(s.Name)
		wU64(uint64(s.Step))
		wVec(s.Mbps)
	}

	// The options a run's packets depend on; the observation-only ones
	// (invariants, telemetry, packet retention, the event limit) stay out.
	o := r.Options
	wStr(o.CC)
	wStr(o.Scheduler)
	wU64(uint64(o.Duration))
	wU64(uint64(o.SampleInterval))
	wU64(uint64(o.Seed))
	wInts(o.SubflowPaths)
	wF64(o.QueueScale)
	wBool(o.DisableSACK)
	wBool(o.Timestamps)
	wInts(o.CrossTCP)

	wU64(uint64(len(r.Paths)))
	for _, s := range r.Paths {
		wSeries(s)
	}
	wU64(uint64(len(r.Cross)))
	for _, s := range r.Cross {
		wSeries(s)
	}
	wSeries(r.Total)

	wU64(uint64(len(r.Subflows)))
	for _, sf := range r.Subflows {
		wU64(uint64(sf.Path))
		wStr(sf.Label)
		wU64(sf.SentSegments)
		wU64(sf.SentBytes)
		wU64(sf.Retransmits)
		wU64(sf.RTOs)
		wU64(sf.FastRecoveries)
		wU64(uint64(sf.SRTT))
		wU64(uint64(sf.FinalCwndBytes))
	}
	wU64(uint64(len(r.Drops)))
	for _, name := range slices.Sorted(maps.Keys(r.Drops)) {
		wStr(name)
		wU64(r.Drops[name])
	}
	wU64(uint64(len(r.Utilisation)))
	for _, name := range slices.Sorted(maps.Keys(r.Utilisation)) {
		wStr(name)
		wF64(r.Utilisation[name])
	}
	wU64(r.Packets)
	wU64(r.DeliveredBytes)
	wU64(r.DuplicateBytes)

	wU64(uint64(len(r.Events)))
	for _, e := range r.Events {
		wStr(e.String())
	}
	wU64(uint64(len(r.Epochs)))
	for _, ep := range r.Epochs {
		wU64(uint64(ep.Start))
		wU64(uint64(ep.End))
		wF64(ep.TotalMean)
		wVec(ep.PathMeans)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
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
