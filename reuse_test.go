package mptcpsim_test

import (
	"fmt"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
	"unsafe"
	"weak"

	"mptcpsim"
	"mptcpsim/internal/check"
	"mptcpsim/internal/telemetry"
)

// freshEnv makes the test binary run one of reuseTail's specs in a process
// that has run nothing else, print its hash and stop.
const freshEnv = "MPTCPSIM_FRESH_SPEC"

// reuseTail returns the runs TestRunStorageReuseIsInvisible ends on: 500 ms
// of eight overlapping paths through one shared core link (the shape of
// the benchmark's wide8 scenario), whose queues, slabs and pending events
// outgrow every corpus scenario's, then a 50 ms run on the paper network,
// then 200 ms of the wide topology again under another algorithm.
func reuseTail(t *testing.T) []mptcpsim.RunSpec {
	sf := &mptcpsim.ScenarioFile{}
	sf.Endpoints.Src, sf.Endpoints.Dst = "s", "d"
	for i := range 4 {
		a, b := fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i)
		sf.Links = append(sf.Links,
			mptcpsim.ScenarioLink{A: "s", B: a, Mbps: 200, DelayMs: 5},
			mptcpsim.ScenarioLink{A: a, B: "m0", Mbps: 200, DelayMs: 5},
			mptcpsim.ScenarioLink{A: "m1", B: b, Mbps: 200, DelayMs: 5},
			mptcpsim.ScenarioLink{A: b, B: "d", Mbps: 200, DelayMs: 5})
	}
	sf.Links = append(sf.Links, mptcpsim.ScenarioLink{A: "m0", B: "m1", Mbps: 480, DelayMs: 5})
	for p := range 8 {
		sf.Paths = append(sf.Paths, mptcpsim.ScenarioPath{Nodes: []string{
			"s", fmt.Sprintf("a%d", p%4), "m0", "m1", fmt.Sprintf("b%d", (p+p/4)%4), "d"}})
	}
	var specs []mptcpsim.RunSpec
	for _, g := range []*mptcpsim.Grid{
		{Scenarios: []mptcpsim.GridScenario{{Name: "wide8", Scenario: sf}}, CCs: []string{"olia"}, DurationMs: 500},
		{CCs: []string{"lia"}, DurationMs: 50},
		{Scenarios: []mptcpsim.GridScenario{{Name: "wide8", Scenario: sf}}, CCs: []string{"lia"}, DurationMs: 200},
	} {
		rs, err := g.Expand()
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, rs...)
	}
	return specs
}

// hashes is a sink that keeps every run's hash in completion order, and
// the first run's Result beside a deep copy taken before the second run.
type hashes struct {
	got         []string
	first, copy *mptcpsim.Result
}

func (h *hashes) Accept(done, _ int, s mptcpsim.RunSummary, res *mptcpsim.Result) error {
	if s.Err != "" {
		return fmt.Errorf("run %d: %s", done, s.Err)
	}
	h.got = append(h.got, res.Hash())
	if done == 1 {
		h.first, h.copy = res, deepCopy(reflect.ValueOf(res)).Interface().(*mptcpsim.Result)
	}
	return nil
}

func (*hashes) Close() error { return nil }

// TestRunStorageReuseIsInvisible: a run's packet slabs, link queues,
// resolved routes (each packet's Hop indexes them), TCP scoreboards and
// out-of-order queues, reassembly blocks, random streams and event loop
// arena and tree go to the next run, and nothing of that may show. One
// goroutine runs the first 16 golden-corpus scenarios forward, then in
// reverse, then reuseTail's wide, paper and wide runs, so storage
// grown by small topologies reaches large ones and back, and the loop's
// arena and tree go from a large pending set to a small one and back. Every hash must be its golden, or
// what a fresh process computes; the first run's Result must not change
// when the second reuses its storage; and the storage must not keep a
// finished run's network alive.
func TestRunStorageReuseIsInvisible(t *testing.T) {
	if k := os.Getenv(freshEnv); k != "" {
		i, err := strconv.Atoi(k)
		if err != nil {
			t.Fatal(err)
		}
		h := &hashes{}
		if err := (&mptcpsim.Sweep{Workers: 1}).Execute(reuseTail(t)[i:i+1], h); err != nil {
			t.Fatal(err)
		}
		fmt.Printf("fresh %d %s\n", i, h.got[0])
		return
	}

	f, err := os.Open("internal/check/testdata/hashes-seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	g, err := check.LoadGolden(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var specs []mptcpsim.RunSpec
	var want []string
	for k := range 2 * n {
		i := k
		if k >= n {
			i = 2*n - 1 - k
		}
		rs, err := check.NewSpec(check.SpecSeed(g.Seed, i)).Grid().Expand()
		if err != nil {
			t.Fatal(err)
		}
		specs, want = append(specs, rs[0]), append(want, g.Hashes[i])
	}
	tail := reuseTail(t)
	for i := range tail {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRunStorageReuseIsInvisible$", "-test.count=1")
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%d", freshEnv, i))
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("fresh process for run %d: %v\n%s", i, err, out)
		}
		prefix := fmt.Sprintf("fresh %d ", i)
		for _, line := range strings.Split(string(out), "\n") {
			if h, ok := strings.CutPrefix(line, prefix); ok {
				want = append(want, h)
			}
		}
		if len(want) != len(specs)+i+1 {
			t.Fatalf("fresh process for run %d printed no hash:\n%s", i, out)
		}
	}
	specs = append(specs, tail...)

	h := &hashes{}
	if err := (&mptcpsim.Sweep{Workers: 1}).Execute(specs, h); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		if h.got[i] != want[i] {
			t.Errorf("run %d (%s, seed %d): hash %.12s, want %.12s", i, specs[i].Scenario, specs[i].Options.Seed, h.got[i], want[i])
		}
	}
	if !reflect.DeepEqual(h.first, h.copy) {
		t.Error("the first run's Result changed while later runs reused the storage it was measured on")
	}

	// A pooled array that still pointed into a finished run would keep its
	// network alive, and the flight recorder the network taps with it.
	flight := func() weak.Pointer[telemetry.Recorder] {
		res, err := mptcpsim.RunPaper(mptcpsim.Options{CC: "lia", Duration: 50 * time.Millisecond, Telemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		return weak.Make(mptcpsim.FlightRecorder(res))
	}()
	runtime.GC()
	if flight.Value() != nil {
		t.Error("a finished run's network outlived a collection: storage handed to the next run still points into it")
	}
}

// warmWideBytesBudget bounds the median bytes a warm 500-ms run of
// reuseTail's eight overlapping paths allocates. Measured on amd64 over five
// runs of the test each: a median of 94–98 KiB (96 264–99 864 bytes) while
// the packet arena's free list was a slice rebuilt every run, a full queue
// doubled over its dead prefix, and the receivers' SACK ranges and the
// reassembly index slices started empty; 47–54 KiB (48 616–55 640 bytes)
// since the free list runs through the slots, a queue compacts before it
// grows and those slices come from pools. The budget sits between the two.
const warmWideBytesBudget = 72 << 10

// TestWarmWideRunBytes: once the pools are warm, a run of the wide
// overlapping shape allocates its set-up and its result, not buffer growth.
// The median of seven runs after five warm-up runs stands against a run the
// collector happens to empty the pools in. Under the race detector sync.Pool
// drops some of what it is handed, so the gate runs without -short only.
func TestWarmWideRunBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("byte gate: sync.Pool drops under -race, which CI runs with -short")
	}
	spec := reuseTail(t)[:1]
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := (&mptcpsim.Sweep{Workers: 1}).Execute(spec, discard{}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	for range 5 {
		run()
	}
	var bytes []uint64
	for range 7 {
		bytes = append(bytes, run())
	}
	slices.Sort(bytes)
	t.Logf("warm wide8 run bytes, sorted: %v", bytes)
	if m := bytes[len(bytes)/2]; m > warmWideBytesBudget {
		t.Fatalf("a warm wide8 run allocates a median %d KiB, budget %d KiB", m>>10, warmWideBytesBudget>>10)
	}
}

// discard is a sink that keeps nothing and fails on a failed run.
type discard struct{}

func (discard) Accept(done, _ int, s mptcpsim.RunSummary, _ *mptcpsim.Result) error {
	if s.Err != "" {
		return fmt.Errorf("run %d: %s", done, s.Err)
	}
	return nil
}

func (discard) Close() error { return nil }

// deepCopy returns a copy of v that shares no memory with it, unexported
// fields included.
func deepCopy(v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	copyInto(out, v)
	return out
}

func copyInto(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Pointer:
		if !src.IsNil() {
			p := reflect.New(src.Type().Elem())
			copyInto(p.Elem(), src.Elem())
			dst.Set(p)
		}
	case reflect.Interface:
		if !src.IsNil() {
			dst.Set(deepCopy(src.Elem()))
		}
	case reflect.Struct:
		for i := range src.NumField() {
			copyInto(exposed(dst.Field(i)), exposed(src.Field(i)))
		}
	case reflect.Array:
		for i := range src.Len() {
			copyInto(dst.Index(i), src.Index(i))
		}
	case reflect.Slice:
		if !src.IsNil() {
			s := reflect.MakeSlice(src.Type(), src.Len(), src.Len())
			for i := range src.Len() {
				copyInto(s.Index(i), src.Index(i))
			}
			dst.Set(s)
		}
	case reflect.Map:
		if !src.IsNil() {
			m := reflect.MakeMapWithSize(src.Type(), src.Len())
			for it := src.MapRange(); it.Next(); {
				m.SetMapIndex(deepCopy(it.Key()), deepCopy(it.Value()))
			}
			dst.Set(m)
		}
	case reflect.Func, reflect.Chan, reflect.UnsafePointer:
		panic("deepCopy: cannot copy a " + src.Kind().String())
	default:
		dst.Set(src)
	}
}

// exposed returns an addressable field as a value reflect lets the copy
// read and set even when the field is unexported.
func exposed(f reflect.Value) reflect.Value {
	if !f.CanAddr() {
		return f
	}
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}
