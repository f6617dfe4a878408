package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// The driver: `go run ./bench` with no -workload. Every (workload,
// repetition) runs in a fresh child process — this binary re-executed with
// -workload — one child at a time, interleaved across workloads
// (A B C D, A B C D, ...) so warm-up and run-order effects cancel
// instead of landing on one workload. The traced runs follow, one per
// workload. The driver pools the children's per-pass samples, checks that
// every child of a workload reports the same results_digest, and prints
// every metric by name with its unit.

// timedChildren is how many timed child processes a workload gets; -quick
// runs one.
const timedChildren = 3

// stat summarises the pooled samples of one end-to-end metric.
type stat struct {
	Unit    string    `json:"unit"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

// workloadReport is one workload's aggregated outcome.
type workloadReport struct {
	Why           string          `json:"why"`
	ResultsDigest string          `json:"results_digest"`
	RunsAttempted int             `json:"runs_attempted"`
	RunsFailed    int             `json:"runs_failed"`
	Correct       bool            `json:"correct"`
	FailedChecks  []string        `json:"failed_checks,omitempty"`
	EndToEnd      map[string]stat `json:"end_to_end"`
	// HostSlowdown is the median over the timed passes of how many times
	// slower than the reference host the host ran, and RawSimSPerS the
	// median sim_s_per_s before it was normalised by that.
	HostSlowdown float64           `json:"host_slowdown"`
	RawSimSPerS  float64           `json:"raw_sim_s_per_s"`
	PerLayer     map[string]metric `json:"per_layer"`
	Phases       []phase           `json:"phases,omitempty"`
	TracedPassS  float64           `json:"traced_pass_s,omitempty"`
	TracedRuns   int               `json:"traced_runs,omitempty"`
}

// report is the -out document.
type report struct {
	Seed       int64                      `json:"seed"`
	Quick      bool                       `json:"quick,omitempty"`
	GoVersion  string                     `json:"go_version"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	NumCPU     int                        `json:"num_cpu"`
	Seconds    float64                    `json:"seconds"`
	Reps       int                        `json:"reps"`
	Workloads  map[string]*workloadReport `json:"workloads"`
	Layers     []layerResult              `json:"layers,omitempty"`
}

func drive(cfg config, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o777); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	reps := timedChildren
	if cfg.quick {
		reps = 1
	}
	rep := &report{
		Seed: cfg.seed, Quick: cfg.quick, GoVersion: runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seconds: cfg.seconds, Reps: reps,
		Workloads: map[string]*workloadReport{},
	}
	for _, w := range workloads {
		rep.Workloads[w.name] = &workloadReport{Why: w.why, Correct: true,
			EndToEnd: map[string]stat{}, PerLayer: map[string]metric{}}
	}
	pooled := map[string]map[string][]float64{}
	broken := false
	child := func(w *workload, trace int) *result {
		fmt.Fprintf(stderr, "bench: %s trace %d ...\n", w.name, trace)
		res, err := runChild(exe, cfg, w, trace, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			broken = true
			return nil
		}
		wr := rep.Workloads[w.name]
		wr.RunsAttempted += res.Attempted
		wr.RunsFailed += res.Failed
		for _, c := range res.Checks {
			if !c.OK {
				wr.Correct = false
				wr.FailedChecks = append(wr.FailedChecks, c.Name+": "+c.Note)
			}
		}
		if wr.ResultsDigest == "" {
			wr.ResultsDigest = res.Digest
		} else if res.Digest != wr.ResultsDigest {
			wr.Correct = false
			wr.FailedChecks = append(wr.FailedChecks, fmt.Sprintf(
				"results_digest %.12s of a later child differs from the first child's %.12s", res.Digest, wr.ResultsDigest))
		}
		return res
	}

	for r := 0; r < reps; r++ {
		for _, w := range workloads {
			res := child(w, 0)
			if res == nil {
				continue
			}
			if pooled[w.name] == nil {
				pooled[w.name] = map[string][]float64{}
			}
			for name, v := range res.Samples {
				pooled[w.name][name] = append(pooled[w.name][name], v...)
			}
		}
	}
	for _, w := range workloads {
		res := child(w, 1)
		if res == nil {
			continue
		}
		wr := rep.Workloads[w.name]
		wr.PerLayer = res.Metrics
		wr.Phases, wr.TracedPassS, wr.TracedRuns = res.Phases, res.PassS, res.Runs
		// The micro-drivers do not depend on the workload, so every traced
		// child is another set of attempts at the same measurement: keep
		// the best.
		if rep.Layers == nil {
			rep.Layers = res.Layers
		}
		for i, l := range res.Layers {
			if l.Value < rep.Layers[i].Value {
				rep.Layers[i] = l
			}
		}
	}

	for _, w := range workloads {
		wr := rep.Workloads[w.name]
		for _, d := range endToEnd {
			v := pooled[w.name][d.name]
			st := stat{Unit: d.unit, Median: median(v), N: len(v), Samples: v}
			if q1, q3, err := quartiles(v); err == nil {
				st.Q1, st.Q3 = q1, q3
			}
			wr.EndToEnd[d.name] = st
		}
		wr.HostSlowdown = median(pooled[w.name][hostSlowdown])
		wr.RawSimSPerS = median(pooled[w.name][rawSpeed])
	}
	rep.print(stdout)
	if cfg.out != "" {
		if err := writeJSON(cfg.out, rep); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 2
		}
	}
	if broken {
		return 2
	}
	for _, wr := range rep.Workloads {
		if !wr.Correct || wr.RunsFailed > 0 {
			return 1
		}
	}
	return 0
}

// runChild re-executes this binary for one (workload, trace) run and reads
// its full result back from a -detail file.
func runChild(exe string, cfg config, w *workload, trace int, stderr io.Writer) (*result, error) {
	detail := filepath.Join(cfg.dir, fmt.Sprintf("detail-%d.json", os.Getpid()))
	defer os.Remove(detail)
	args := []string{
		"-workload", w.name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace),
		"-dir", cfg.dir,
		"-detail", detail,
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(detail)
	if err != nil {
		// No result at all: the child died before it could report.
		return nil, fmt.Errorf("child left no result (%v): %s", runErr, bytes.TrimSpace(out.Bytes()))
	}
	// A child that exits 1 still reports: its failed checks are in the
	// result.
	var res result
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	return &res, nil
}

func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d, %s, GOMAXPROCS %d of %d CPUs, %d timed children x %g s per workload\n\n",
		rep.Seed, rep.GoVersion, rep.GOMAXPROCS, rep.NumCPU, rep.Reps, rep.Seconds)
	for _, wl := range workloads {
		wr := rep.Workloads[wl.name]
		fmt.Fprintf(w, "== %s\n", wl.name)
		fmt.Fprintf(w, "results_digest %s\n", wr.ResultsDigest)
		fmt.Fprintf(w, "runs_attempted %d runs_failed %d\n", wr.RunsAttempted, wr.RunsFailed)
		for _, c := range wr.FailedChecks {
			fmt.Fprintf(w, "FAILED %s\n", c)
		}
		for _, d := range endToEnd {
			st := wr.EndToEnd[d.name]
			fmt.Fprintf(w, "%-34s %14.6g %-9s q1 %.6g q3 %.6g n %d\n", d.name, st.Median, st.Unit, st.Q1, st.Q3, st.N)
		}
		fmt.Fprintf(w, "host %.3f times slower than the reference host; raw sim_s_per_s %.6g\n", wr.HostSlowdown, wr.RawSimSPerS)
		if len(wr.Phases) > 0 {
			printPhases(w, wr.Phases, wr.TracedRuns)
		}
		for _, d := range perLayer {
			if m, ok := wr.PerLayer[d.name]; ok {
				fmt.Fprintf(w, "%-34s %14.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
		fmt.Fprintln(w)
	}
	if len(rep.Layers) > 0 {
		fmt.Fprintf(w, "== layer micro-drivers (best of %d attempts in each of %d traced children)\n", layerAttempts, len(workloads))
		for _, l := range rep.Layers {
			fmt.Fprintf(w, "%-34s %12.4g %-3s %10d ops %8.3f allocs/op %7.3f s\n",
				l.Metric, l.Value, l.Unit, l.Ops, l.AllocsOp, l.BestS)
		}
	}
}
