// Package cli is the chassis the repo's commands (sweep, sweepd, simcheck)
// stand on: the flags they share with their start/stop wiring, grid-file
// loading, result reporting, and the observer sinks that hang progress
// lines, heartbeats and flight dumps off a sweep — sweep's Stream and
// simcheck's Sweep.Execute alike, so neither keeps a copy of its own. A
// command keeps only its own mode logic; both ends of an exec fleet
// resolve a grid file and render a result through the same code, which is
// what their byte-identity contract is measured against.
package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mptcpsim/internal/telemetry"
)

// Flags are the command-line options the commands share. A command embeds
// the struct and registers only the groups it exposes, wording the usage
// text itself where the meaning differs (what -q silences, what a
// heartbeat counts); unregistered fields stay empty and inert.
type Flags struct {
	// Quiet is -quiet/-q.
	Quiet bool
	// Progress is the -progress heartbeat destination ("-" = stderr), HTTP
	// the -http debug endpoint address.
	Progress, HTTP string
	// CPUProfile and MemProfile are the -cpuprofile/-memprofile paths.
	CPUProfile, MemProfile string
	// CSV, Groups and JSON are the -csv/-groups/-json paths Report writes.
	CSV, Groups, JSON string
}

// RegisterQuiet registers -quiet and its -q shorthand.
func (f *Flags) RegisterQuiet(fs *flag.FlagSet, usage string) {
	fs.BoolVar(&f.Quiet, "quiet", false, usage)
	fs.BoolVar(&f.Quiet, "q", false, "shorthand for -quiet")
}

// RegisterObserve registers -progress and -http.
func (f *Flags) RegisterObserve(fs *flag.FlagSet, progressUsage, httpUsage string) {
	fs.StringVar(&f.Progress, "progress", "", progressUsage)
	fs.StringVar(&f.HTTP, "http", "", httpUsage)
}

// RegisterProfile registers -cpuprofile and -memprofile; what names the
// work the CPU profile covers ("sweep", "check").
func (f *Flags) RegisterProfile(fs *flag.FlagSet, what string) {
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile of the whole "+what+" to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write an allocation profile to this file at exit")
}

// RegisterOutputs registers -csv, -groups and -json.
func (f *Flags) RegisterOutputs(fs *flag.FlagSet) {
	fs.StringVar(&f.CSV, "csv", "", "write the per-run table to this CSV file")
	fs.StringVar(&f.Groups, "groups", "", "write the aggregate table to this CSV file")
	fs.StringVar(&f.JSON, "json", "", "write the full result (runs + groups) to this JSON file")
}

// StartProfile begins profiling according to -cpuprofile/-memprofile. With
// a CPU path set, CPU profiling runs until stop is called; with a memory
// path set, stop garbage-collects and writes the allocation profile there.
// The returned stop is never nil and is safe to call exactly once.
func (f *Flags) StartProfile() (stop func() error, err error) {
	var cpuFile *os.File
	if f.CPUProfile != "" {
		cpuFile, err = os.Create(f.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if f.MemProfile == "" {
			return nil
		}
		// Up-to-date live-object accounting, as `go test -memprofile`
		// does before its final write.
		runtime.GC()
		if err := WriteFile(f.MemProfile, func(w io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(w, 0)
		}); err != nil {
			return fmt.Errorf("heap profile: %w", err)
		}
		return nil
	}, nil
}

// StartObserve opens what -progress and -http ask for: a heartbeat meter
// over total runs on a pool of workers (nil without -progress; published
// under /debug/vars when there is a debug endpoint) and the debug server,
// announced on stderr. stop emits the final heartbeat and closes both; it
// is non-nil whenever err is nil.
func (f *Flags) StartObserve(total, workers int, stderr io.Writer) (meter *telemetry.Meter, stop func(), err error) {
	var file *os.File
	if f.Progress != "" {
		w := stderr
		if f.Progress != "-" {
			if file, err = os.Create(f.Progress); err != nil {
				return nil, nil, err
			}
			w = file
		}
		meter = telemetry.NewMeter(w, total, workers, time.Second)
		meter.Activate()
	}
	closeSrv := func() error { return nil }
	if f.HTTP != "" {
		var addr string
		if addr, closeSrv, err = telemetry.DebugServer(f.HTTP); err != nil {
			if file != nil {
				file.Close()
			}
			return nil, nil, err
		}
		fmt.Fprintf(stderr, "debug endpoint on http://%s/debug/vars\n", addr)
	}
	return meter, func() {
		closeSrv()
		if meter != nil {
			meter.Close()
		}
		if file != nil {
			file.Close()
		}
	}, nil
}
