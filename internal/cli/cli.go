// Package cli is the command-line layer shared by essdbench and
// ucexperiments. It declares the flag group both commands carry (-workers,
// -seed, -v, -cache, -cpuprofile, -memprofile, -isolation, -trace-out,
// -trace-sample, -probe-out, -probe-interval) and applies the rules they
// share: no positional arguments, a positive trace sample rate, a probe
// cadence for probe output, and a known isolation policy. It reports
// errors as one "prog: error" line on stderr with exit status 1, runs the
// sweep-cache lifecycle (load, cache-warm report, save at exit), prints -v
// progress on stderr, parses comma-list flags, reads trace files, and
// writes trace and probe captures as JSON or CSV. Which flags a command
// mode accepts, the flags whose meaning differs between the commands, and
// each command's stdout wording stay in the commands.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"essdsim/internal/blockdev"
	"essdsim/internal/essd"
	"essdsim/internal/expgrid"
	"essdsim/internal/obs"
	"essdsim/internal/qos"
	"essdsim/internal/sim"
	"essdsim/internal/trace"
)

// Flags is the shared flag group. Register declares it; Parse fills the
// parsed fields.
type Flags struct {
	prog string

	Workers   int
	Seed      uint64
	CacheFile string

	verbose       bool
	cpuProfile    string
	memProfile    string
	isolation     string
	traceOut      string
	traceSample   int
	probeOut      string
	probeInterval time.Duration

	// Isolation is the -isolation backend scheduling policy.
	Isolation qos.Isolation
	// Obs is the tracer and prober configuration of -trace-sample and
	// -probe-interval.
	Obs obs.Config
	// Cache is the -cache sweep cache, loaded from the file when it
	// exists; nil without -cache.
	Cache *expgrid.Cache

	stopProfiles func()
}

// Register declares the shared flags of the command prog on the default
// flag set, with seed as the -seed default.
func Register(prog string, seed uint64) *Flags {
	return register(flag.CommandLine, prog, seed)
}

func register(fs *flag.FlagSet, prog string, seed uint64) *Flags {
	f := &Flags{prog: prog}
	fs.IntVar(&f.Workers, "workers", 0, "parallel sweep cells (0 = GOMAXPROCS)")
	fs.Uint64Var(&f.Seed, "seed", seed, "deterministic seed")
	fs.BoolVar(&f.verbose, "v", false, "print per-cell sweep progress (elapsed/ETA, cached counts) to stderr")
	fs.StringVar(&f.CacheFile, "cache", "", "sweep-cache JSON file (loaded if present, saved on exit)")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a pprof heap profile at exit to this file")
	fs.StringVar(&f.isolation, "isolation", "fifo", "backend QoS isolation policy of essd-class devices: fifo, wfq, or reservation")
	fs.StringVar(&f.traceOut, "trace-out", "", "write sampled request traces to this file (.json = Chrome trace events, else CSV)")
	fs.IntVar(&f.traceSample, "trace-sample", 64, "trace every Nth request per volume when tracing is on")
	fs.StringVar(&f.probeOut, "probe-out", "", "write state-probe series to this file (.json or CSV); requires -probe-interval")
	fs.DurationVar(&f.probeInterval, "probe-interval", 0, "simulated-time cadence of state probes (e.g. 10ms)")
	return f
}

// Parse parses the command line, applies the shared rules, starts the
// requested pprof profiles, and loads the -cache file. Any failure exits
// through Fatal.
func (f *Flags) Parse() {
	if err := f.parse(flag.CommandLine, os.Args[1:]); err != nil {
		f.Fatal(err)
	}
}

func (f *Flags) parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected argument %q (%s takes no positional arguments)", fs.Arg(0), f.prog)
	case f.traceSample < 1:
		return fmt.Errorf("-trace-sample wants a positive count, got %d", f.traceSample)
	case f.probeOut != "" && f.probeInterval <= 0:
		return fmt.Errorf("-probe-out requires a positive -probe-interval, got %s", f.probeInterval)
	}
	policy, err := qos.ParseIsolationPolicy(f.isolation)
	if err != nil {
		return err
	}
	f.Isolation = qos.Isolation{Policy: policy}
	f.Obs = obs.Config{SampleEvery: f.traceSample, ProbeInterval: sim.Duration(f.probeInterval.Nanoseconds())}
	if f.stopProfiles, err = startProfiles(f.cpuProfile, f.memProfile); err != nil {
		return err
	}
	if f.CacheFile != "" {
		f.Cache = expgrid.NewCache(0)
		return f.Cache.LoadFile(f.CacheFile)
	}
	return nil
}

// Fatal prints "prog: err" to stderr and exits with status 1: every
// user-facing error of the commands ends here, never in a panic.
func (f *Flags) Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", f.prog, err)
	os.Exit(1)
}

// Close saves the -cache file and finishes the pprof profiles; run it once
// the command's work is done. Error exits skip it, so a failed run leaves
// neither a saved cache nor a profile.
func (f *Flags) Close() {
	if f.Cache != nil {
		if err := f.Cache.SaveFile(f.CacheFile); err != nil {
			f.Fatal(err)
		}
	}
	f.stopProfiles()
}

// Progress returns the -v callback for one sweep: lines such as
// "label: 12/40 cells (3 cached) elapsed 1.2s eta 2.8s" on stderr, so
// stdout stays comparable between runs. It is nil without -v.
func (f *Flags) Progress(label string) func(expgrid.Progress) {
	if !f.verbose {
		return nil
	}
	return func(p expgrid.Progress) { fmt.Fprintf(os.Stderr, "%s: %s\n", label, p) }
}

// Skipped prints "<prefix>N of M cells skipped (cache-warm)" on stdout
// when a cache is attached, and nothing otherwise.
func (f *Flags) Skipped(prefix string, cached, total int) {
	if f.Cache != nil {
		fmt.Printf("%s%d of %d cells skipped (cache-warm)\n", prefix, cached, total)
	}
}

// RunSweep runs sw on the -workers pool with the -cache attached and -v
// progress labelled "sweep", calls row for each result in enumeration
// order, then prints the cache-warm line. A sweep error exits through
// Fatal.
func (f *Flags) RunSweep(sw expgrid.Sweep, row func(expgrid.CellResult)) {
	sw.Cache = f.Cache
	results, err := expgrid.Runner{Workers: f.Workers, OnProgress: f.Progress("sweep")}.Run(context.Background(), sw)
	if err != nil {
		f.Fatal(err)
	}
	cached := 0
	for _, r := range results {
		row(r)
		if r.Cached {
			cached++
		}
	}
	f.Skipped("", cached, len(results))
}

// Capturing reports whether -trace-out or -probe-out asks for an
// observability capture.
func (f *Flags) Capturing() bool { return f.traceOut != "" || f.probeOut != "" }

// Instrument attaches a capture labelled label to a single-run device when
// Capturing; it returns nil otherwise.
func (f *Flags) Instrument(dev blockdev.Device, label string) (*obs.Capture, error) {
	if !f.Capturing() {
		return nil, nil
	}
	return essd.Instrument(label, f.Obs, dev)
}

// WriteObs writes the captures' request spans to -trace-out and their
// probe series to -probe-out, skipping an unset path. A path ending in
// .json gets Chrome trace events (Perfetto-loadable) or JSON probe series;
// any other path gets the docs/formats.md CSV.
func (f *Flags) WriteObs(caps ...*obs.Capture) error {
	if err := writeObs(f.traceOut, caps, obs.WriteTraceEvents, obs.WriteTraceCSV); err != nil {
		return err
	}
	return writeObs(f.probeOut, caps, obs.WriteProbesJSON, obs.WriteProbesCSV)
}

func writeObs(path string, caps []*obs.Capture, jsonFn, csvFn func(io.Writer, []*obs.Capture) error) error {
	if path == "" {
		return nil
	}
	write := csvFn
	if strings.HasSuffix(path, ".json") {
		write = jsonFn
	}
	return WriteFile(path, func(w io.Writer) error { return write(w, caps) })
}

// WriteFile creates path and fills it through write, returning the first
// of the create, write, and close errors.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadTrace reads a trace file in the named format: "text" (native) or
// "msr" (MSR-Cambridge CSV). A trace without records is an error.
func ReadTrace(path, format string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := trace.ReadFormat(f, format)
	if err == nil && len(recs) == 0 {
		err = fmt.Errorf("trace %s has no records", path)
	}
	return recs, err
}

// List parses the comma-separated value s of the flag name, trimming
// spaces around each item and parsing it with parse. An empty item (an
// empty value, ",," or a trailing comma) is an error naming the flag, as
// is an item parse rejects.
func List[T any](name, s string, parse func(string) (T, error)) ([]T, error) {
	items := strings.Split(s, ",")
	out := make([]T, len(items))
	for i, item := range items {
		item = strings.TrimSpace(item)
		if item == "" {
			return nil, fmt.Errorf("-%s: empty item in %q", name, s)
		}
		var err error
		if out[i], err = parse(item); err != nil {
			return nil, fmt.Errorf("-%s: %w", name, err)
		}
	}
	return out, nil
}

// Strings is List for items used as they are.
func Strings(name, s string) ([]string, error) {
	return List(name, s, func(item string) (string, error) { return item, nil })
}

// startProfiles begins the requested pprof profiles; either path may be
// empty to skip that profile. The returned stop function finishes the CPU
// profile and snapshots the heap.
func startProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mem profile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the snapshot shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "mem profile: %v\n", err)
			}
		}
	}, nil
}
