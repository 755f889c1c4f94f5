// Command essdbench is a fio-like benchmark front end for the simulated
// devices: it runs one workload (from flags or a fio job file) against a
// chosen device profile and prints a fio-style summary.
//
// Comma-separated values in -device, -rw, -bs, or -iodepth turn the run
// into a sweep: the cross product of the listed values executes as an
// experiment grid on -workers parallel workers (deterministic results,
// one fresh preconditioned device per cell) and prints one summary row
// per cell. An empty list item ("randwrite,,write" or a trailing comma)
// is an error naming the flag, reported before anything runs.
//
// A timed run measures from -warmup to -runtime, so a -warmup at or past
// the -runtime (e.g. -runtime 50ms against the default 100ms warmup) is an
// error rather than a run that measures nothing.
//
// A non-zero -rate switches to open-loop mode: requests issue on an
// arrival schedule (-arrival) instead of a closed queue-depth loop.
// Comma lists in -device, -rw, -bs, -rate, or -arrival then run as a
// parallel open-loop sweep over the cross product.
//
// A non-zero -slo-p99 switches to latency-SLO search mode: instead of
// measuring one offered rate, essdbench binary-searches the -slo-range for
// the highest rate whose steady-state p99 meets the target, reporting both
// the pre-exhaustion and the post-cliff (credit-floor) SLO-max rates of
// burstable tiers.
//
// With -cache FILE, SLO-search probes and closed/open sweep cells persist
// across invocations: a repeat sweep loads the file, skips every
// already-computed cell, and prints "N of M cells skipped (cache-warm)".
// Single (non-sweep) runs reject -cache rather than silently ignoring it.
//
// A non-empty -trace switches to trace-replay mode: the file (native text
// format, or MSR-Cambridge CSV with -trace-format msr) replays on every
// listed device as a parallel trace-replay sweep. MSR traces are fitted
// onto each device's scaled geometry first.
//
// All invalid flag and workload-spec combinations print a diagnostic to
// stderr and exit non-zero.
//
// Examples:
//
//	essdbench -device essd1 -rw randwrite -bs 4k -iodepth 1 -runtime 1s
//	essdbench -device ssd -rw randread -bs 256k -iodepth 16 -runtime 500ms
//	essdbench -device essd2 -job job.fio
//	essdbench -device essd1,ssd -rw randwrite,write -bs 4k,64k,256k -iodepth 1,8 -workers 8
//	essdbench -device gp2,gp2s -rw randwrite -bs 256k -rate 1500,3000 -arrival uniform,bursty -ops 4000
//	essdbench -device gp2s -rw randwrite -bs 256k -slo-p99 20ms -slo-range 200,3000
//	essdbench -device essd1,essd2 -trace msr-rows.csv -trace-format msr
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"essdsim"
	"essdsim/internal/cli"
	"essdsim/internal/fio"
	"essdsim/internal/workload"
)

// fl is the flag group essdbench shares with ucexperiments: -workers,
// -seed, -v, -cache, the pprof flags, -isolation, and the trace and probe
// flags.
var fl = cli.Register("essdbench", 1)

func main() {
	var (
		device   = flag.String("device", "essd1", "device profile(s): "+strings.Join(essdsim.ProfileNames(), ", "))
		rw       = flag.String("rw", "randread", "pattern(s): randread, randwrite, read, write, randrw")
		bs       = flag.String("bs", "4k", "I/O size(s) (k/m suffixes)")
		iodepth  = flag.String("iodepth", "1", "queue depth(s)")
		runtime  = flag.String("runtime", "1s", "measurement duration (simulated)")
		warmup   = flag.String("warmup", "100ms", "warmup excluded from stats")
		size     = flag.String("size", "", "stop after this many bytes instead of runtime")
		mixPct   = flag.Int("rwmixwrite", 50, "write percentage for randrw")
		jobFile  = flag.String("job", "", "fio job file (overrides workload flags)")
		precond  = flag.String("precondition", "auto", "auto, full, half, none")
		rate     = flag.String("rate", "0", "open-loop arrival rate(s) (req/s); 0 = closed loop at -iodepth")
		arrival  = flag.String("arrival", "uniform", "open-loop arrival shape(s): uniform, poisson, bursty")
		ops      = flag.Uint64("ops", 10000, "open-loop request count per cell (with -rate)")
		sloP99   = flag.Duration("slo-p99", 0, "latency-SLO search mode: find the highest rate with p99 under this")
		sloP999  = flag.Duration("slo-p999", 0, "additional p99.9 target for the SLO search")
		sloRange = flag.String("slo-range", "100,4000", "SLO search rate range min,max (req/s)")
		sloTol   = flag.Float64("slo-tol", 0, "SLO search convergence width in req/s (default range/64)")
		traceF   = flag.String("trace", "", "trace-replay mode: replay this trace file on the device(s)")
		traceFmt = flag.String("trace-format", "text", "trace file format: text (native) or msr (MSR-Cambridge CSV)")
		qosWt    = flag.Float64("weight", 0, "volume scheduling weight under -isolation wfq/reservation (0 = default 1)")
		qosResv  = flag.Float64("reserved-bps", 0, "volume reserved backend bytes/sec under -isolation reservation")
	)
	fl.Parse()
	defer fl.Close()
	if *mixPct < 0 || *mixPct > 100 {
		fl.Fatal(fmt.Errorf("-rwmixwrite %d out of [0, 100]", *mixPct))
	}
	devQoS.weight = *qosWt
	devQoS.resv = *qosResv
	if (devQoS.weight != 0 || devQoS.resv != 0) && !fl.Isolation.Enabled() {
		fl.Fatal(fmt.Errorf("-weight/-reserved-bps need -isolation wfq or reservation; fifo ignores shares"))
	}

	rates, err := parseRates(*rate)
	if err != nil {
		fl.Fatal(err)
	}
	mode, err := parsePrecond(*precond)
	if err != nil {
		fl.Fatal(err)
	}

	if *traceF != "" { // trace replay
		switch {
		case *jobFile != "":
			fl.Fatal(fmt.Errorf("-job cannot be combined with -trace replay mode"))
		case *size != "":
			fl.Fatal(fmt.Errorf("-size cannot be combined with -trace; the trace sets the load"))
		case len(rates) > 0:
			fl.Fatal(fmt.Errorf("-rate cannot be combined with -trace; the trace sets the arrival times"))
		case *sloP99 > 0 || *sloP999 > 0:
			fl.Fatal(fmt.Errorf("-slo-p99 cannot be combined with -trace replay mode"))
		case fl.CacheFile != "":
			fl.Fatal(fmt.Errorf("-cache is not supported in -trace replay mode"))
		case fl.Capturing():
			fl.Fatal(fmt.Errorf("-trace-out/-probe-out instrument single runs, not -trace replay mode"))
		case strings.ContainsRune(*rw+*bs+*iodepth+*arrival, ','):
			fl.Fatal(fmt.Errorf("-trace replays ignore workload axes; only -device may be a list"))
		}
		runTraceReplay(*traceF, *traceFmt, *device, mode)
		return
	}

	if *sloP99 > 0 || *sloP999 > 0 { // latency-SLO search
		switch {
		case *jobFile != "":
			fl.Fatal(fmt.Errorf("-job cannot be combined with -slo-p99 search mode"))
		case *size != "":
			fl.Fatal(fmt.Errorf("-size cannot be combined with -slo-p99 search mode"))
		case len(rates) > 0:
			fl.Fatal(fmt.Errorf("-rate cannot be combined with -slo-p99; the search picks the rates"))
		case fl.Capturing():
			fl.Fatal(fmt.Errorf("-trace-out/-probe-out instrument single runs, not -slo-p99 search mode"))
		case strings.ContainsRune(*device+*rw+*bs+*arrival+*iodepth, ','):
			fl.Fatal(fmt.Errorf("-slo-p99 search mode takes no axis lists: a single device, pattern, size, and arrival"))
		}
		runSLOSearch(*device, *rw, *bs, *arrival, *sloRange, *sloTol,
			*sloP99, *sloP999, *ops, *mixPct, mode)
		return
	}

	if len(rates) > 0 { // open loop
		switch {
		case *jobFile != "":
			fl.Fatal(fmt.Errorf("-job cannot be combined with -rate (open loop)"))
		case *size != "":
			fl.Fatal(fmt.Errorf("-size cannot be combined with -rate; use -ops"))
		case strings.ContainsRune(*iodepth, ','):
			fl.Fatal(fmt.Errorf("-iodepth lists are a closed-loop axis; they cannot be combined with -rate"))
		}
		if strings.ContainsRune(*device+*rw+*bs+*rate+*arrival, ',') {
			if fl.Capturing() {
				fl.Fatal(fmt.Errorf("-trace-out/-probe-out instrument single runs, not sweeps"))
			}
			runOpenSweep(*device, *rw, *bs, *arrival, rates, *ops, *mixPct, mode)
			return
		}
	} else if strings.ContainsRune(*device+*rw+*bs+*iodepth, ',') {
		switch {
		case *jobFile != "":
			fl.Fatal(fmt.Errorf("-job cannot be combined with comma-list sweep flags"))
		case *size != "":
			fl.Fatal(fmt.Errorf("-size cannot be combined with comma-list sweep flags; use -runtime"))
		case fl.Capturing():
			fl.Fatal(fmt.Errorf("-trace-out/-probe-out instrument single runs, not sweeps"))
		}
		runSweep(*device, *rw, *bs, *iodepth, *runtime, *warmup, mode, *mixPct)
		return
	}
	if fl.CacheFile != "" {
		fl.Fatal(fmt.Errorf("-cache needs a sweep (comma-list axes) or -slo-p99 search; a single run is never memoized"))
	}

	eng := essdsim.NewEngine()
	dev, err := newDevice(*device, eng, fl.Seed)
	if err != nil {
		fl.Fatal(err)
	}
	cap, err := fl.Instrument(dev, *device)
	if err != nil {
		fl.Fatal(err)
	}
	if len(rates) > 0 {
		runOpenLoop(dev, *rw, *bs, rates[0], *arrival, *ops, *mixPct, mode)
	} else {
		runJobs(dev, *jobFile, *rw, *bs, *iodepth, *runtime, *warmup, *size, *mixPct, mode)
	}
	if err := fl.WriteObs(cap); err != nil {
		fl.Fatal(err)
	}
}

// runJobs runs the -job file's jobs, or the one job the workload flags
// describe, on dev and prints a fio-style summary of each.
func runJobs(dev essdsim.Device, jobFile, rw, bs, iodepth, runtime, warmup, size string,
	mixPct int, mode essdsim.SweepPrecond) {
	var jobs []fio.Job
	if jobFile != "" {
		f, err := os.Open(jobFile)
		if err != nil {
			fl.Fatal(err)
		}
		jobs, err = fio.Parse(f)
		f.Close()
		if err != nil {
			fl.Fatal(err)
		}
		if len(jobs) == 0 {
			fl.Fatal(fmt.Errorf("job file %s defines no jobs", jobFile))
		}
	} else {
		pattern, err := workload.ParsePattern(rw)
		if err != nil {
			fl.Fatal(err)
		}
		blockSize, err := fio.ParseSize(bs)
		if err != nil {
			fl.Fatal(err)
		}
		depth, err := strconv.Atoi(iodepth)
		if err != nil {
			fl.Fatal(err)
		}
		spec := essdsim.Workload{
			Pattern:    pattern,
			BlockSize:  blockSize,
			QueueDepth: depth,
			WriteRatio: float64(mixPct) / 100,
			Seed:       fl.Seed,
		}
		if size != "" {
			spec.TotalBytes, err = fio.ParseSize(size)
			if err != nil {
				fl.Fatal(err)
			}
		} else {
			spec.Duration, err = fio.ParseDuration(runtime)
			if err != nil {
				fl.Fatal(err)
			}
			spec.Warmup, err = fio.ParseDuration(warmup)
			if err != nil {
				fl.Fatal(err)
			}
		}
		jobs = []fio.Job{{Name: "cmdline", Spec: spec}}
	}

	// Validate every job before running any: workload.Run panics on a bad
	// spec, and a panic's stack trace is no way to report a flag typo.
	for _, job := range jobs {
		if err := job.Spec.Validate(dev); err != nil {
			fl.Fatal(fmt.Errorf("job %s: %w", job.Name, err))
		}
	}
	for _, job := range jobs {
		mode.Apply(dev, job.Spec.Pattern.IsWrite())
		fmt.Printf("=== job %s ===\n", job.Name)
		res := essdsim.Run(dev, job.Spec)
		essdsim.FormatWorkloadResult(os.Stdout, res)
	}
}

// parseRates parses a comma list of open-loop rates. An empty list (every
// value zero) means closed-loop mode; mixing zero and non-zero rates is an
// error.
func parseRates(s string) ([]float64, error) {
	all, err := cli.List("rate", s, func(f string) (float64, error) { return strconv.ParseFloat(f, 64) })
	if err != nil {
		return nil, err
	}
	var rates []float64
	zero := false
	for _, r := range all {
		if r <= 0 {
			zero = true
			continue
		}
		rates = append(rates, r)
	}
	if zero && len(rates) > 0 {
		return nil, fmt.Errorf("-rate mixes zero (closed loop) and open-loop rates")
	}
	return rates, nil
}

// runTraceReplay replays one trace file on every listed device profile as
// a parallel trace-replay sweep and prints one summary row per device.
// MSR-format traces are fitted onto each device's scaled geometry.
func runTraceReplay(file, format, devices string, mode essdsim.SweepPrecond) {
	recs, err := cli.ReadTrace(file, format)
	if err != nil {
		fl.Fatal(err)
	}
	sw, err := traceSweep(recs, format, devices, mode, fl.Seed)
	if err != nil {
		fl.Fatal(err)
	}
	fmt.Printf("trace replay: %d records on %d devices\n", len(recs), len(sw.Devices))
	fmt.Printf("%-8s %10s %12s %11s %9s %8s %11s %11s\n",
		"device", "ops", "bytes", "elapsed", "stretch", "peak-q", "p50", "p99.9")
	results, err := essdsim.RunSweep(context.Background(), sw, fl.Workers)
	if err != nil {
		fl.Fatal(err)
	}
	for _, r := range results {
		s := r.Replay.Lat.Summarize()
		stretch := "n/a"
		if r.Replay.Nominal > 0 {
			stretch = fmt.Sprintf("%.2fx", r.Replay.Stretch)
		}
		fmt.Printf("%-8s %10d %12d %11v %9s %8d %11v %11v\n",
			r.DeviceName, r.Replay.Ops, r.Replay.Bytes, r.Replay.Elapsed,
			stretch, r.Replay.MaxOutstanding, s.P50, s.P999)
	}
}

// traceSweep declares the trace-replay sweep of recs over the comma-separated
// device list; MSR-format traces are fitted onto each device.
func traceSweep(recs []essdsim.TraceRecord, format, devices string,
	mode essdsim.SweepPrecond, seed uint64) (essdsim.Sweep, error) {
	names, err := cli.Strings("device", devices)
	return essdsim.Sweep{
		Devices: profileDevices(names...),
		Kind:    essdsim.SweepTraceReplay{Trace: recs, Fit: format == "msr", Precondition: mode},
		Seed:    seed,
		Label:   "essdbench-trace",
		Variant: qosVariant(),
	}, err
}

// runSLOSearch binary-searches offered rate for the highest rate whose
// steady-state tail latency meets the target, on one device profile.
func runSLOSearch(device, rws, sizes, arrivals, rateRange string, tol float64,
	p99, p999 time.Duration, ops uint64, mixPct int, mode essdsim.SweepPrecond) {
	pattern, err := workload.ParsePattern(rws)
	if err != nil {
		fl.Fatal(err)
	}
	blockSize, err := fio.ParseSize(sizes)
	if err != nil {
		fl.Fatal(err)
	}
	arr, err := workload.ParseArrival(arrivals)
	if err != nil {
		fl.Fatal(err)
	}
	parts := strings.Split(rateRange, ",")
	if len(parts) != 2 {
		fl.Fatal(fmt.Errorf("-slo-range wants min,max (req/s), got %q", rateRange))
	}
	minRate, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	maxRate, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err1 != nil || err2 != nil || minRate <= 0 || maxRate <= minRate {
		fl.Fatal(fmt.Errorf("bad -slo-range %q (want 0 < min < max)", rateRange))
	}

	search := essdsim.SLOSearch{
		Device:        profileDevices(device)[0],
		Variant:       qosVariant(),
		Pattern:       pattern,
		BlockSize:     blockSize,
		WriteRatioPct: mixPct,
		Arrival:       arr,
		MinRate:       minRate,
		MaxRate:       maxRate,
		Tolerance:     tol,
		Target: essdsim.SLOTarget{
			P99:  essdsim.Duration(p99.Nanoseconds()),
			P999: essdsim.Duration(p999.Nanoseconds()),
		},
		MaxOps:       ops * 6, // -ops bounds one probe's nominal length
		Precondition: mode,
		Cache:        fl.Cache,
		Seed:         fl.Seed,
	}
	if search.MaxOps == 0 {
		search.MaxOps = 60000
	}
	rep, err := essdsim.SearchSLO(context.Background(), search)
	if err != nil {
		fl.Fatal(err)
	}
	essdsim.FormatSLOReport(os.Stdout, rep)
}

// runOpenLoop issues requests on an arrival schedule instead of a closed
// loop, exposing the queueing that Implication #4 is about.
func runOpenLoop(dev essdsim.Device, rw, bs string, rate float64,
	arrival string, ops uint64, mixPct int, mode essdsim.SweepPrecond) {
	pattern, err := workload.ParsePattern(rw)
	if err != nil {
		fl.Fatal(err)
	}
	blockSize, err := fio.ParseSize(bs)
	if err != nil {
		fl.Fatal(err)
	}
	arr, err := workload.ParseArrival(arrival)
	if err != nil {
		fl.Fatal(err)
	}
	mode.Apply(dev, pattern.IsWrite())
	spec := workload.OpenSpec{
		Pattern:    pattern,
		BlockSize:  blockSize,
		WriteRatio: float64(mixPct) / 100,
		RatePerSec: rate,
		Arrival:    arr,
		Count:      ops,
		Seed:       fl.Seed,
	}
	if err := spec.Validate(dev); err != nil {
		fl.Fatal(err)
	}
	res := workload.RunOpen(dev, spec)
	s := res.Lat.Summarize()
	fmt.Printf("%s: open-loop %s bs=%s rate=%.0f/s arrivals=%s\n",
		res.Device, pattern, bs, rate, arr)
	fmt.Printf("  ops=%d elapsed=%v peak-outstanding=%d\n",
		res.Ops, res.Elapsed, res.MaxOutstanding)
	fmt.Printf("  lat avg=%v p50=%v p99=%v p99.9=%v max=%v\n",
		s.Mean, s.P50, s.P99, s.P999, s.Max)
}

// runOpenSweep executes the cross product of comma-separated device,
// pattern, size, arrival, and rate lists as a parallel open-loop grid and
// prints one summary row per cell.
func runOpenSweep(devices, rws, sizes, arrivals string, rates []float64,
	ops uint64, mixPct int, mode essdsim.SweepPrecond) {
	sw, err := openSweep(devices, rws, sizes, arrivals, rates, ops, mixPct, mode, fl.Seed)
	if err != nil {
		fl.Fatal(err)
	}
	fmt.Printf("open-loop sweep: %d cells on %d devices\n",
		len(sw.Cells()), len(sw.Devices))
	fmt.Printf("%-8s %-10s %-7s %-8s %9s %11s %11s %11s %8s\n",
		"device", "rw", "bs", "arrival", "rate/s", "MB/s", "p50", "p99.9", "peak-q")
	fl.RunSweep(sw, func(r essdsim.SweepCellResult) {
		s := r.Open.Lat.Summarize()
		fmt.Printf("%-8s %-10s %-7s %-8s %9.0f %11.1f %11v %11v %8d\n",
			r.DeviceName, r.Pattern, sizeLabel(r.BlockSize), r.Arrival,
			r.RatePerSec, r.Open.Throughput()/1e6, s.P50, s.P999,
			r.Open.MaxOutstanding)
	})
}

// openSweep declares the open-loop grid of the comma-separated device,
// pattern, size, and arrival lists at the given offered rates.
func openSweep(devices, rws, sizes, arrivals string, rates []float64,
	ops uint64, mixPct int, mode essdsim.SweepPrecond, seed uint64) (essdsim.Sweep, error) {
	names, err1 := cli.Strings("device", devices)
	patterns, err2 := cli.List("rw", rws, workload.ParsePattern)
	blockSizes, err3 := cli.List("bs", sizes, fio.ParseSize)
	arrs, err4 := cli.List("arrival", arrivals, workload.ParseArrival)
	k := essdsim.SweepOpen{
		Patterns:     patterns,
		BlockSizes:   blockSizes,
		Arrivals:     arrs,
		RatesPerSec:  rates,
		Ops:          ops,
		Precondition: mode,
	}
	if slices.Contains(k.Patterns, essdsim.Mixed) {
		k.WriteRatiosPct = []int{mixPct}
	}
	return essdsim.Sweep{
		Devices: profileDevices(names...),
		Kind:    k,
		Seed:    seed,
		Label:   "essdbench-open",
		Variant: qosVariant(),
	}, cmp.Or(err1, err2, err3, err4)
}

// runSweep executes the cross product of comma-separated device, pattern,
// size, and depth lists as a parallel experiment grid and prints one
// summary row per cell.
func runSweep(devices, rws, sizes, depths, runtime, warmup string, mode essdsim.SweepPrecond, mixPct int) {
	names, err1 := cli.Strings("device", devices)
	patterns, err2 := cli.List("rw", rws, workload.ParsePattern)
	blockSizes, err3 := cli.List("bs", sizes, fio.ParseSize)
	qds, err4 := cli.List("iodepth", depths, strconv.Atoi)
	dur, err5 := fio.ParseDuration(runtime)
	wu, err6 := fio.ParseDuration(warmup)
	if err := cmp.Or(err1, err2, err3, err4, err5, err6); err != nil {
		fl.Fatal(err)
	}
	if dur <= 0 {
		fl.Fatal(fmt.Errorf("sweep mode needs -runtime > 0"))
	}
	if wu == 0 {
		wu = -1 // explicit -warmup 0: really no warmup, not the default
	}
	k := essdsim.SweepClosed{
		Patterns:     patterns,
		BlockSizes:   blockSizes,
		QueueDepths:  qds,
		CellDuration: dur,
		Warmup:       wu,
		Precondition: mode,
	}
	if slices.Contains(k.Patterns, essdsim.Mixed) {
		k.WriteRatiosPct = []int{mixPct}
	}
	sw := essdsim.Sweep{
		Devices: profileDevices(names...),
		Kind:    k,
		Seed:    fl.Seed,
		Label:   "essdbench",
		Variant: qosVariant(),
	}
	if err := sw.Validate(); err != nil {
		fl.Fatal(err)
	}

	fmt.Printf("sweep: %d cells on %d devices\n", len(sw.Cells()), len(sw.Devices))
	fmt.Printf("%-8s %-10s %-7s %-4s %11s %11s %11s %11s\n",
		"device", "rw", "bs", "QD", "MB/s", "IOPS", "avg", "p99.9")
	fl.RunSweep(sw, func(r essdsim.SweepCellResult) {
		s := r.Res.Lat.Summarize()
		fmt.Printf("%-8s %-10s %-7s %-4d %11.1f %11.0f %11v %11v\n",
			r.DeviceName, r.Pattern, sizeLabel(r.BlockSize), r.QueueDepth,
			r.Res.Throughput()/1e6, r.Res.IOPS(), s.Mean, s.P999)
	})
}

// parsePrecond maps the -precondition flag to a preparation mode.
func parsePrecond(s string) (essdsim.SweepPrecond, error) {
	switch s {
	case "auto":
		return essdsim.PrecondAuto, nil
	case "full":
		return essdsim.PrecondFull, nil
	case "half":
		return essdsim.PrecondWrites, nil
	case "none":
		return essdsim.PrecondNone, nil
	default:
		return 0, fmt.Errorf("unknown -precondition %q", s)
	}
}

func sizeLabel(bs int64) string {
	switch {
	case bs >= 1<<20 && bs%(1<<20) == 0:
		return fmt.Sprintf("%dm", bs>>20)
	case bs >= 1<<10 && bs%(1<<10) == 0:
		return fmt.Sprintf("%dk", bs>>10)
	default:
		return fmt.Sprintf("%d", bs)
	}
}

// devQoS carries the per-volume QoS share from the flags to every device
// construction site, next to the -isolation policy; the zero value with
// fifo isolation is the original FIFO stack.
var devQoS struct {
	weight float64
	resv   float64
}

func qosEnabled() bool {
	return fl.Isolation.Enabled() || devQoS.weight != 0 || devQoS.resv != 0
}

// qosVariant keys cache entries for isolated runs: same seeds and
// arrivals as fifo (deltas are pure scheduling effects), distinct entries.
func qosVariant() string {
	if !qosEnabled() {
		return ""
	}
	return fmt.Sprintf("iso:%s|w%g|r%g", fl.Isolation.Signature(), devQoS.weight, devQoS.resv)
}

func newDevice(name string, eng *essdsim.Engine, seed uint64) (essdsim.Device, error) {
	return essdsim.NewDeviceQoS(name, fl.Isolation, devQoS.weight, devQoS.resv, eng, seed)
}

func profileDevices(names ...string) []essdsim.NamedFactory {
	if !qosEnabled() {
		return essdsim.ProfileDevices(names...)
	}
	return essdsim.ProfileDevicesQoS(fl.Isolation, devQoS.weight, devQoS.resv, names...)
}
