// Command essdbench is a fio-like benchmark front end for the simulated
// devices: it runs one workload (from flags or a fio job file) against a
// chosen device profile and prints a fio-style summary.
//
// Comma-separated values in -device, -rw, -bs, or -iodepth turn the run
// into a sweep: the cross product of the listed values executes as an
// experiment grid on -workers parallel workers (deterministic results,
// one fresh preconditioned device per cell) and prints one summary row
// per cell.
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
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"essdsim"
	"essdsim/internal/fio"
	"essdsim/internal/profiling"
	"essdsim/internal/workload"
)

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
		seed     = flag.Uint64("seed", 1, "deterministic seed")
		jobFile  = flag.String("job", "", "fio job file (overrides workload flags)")
		precond  = flag.String("precondition", "auto", "auto, full, half, none")
		rate     = flag.String("rate", "0", "open-loop arrival rate(s) (req/s); 0 = closed loop at -iodepth")
		arrival  = flag.String("arrival", "uniform", "open-loop arrival shape(s): uniform, poisson, bursty")
		ops      = flag.Uint64("ops", 10000, "open-loop request count per cell (with -rate)")
		workers  = flag.Int("workers", 0, "parallel sweep cells (0 = GOMAXPROCS)")
		sloP99   = flag.Duration("slo-p99", 0, "latency-SLO search mode: find the highest rate with p99 under this")
		sloP999  = flag.Duration("slo-p999", 0, "additional p99.9 target for the SLO search")
		sloRange = flag.String("slo-range", "100,4000", "SLO search rate range min,max (req/s)")
		sloTol   = flag.Float64("slo-tol", 0, "SLO search convergence width in req/s (default range/64)")
		cacheF   = flag.String("cache", "", "sweep-cache JSON file for SLO probes and sweep cells (loaded if present, saved on exit)")
		traceF   = flag.String("trace", "", "trace-replay mode: replay this trace file on the device(s)")
		traceFmt = flag.String("trace-format", "text", "trace file format: text (native) or msr (MSR-Cambridge CSV)")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		isoName  = flag.String("isolation", "fifo", "backend QoS isolation policy: fifo, wfq, or reservation (essd-class devices)")
		qosWt    = flag.Float64("weight", 0, "volume scheduling weight under -isolation wfq/reservation (0 = default 1)")
		qosResv  = flag.Float64("reserved-bps", 0, "volume reserved backend bytes/sec under -isolation reservation")
		traceOut = flag.String("trace-out", "", "single runs: write sampled request traces to this file (.json = Chrome trace events, else CSV)")
		traceSmp = flag.Int("trace-sample", 64, "trace every Nth request when tracing is on")
		probeOut = flag.String("probe-out", "", "single runs: write state-probe series to this file (.json or CSV); requires -probe-interval")
		probeIvl = flag.Duration("probe-interval", 0, "simulated-time cadence of state probes (e.g. 10ms)")
		verbose  = flag.Bool("v", false, "print per-cell sweep progress (elapsed/ETA, cached counts) to stderr")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q (essdbench takes no positional arguments)", flag.Arg(0)))
	}
	verboseProgress = *verbose
	if *traceSmp < 1 {
		fatal(fmt.Errorf("-trace-sample wants a positive count, got %d", *traceSmp))
	}
	if *probeOut != "" && *probeIvl <= 0 {
		fatal(fmt.Errorf("-probe-out requires a positive -probe-interval, got %s", *probeIvl))
	}
	if *traceOut != "" || *probeOut != "" {
		obsOut.traceOut, obsOut.probeOut = *traceOut, *probeOut
		obsOut.cfg = &essdsim.ObsConfig{
			SampleEvery:   *traceSmp,
			ProbeInterval: essdsim.Duration(probeIvl.Nanoseconds()),
		}
	}
	stopProfiles, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()
	if *mixPct < 0 || *mixPct > 100 {
		fatal(fmt.Errorf("-rwmixwrite %d out of [0, 100]", *mixPct))
	}
	isoPolicy, err := essdsim.ParseIsolationPolicy(*isoName)
	if err != nil {
		fatal(err)
	}
	devQoS.iso = essdsim.Isolation{Policy: isoPolicy}
	devQoS.weight = *qosWt
	devQoS.resv = *qosResv
	if (devQoS.weight != 0 || devQoS.resv != 0) && !devQoS.iso.Enabled() {
		fatal(fmt.Errorf("-weight/-reserved-bps need -isolation wfq or reservation; fifo ignores shares"))
	}

	rates, err := parseRates(*rate)
	if err != nil {
		fatal(err)
	}

	if *traceF != "" { // trace replay
		switch {
		case *jobFile != "":
			fatal(fmt.Errorf("-job cannot be combined with -trace replay mode"))
		case *size != "":
			fatal(fmt.Errorf("-size cannot be combined with -trace; the trace sets the load"))
		case len(rates) > 0:
			fatal(fmt.Errorf("-rate cannot be combined with -trace; the trace sets the arrival times"))
		case *sloP99 > 0 || *sloP999 > 0:
			fatal(fmt.Errorf("-slo-p99 cannot be combined with -trace replay mode"))
		case *cacheF != "":
			fatal(fmt.Errorf("-cache is not supported in -trace replay mode"))
		case obsOut.cfg != nil:
			fatal(fmt.Errorf("-trace-out/-probe-out instrument single runs, not -trace replay mode"))
		case strings.ContainsRune(*rw+*bs+*iodepth+*arrival, ','):
			fatal(fmt.Errorf("-trace replays ignore workload axes; only -device may be a list"))
		}
		runTraceReplay(*traceF, *traceFmt, *device, *precond, *seed, *workers)
		return
	}

	if *sloP99 > 0 || *sloP999 > 0 { // latency-SLO search
		switch {
		case *jobFile != "":
			fatal(fmt.Errorf("-job cannot be combined with -slo-p99 search mode"))
		case *size != "":
			fatal(fmt.Errorf("-size cannot be combined with -slo-p99 search mode"))
		case len(rates) > 0:
			fatal(fmt.Errorf("-rate cannot be combined with -slo-p99; the search picks the rates"))
		case obsOut.cfg != nil:
			fatal(fmt.Errorf("-trace-out/-probe-out instrument single runs, not -slo-p99 search mode"))
		case strings.ContainsRune(*device+*rw+*bs+*arrival+*iodepth, ','):
			fatal(fmt.Errorf("-slo-p99 search mode takes no axis lists: a single device, pattern, size, and arrival"))
		}
		runSLOSearch(*device, *rw, *bs, *arrival, *sloRange, *sloTol,
			*sloP99, *sloP999, *ops, *mixPct, *precond, *seed, *cacheF)
		return
	}

	if len(rates) > 0 { // open loop
		switch {
		case *jobFile != "":
			fatal(fmt.Errorf("-job cannot be combined with -rate (open loop)"))
		case *size != "":
			fatal(fmt.Errorf("-size cannot be combined with -rate; use -ops"))
		case strings.ContainsRune(*iodepth, ','):
			fatal(fmt.Errorf("-iodepth lists are a closed-loop axis; they cannot be combined with -rate"))
		}
		if strings.ContainsRune(*device+*rw+*bs+*rate+*arrival, ',') {
			if obsOut.cfg != nil {
				fatal(fmt.Errorf("-trace-out/-probe-out instrument single runs, not sweeps"))
			}
			runOpenSweep(*device, *rw, *bs, *arrival, rates, *ops, *mixPct, *precond, *seed, *workers, *cacheF)
			return
		}
		if *cacheF != "" {
			fatal(fmt.Errorf("-cache needs a sweep (comma-list axes) or -slo-p99 search; a single run is never memoized"))
		}
		eng := essdsim.NewEngine()
		dev, err := newDevice(*device, eng, *seed)
		if err != nil {
			fatal(err)
		}
		cap := instrumentObs(dev, *device)
		runOpenLoop(dev, *rw, *bs, rates[0], *arrival, *ops, *mixPct, *seed, *precond)
		dumpObs(cap)
		return
	}

	if strings.ContainsRune(*device+*rw+*bs+*iodepth, ',') {
		switch {
		case *jobFile != "":
			fatal(fmt.Errorf("-job cannot be combined with comma-list sweep flags"))
		case *size != "":
			fatal(fmt.Errorf("-size cannot be combined with comma-list sweep flags; use -runtime"))
		case obsOut.cfg != nil:
			fatal(fmt.Errorf("-trace-out/-probe-out instrument single runs, not sweeps"))
		}
		runSweep(*device, *rw, *bs, *iodepth, *runtime, *warmup, *precond, *mixPct, *seed, *workers, *cacheF)
		return
	}
	if *cacheF != "" {
		fatal(fmt.Errorf("-cache needs a sweep (comma-list axes) or -slo-p99 search; a single run is never memoized"))
	}

	eng := essdsim.NewEngine()
	dev, err := newDevice(*device, eng, *seed)
	if err != nil {
		fatal(err)
	}
	cap := instrumentObs(dev, *device)

	var jobs []fio.Job
	if *jobFile != "" {
		f, err := os.Open(*jobFile)
		if err != nil {
			fatal(err)
		}
		jobs, err = fio.Parse(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		if len(jobs) == 0 {
			fatal(fmt.Errorf("job file %s defines no jobs", *jobFile))
		}
	} else {
		pattern, err := workload.ParsePattern(*rw)
		if err != nil {
			fatal(err)
		}
		blockSize, err := fio.ParseSize(*bs)
		if err != nil {
			fatal(err)
		}
		depth, err := strconv.Atoi(*iodepth)
		if err != nil {
			fatal(err)
		}
		spec := essdsim.Workload{
			Pattern:    pattern,
			BlockSize:  blockSize,
			QueueDepth: depth,
			WriteRatio: float64(*mixPct) / 100,
			Seed:       *seed,
		}
		if *size != "" {
			spec.TotalBytes, err = fio.ParseSize(*size)
			if err != nil {
				fatal(err)
			}
		} else {
			spec.Duration, err = fio.ParseDuration(*runtime)
			if err != nil {
				fatal(err)
			}
			spec.Warmup, err = fio.ParseDuration(*warmup)
			if err != nil {
				fatal(err)
			}
		}
		jobs = []fio.Job{{Name: "cmdline", Spec: spec}}
	}

	mode, err := parsePrecond(*precond)
	if err != nil {
		fatal(err)
	}
	// Validate every job before running any: workload.Run panics on a bad
	// spec, and a panic's stack trace is no way to report a flag typo.
	for _, job := range jobs {
		if err := job.Spec.Validate(dev); err != nil {
			fatal(fmt.Errorf("job %s: %w", job.Name, err))
		}
	}
	for _, job := range jobs {
		switch mode {
		case essdsim.PrecondAuto:
			essdsim.Precondition(dev, job.Spec.Pattern.IsWrite())
		case essdsim.PrecondFull:
			essdsim.Precondition(dev, false)
		case essdsim.PrecondWrites:
			essdsim.Precondition(dev, true)
		}
		fmt.Printf("=== job %s ===\n", job.Name)
		res := essdsim.Run(dev, job.Spec)
		essdsim.FormatWorkloadResult(os.Stdout, res)
	}
	dumpObs(cap)
}

// parseRates parses a comma list of open-loop rates. An empty list (every
// value zero) means closed-loop mode; mixing zero and non-zero rates is an
// error.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	zero := false
	for _, f := range strings.Split(s, ",") {
		r, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -rate %q", f)
		}
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
func runTraceReplay(file, format, devices, precond string, seed uint64, workers int) {
	f, err := os.Open(file)
	if err != nil {
		fatal(err)
	}
	recs, err := essdsim.ReadTraceFormat(f, format)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(recs) == 0 {
		fatal(fmt.Errorf("trace %s has no records", file))
	}
	sw := traceSweep(recs, format, devices, precond, seed)
	fmt.Printf("trace replay: %d records on %d devices\n", len(recs), len(sw.Devices))
	fmt.Printf("%-8s %10s %12s %11s %9s %8s %11s %11s\n",
		"device", "ops", "bytes", "elapsed", "stretch", "peak-q", "p50", "p99.9")
	results, err := essdsim.RunSweep(context.Background(), sw, workers)
	if err != nil {
		fatal(err)
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
func traceSweep(recs []essdsim.TraceRecord, format, devices, precond string, seed uint64) essdsim.Sweep {
	mode, err := parsePrecond(precond)
	if err != nil {
		fatal(err)
	}
	return essdsim.Sweep{
		Devices: profileDevices(splitList(devices)...),
		Kind:    essdsim.SweepTraceReplay{Trace: recs, Fit: format == "msr", Precondition: mode},
		Seed:    seed,
		Label:   "essdbench-trace",
		Variant: qosVariant(),
	}
}

// runSLOSearch binary-searches offered rate for the highest rate whose
// steady-state tail latency meets the target, on one device profile.
func runSLOSearch(device, rws, sizes, arrivals, rateRange string, tol float64,
	p99, p999 time.Duration, ops uint64, mixPct int, precond string, seed uint64, cacheFile string) {
	pattern, err := workload.ParsePattern(rws)
	if err != nil {
		fatal(err)
	}
	blockSize, err := fio.ParseSize(sizes)
	if err != nil {
		fatal(err)
	}
	arr, err := workload.ParseArrival(arrivals)
	if err != nil {
		fatal(err)
	}
	mode, err := parsePrecond(precond)
	if err != nil {
		fatal(err)
	}
	parts := strings.Split(rateRange, ",")
	if len(parts) != 2 {
		fatal(fmt.Errorf("-slo-range wants min,max (req/s), got %q", rateRange))
	}
	minRate, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
	maxRate, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err1 != nil || err2 != nil || minRate <= 0 || maxRate <= minRate {
		fatal(fmt.Errorf("bad -slo-range %q (want 0 < min < max)", rateRange))
	}

	var cache *essdsim.SweepCache
	if cacheFile != "" {
		cache = essdsim.NewSweepCache(0)
		if err := cache.LoadFile(cacheFile); err != nil {
			fatal(err)
		}
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
		Cache:        cache,
		Seed:         seed,
	}
	if search.MaxOps == 0 {
		search.MaxOps = 60000
	}
	rep, err := essdsim.SearchSLO(context.Background(), search)
	if err != nil {
		fatal(err)
	}
	essdsim.FormatSLOReport(os.Stdout, rep)
	if cache != nil {
		if err := cache.SaveFile(cacheFile); err != nil {
			fatal(err)
		}
	}
}

// runOpenLoop issues requests on an arrival schedule instead of a closed
// loop, exposing the queueing that Implication #4 is about.
func runOpenLoop(dev essdsim.Device, rw, bs string, rate float64,
	arrival string, ops uint64, mixPct int, seed uint64, precond string) {
	pattern, err := workload.ParsePattern(rw)
	if err != nil {
		fatal(err)
	}
	blockSize, err := fio.ParseSize(bs)
	if err != nil {
		fatal(err)
	}
	arr, err := workload.ParseArrival(arrival)
	if err != nil {
		fatal(err)
	}
	mode, err := parsePrecond(precond)
	if err != nil {
		fatal(err)
	}
	switch mode {
	case essdsim.PrecondAuto:
		essdsim.Precondition(dev, pattern.IsWrite())
	case essdsim.PrecondFull:
		essdsim.Precondition(dev, false)
	case essdsim.PrecondWrites:
		essdsim.Precondition(dev, true)
	}
	spec := workload.OpenSpec{
		Pattern:    pattern,
		BlockSize:  blockSize,
		WriteRatio: float64(mixPct) / 100,
		RatePerSec: rate,
		Arrival:    arr,
		Count:      ops,
		Seed:       seed,
	}
	if err := spec.Validate(dev); err != nil {
		fatal(err)
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

// runCachedSweep executes a sweep with the optional persistent result
// cache attached: cells already in the cache are skipped, every completed
// sweep is saved back, and the returned report function prints the
// "N of M cells skipped" line (call it after the result rows). Without a
// cache path the sweep just runs and the report function is a no-op.
func runCachedSweep(sw essdsim.Sweep, workers int, cachePath string) ([]essdsim.SweepCellResult, func()) {
	var cache *essdsim.SweepCache
	if cachePath != "" {
		cache = essdsim.NewSweepCache(0)
		if err := cache.LoadFile(cachePath); err != nil {
			fatal(err)
		}
		sw.Cache = cache
	}
	var last essdsim.SweepProgress
	runner := essdsim.SweepRunner{Workers: workers, OnProgress: func(p essdsim.SweepProgress) {
		last = p
		if verboseProgress {
			fmt.Fprintf(os.Stderr, "sweep: %s\n", p)
		}
	}}
	results, err := runner.Run(context.Background(), sw)
	if err != nil {
		fatal(err)
	}
	return results, func() {
		if cache == nil {
			return
		}
		fmt.Printf("%d of %d cells skipped (cache-warm)\n", last.Cached, last.Total)
		if err := cache.SaveFile(cachePath); err != nil {
			fatal(err)
		}
	}
}

// runOpenSweep executes the cross product of comma-separated device,
// pattern, size, arrival, and rate lists as a parallel open-loop grid and
// prints one summary row per cell.
func runOpenSweep(devices, rws, sizes, arrivals string, rates []float64,
	ops uint64, mixPct int, precond string, seed uint64, workers int, cachePath string) {
	sw := openSweep(devices, rws, sizes, arrivals, rates, ops, mixPct, precond, seed)
	fmt.Printf("open-loop sweep: %d cells on %d devices\n",
		len(sw.Cells()), len(sw.Devices))
	fmt.Printf("%-8s %-10s %-7s %-8s %9s %11s %11s %11s %8s\n",
		"device", "rw", "bs", "arrival", "rate/s", "MB/s", "p50", "p99.9", "peak-q")
	results, reportCache := runCachedSweep(sw, workers, cachePath)
	for _, r := range results {
		s := r.Open.Lat.Summarize()
		fmt.Printf("%-8s %-10s %-7s %-8s %9.0f %11.1f %11v %11v %8d\n",
			r.DeviceName, r.Pattern, sizeLabel(r.BlockSize), r.Arrival,
			r.RatePerSec, r.Open.Throughput()/1e6, s.P50, s.P999,
			r.Open.MaxOutstanding)
	}
	reportCache()
}

// openSweep declares the open-loop grid of the comma-separated device,
// pattern, size, and arrival lists at the given offered rates.
func openSweep(devices, rws, sizes, arrivals string, rates []float64,
	ops uint64, mixPct int, precond string, seed uint64) essdsim.Sweep {
	k := essdsim.SweepOpen{
		Patterns:    parseList(rws, workload.ParsePattern),
		BlockSizes:  parseList(sizes, fio.ParseSize),
		Arrivals:    parseList(arrivals, workload.ParseArrival),
		RatesPerSec: rates,
		Ops:         ops,
	}
	if slices.Contains(k.Patterns, essdsim.Mixed) {
		k.WriteRatiosPct = []int{mixPct}
	}
	var err error
	if k.Precondition, err = parsePrecond(precond); err != nil {
		fatal(err)
	}
	return essdsim.Sweep{
		Devices: profileDevices(splitList(devices)...),
		Kind:    k,
		Seed:    seed,
		Label:   "essdbench-open",
		Variant: qosVariant(),
	}
}

// runSweep executes the cross product of comma-separated device, pattern,
// size, and depth lists as a parallel experiment grid and prints one
// summary row per cell.
func runSweep(devices, rws, sizes, depths, runtime, warmup, precond string, mixPct int, seed uint64, workers int, cachePath string) {
	k := essdsim.SweepClosed{
		Patterns:    parseList(rws, workload.ParsePattern),
		BlockSizes:  parseList(sizes, fio.ParseSize),
		QueueDepths: parseList(depths, strconv.Atoi),
	}
	if slices.Contains(k.Patterns, essdsim.Mixed) {
		k.WriteRatiosPct = []int{mixPct}
	}
	var err error
	if k.CellDuration, err = fio.ParseDuration(runtime); err != nil {
		fatal(err)
	}
	if k.CellDuration <= 0 {
		fatal(fmt.Errorf("sweep mode needs -runtime > 0"))
	}
	if k.Warmup, err = fio.ParseDuration(warmup); err != nil {
		fatal(err)
	}
	if k.Warmup == 0 {
		k.Warmup = -1 // explicit -warmup 0: really no warmup, not the default
	}
	if k.Precondition, err = parsePrecond(precond); err != nil {
		fatal(err)
	}
	sw := essdsim.Sweep{
		Devices: profileDevices(splitList(devices)...),
		Kind:    k,
		Seed:    seed,
		Label:   "essdbench",
		Variant: qosVariant(),
	}

	total := len(sw.Devices) * len(k.Patterns) * len(k.BlockSizes) * len(k.QueueDepths)
	fmt.Printf("sweep: %d cells on %d devices\n", total, len(sw.Devices))
	fmt.Printf("%-8s %-10s %-7s %-4s %11s %11s %11s %11s\n",
		"device", "rw", "bs", "QD", "MB/s", "IOPS", "avg", "p99.9")
	results, reportCache := runCachedSweep(sw, workers, cachePath)
	for _, r := range results {
		s := r.Res.Lat.Summarize()
		fmt.Printf("%-8s %-10s %-7s %-4d %11.1f %11.0f %11v %11v\n",
			r.DeviceName, r.Pattern, sizeLabel(r.BlockSize), r.QueueDepth,
			r.Res.Throughput()/1e6, r.Res.IOPS(), s.Mean, s.P999)
	}
	reportCache()
}

// splitList splits a comma-separated flag value into trimmed entries.
func splitList(s string) []string {
	parts := strings.Split(s, ",")
	for i, p := range parts {
		parts[i] = strings.TrimSpace(p)
	}
	return parts
}

// parseList parses every entry of a comma-separated flag value, exiting
// on the first bad one.
func parseList[T any](s string, parse func(string) (T, error)) []T {
	var vals []T
	for _, f := range splitList(s) {
		v, err := parse(f)
		if err != nil {
			fatal(err)
		}
		vals = append(vals, v)
	}
	return vals
}

// parsePrecond maps the -precondition flag to a sweep mode; the single-run
// path interprets the same modes through essdsim.Precondition calls.
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

// devQoS carries the backend isolation policy and per-volume QoS share
// from the flags to every device construction site; the zero value is the
// original FIFO stack.
var devQoS struct {
	iso    essdsim.Isolation
	weight float64
	resv   float64
}

func qosEnabled() bool {
	return devQoS.iso.Enabled() || devQoS.weight != 0 || devQoS.resv != 0
}

// qosVariant keys cache entries for isolated runs: same seeds and
// arrivals as fifo (deltas are pure scheduling effects), distinct entries.
func qosVariant() string {
	if !qosEnabled() {
		return ""
	}
	return fmt.Sprintf("iso:%s|w%g|r%g", devQoS.iso.Signature(), devQoS.weight, devQoS.resv)
}

func newDevice(name string, eng *essdsim.Engine, seed uint64) (essdsim.Device, error) {
	return essdsim.NewDeviceQoS(name, devQoS.iso, devQoS.weight, devQoS.resv, eng, seed)
}

func profileDevices(names ...string) []essdsim.NamedFactory {
	if !qosEnabled() {
		return essdsim.ProfileDevices(names...)
	}
	return essdsim.ProfileDevicesQoS(devQoS.iso, devQoS.weight, devQoS.resv, names...)
}

// obsOut carries the observability flags to the single-run paths; the
// zero value (no -trace-out/-probe-out) is fully off.
var obsOut struct {
	cfg      *essdsim.ObsConfig
	traceOut string
	probeOut string
}

// verboseProgress mirrors -v: per-cell sweep progress lines on stderr.
var verboseProgress bool

// instrumentObs attaches an observability capture to a single-run device
// when the obs flags are set; nil (and no-op) otherwise. Non-elastic
// devices are a fatal flag error — they have no backend to observe.
func instrumentObs(dev essdsim.Device, label string) *essdsim.ObsCapture {
	if obsOut.cfg == nil {
		return nil
	}
	cap, err := essdsim.InstrumentDevice(dev, label, obsOut.cfg)
	if err != nil {
		fatal(err)
	}
	return cap
}

// dumpObs writes the capture's spans and probe series to the -trace-out
// and -probe-out paths (.json selects the JSON writers, anything else CSV).
func dumpObs(cap *essdsim.ObsCapture) {
	if cap == nil {
		return
	}
	caps := []*essdsim.ObsCapture{cap}
	if obsOut.traceOut != "" {
		if err := writeObsFile(obsOut.traceOut, caps, essdsim.WriteTraceEvents, essdsim.WriteTraceCSV); err != nil {
			fatal(err)
		}
	}
	if obsOut.probeOut != "" {
		if err := writeObsFile(obsOut.probeOut, caps, essdsim.WriteProbesJSON, essdsim.WriteProbesCSV); err != nil {
			fatal(err)
		}
	}
}

func writeObsFile(path string, caps []*essdsim.ObsCapture,
	jsonFn, csvFn func(io.Writer, []*essdsim.ObsCapture) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	fn := csvFn
	if strings.HasSuffix(path, ".json") {
		fn = jsonFn
	}
	err = fn(f, caps)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "essdbench:", err)
	os.Exit(1)
}
