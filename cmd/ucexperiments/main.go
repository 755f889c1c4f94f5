// Command ucexperiments regenerates the paper's evaluation artifacts
// (Table I and Figures 2-5) on the simulated devices and prints them in the
// paper's layout, plus the burst-credit scenario suite, the latency-SLO
// search behind Observation #4 on the burstable tiers, the noisy-neighbor
// suite measuring cross-tenant interference on a shared backend, the QoS
// isolation comparison running that suite under every scheduling policy
// (fifo, wfq, reservation) on identical arrival streams, and the fleet
// tenant-packing study comparing placement policies over many shared
// backends. -isolation selects one backend scheduling policy for the
// neighbor and fleet suites; -exp isolation sweeps them all. Optionally
// dumps raw CSV series for plotting (docs/formats.md describes the
// schemas).
//
// The neighbor suite's aggressors are synthetic by default; with
// -aggr-trace FILE (and -aggr-trace-format msr for MSR-Cambridge CSV) the
// aggressor rate, write ratio, and block size are instead fitted from a
// real trace (trace.Fit + trace.ProfileOf onto the neighbor volume
// geometry).
//
// The fleet study (-exp fleet) packs -fleet-tenants synthetic tenants
// (-fleet-aggressors of them bursty write floods) onto -fleet-backends
// shared backends under each -fleet-policy, and reports per-policy SLO
// violations, utilization, and worst-victim inflation vs a solo control.
//
// The KV study (-exp kv) runs fleet-style key-value tenants — each an LSM
// or page-store engine (-kv-engines) on its own elastic volume of a
// shared backend — under open-loop zipfian point reads and writes,
// sweeping engine design × key skew (-kv-skews) × value size
// (-kv-value-sizes) × backend tier (-kv-tiers). The report shows each
// design's foreground op tail next to its read/write amplification,
// cache hit rate, stalls, and the shared-debt coupling its background
// work (flushes, compactions, page-miss reads) induces.
//
// The churn study (-exp churn) runs the same catalog through the fleet
// control plane: -churn-epochs control epochs of seeded lifecycle events
// at -churn-rate events per epoch (create, delete, expand, shrink,
// snapshot-as-write-burst), online placement via the first -fleet-policy,
// and the -rebalance policy (never, threshold, or drain) migrating
// volumes between epochs. The report is a per-epoch time series of SLO
// violations, utilization, stranded capacity, and migration cost.
//
// Experiment cells run concurrently on an internal/expgrid worker pool
// (-workers, default GOMAXPROCS); results are deterministic and identical
// to a serial run regardless of worker count. With -cache FILE, burst,
// SLO, neighbor, fleet, and KV cells are memoized in a persistent sweep cache:
// a repeat run loads the file, executes zero new cells, and prints how
// many cells each suite skipped, reproducing the same measurements and
// byte-identical -out CSV dumps.
//
// Examples:
//
//	ucexperiments -exp table1
//	ucexperiments -exp fig2 -quick
//	ucexperiments -exp burst -quick
//	ucexperiments -exp neighbor -quick -out results/
//	ucexperiments -exp neighbor -isolation wfq -victim-weight 2
//	ucexperiments -exp isolation -quick -out results/
//	ucexperiments -exp fleet -isolation reservation
//	ucexperiments -exp neighbor -aggr-trace msr-rows.csv -aggr-trace-format msr
//	ucexperiments -exp fleet -quick -cache sweepcache.json
//	ucexperiments -exp fleet -fleet-tenants 16 -fleet-backends 4 -fleet-policy spread,interference
//	ucexperiments -exp churn -quick -cache sweepcache.json
//	ucexperiments -exp churn -churn-rate 3 -rebalance drain -out results/
//	ucexperiments -exp kv -quick -cache sweepcache.json
//	ucexperiments -exp kv -kv-engines lsm -kv-skews 0,0.5,0.99 -kv-tiers essd1,essd2 -out results/
//	ucexperiments -exp slo -slo-p99 20ms -out results/
//	ucexperiments -exp slo -quick -cache sweepcache.json
//	ucexperiments -exp all -out results/ -workers 8
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"essdsim/internal/blockdev"
	"essdsim/internal/churn"
	"essdsim/internal/expgrid"
	"essdsim/internal/fleet"
	"essdsim/internal/harness"
	"essdsim/internal/obs"
	"essdsim/internal/profiles"
	"essdsim/internal/profiling"
	"essdsim/internal/qos"
	"essdsim/internal/scenario"
	"essdsim/internal/sim"
	"essdsim/internal/slo"
	"essdsim/internal/trace"
	"essdsim/internal/workload"
)

// fatal prints the diagnostic to stderr and exits non-zero — every
// user-facing error path goes through it rather than a raw panic.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ucexperiments: %v\n", err)
	os.Exit(1)
}

func factory(name string, seed uint64) harness.Factory {
	return func(s uint64) blockdev.Device {
		d, err := profiles.ByName(name, sim.NewEngine(), sim.NewRNG(seed^s, s+0x9))
		if err != nil {
			panic(err)
		}
		return d
	}
}

func main() {
	var (
		exp         = flag.String("exp", "all", "table1, fig2, fig3, fig4, fig5, burst, slo, neighbor, isolation, fleet, churn, kv, or all")
		quick       = flag.Bool("quick", false, "reduced grids for a fast pass")
		seed        = flag.Uint64("seed", 7, "deterministic seed")
		out         = flag.String("out", "", "directory for raw CSV dumps (optional)")
		workers     = flag.Int("workers", 0, "parallel experiment cells (0 = GOMAXPROCS)")
		cacheFile   = flag.String("cache", "", "sweep-cache JSON file for burst/slo/neighbor/fleet/kv cells (loaded if present, saved on exit)")
		sloP99      = flag.Duration("slo-p99", 20*time.Millisecond, "p99 target of the -exp slo search")
		aggrArrival = flag.String("aggr-arrival", "bursty", "-exp neighbor aggressor arrival shape: bursty or poisson")
		aggrTrace   = flag.String("aggr-trace", "", "-exp neighbor: fit aggressor rate/write-ratio/size from this trace file")
		aggrTraceF  = flag.String("aggr-trace-format", "text", "trace file format for -aggr-trace: text or msr")
		fleetTen    = flag.Int("fleet-tenants", 12, "-exp fleet tenant catalog size")
		fleetAggr   = flag.Int("fleet-aggressors", 3, "-exp fleet bursty write-flood tenants within the catalog")
		fleetBack   = flag.Int("fleet-backends", 0, "-exp fleet packing density: backends available to every policy (0 = fit nominal load)")
		fleetPolicy = flag.String("fleet-policy", "all", "-exp fleet policies: all or a comma list of first-fit, spread, best-fit, interference")
		fleetP999   = flag.Duration("fleet-slo-p999", 5*time.Millisecond, "-exp fleet p99.9 target the violation columns count against")
		fleetScreen = flag.Bool("screen", false, "-exp fleet: two-fidelity mode — score placements analytically, simulate only the Pareto frontier")
		fleetCands  = flag.Int("screen-candidates", 1024, "-exp fleet -screen analytic candidate budget")
		churnRate   = flag.Float64("churn-rate", 1.5, "-exp churn mean lifecycle events per epoch (0 = static fleet)")
		churnEpochs = flag.Int("churn-epochs", 6, "-exp churn control epochs")
		rebalance   = flag.String("rebalance", "threshold", "-exp churn rebalancing policy: never, threshold, or drain")
		isolation   = flag.String("isolation", "fifo", "-exp neighbor/fleet backend QoS policy: fifo, wfq, or reservation")
		victimWt    = flag.Float64("victim-weight", 0, "-exp neighbor victim scheduling weight under wfq/reservation (0 = default 1)")
		victimResv  = flag.Float64("victim-reserved-bps", 0, "-exp neighbor victim reserved bytes/s under -isolation reservation (0 = 2x victim offered)")
		kvEngines   = flag.String("kv-engines", "lsm,pagestore", "-exp kv storage-engine designs (comma list of lsm, pagestore)")
		kvSkews     = flag.String("kv-skews", "0,0.99", "-exp kv zipfian key skews in [0,1) (comma list)")
		kvValSizes  = flag.String("kv-value-sizes", "1024", "-exp kv put value sizes in bytes (comma list)")
		kvTiers     = flag.String("kv-tiers", "essd1", "-exp kv backend tier profiles (comma list of essd1, essd2, gp3, gp2, gp2s, pl1)")
		kvTenants   = flag.Int("kv-tenants", 3, "-exp kv tenants sharing each cell's backend")
		kvRate      = flag.Float64("kv-rate", 4000, "-exp kv per-tenant offered op rate")
		kvReadFrac  = flag.Int("kv-read-frac", 50, "-exp kv percentage of ops that are point reads (-1 = pure ingest)")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
		traceOut    = flag.String("trace-out", "", "-exp neighbor: write sampled request traces to this file (.json = Chrome trace events, else CSV)")
		traceSample = flag.Int("trace-sample", 64, "trace every Nth request per volume when tracing is on")
		probeOut    = flag.String("probe-out", "", "-exp neighbor: write state-probe series to this file (.json or CSV); requires -probe-interval")
		probeIvl    = flag.Duration("probe-interval", 0, "simulated-time cadence of state probes (e.g. 10ms)")
		explain     = flag.Bool("explain", false, "-exp neighbor: print the per-cell cliff-attribution report")
		verbose     = flag.Bool("v", false, "print per-cell sweep progress (elapsed/ETA, cached counts) to stderr")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "ucexperiments: unexpected argument %q\n", flag.Arg(0))
		os.Exit(1)
	}
	obsWanted := *traceOut != "" || *probeOut != "" || *explain
	if *traceSample < 1 {
		fatal(fmt.Errorf("-trace-sample wants a positive count, got %d", *traceSample))
	}
	if *probeOut != "" && *probeIvl <= 0 {
		fatal(fmt.Errorf("-probe-out requires a positive -probe-interval, got %s", *probeIvl))
	}
	if obsWanted && !(*exp == "all" || *exp == "neighbor") {
		fatal(fmt.Errorf("-trace-out/-probe-out/-explain apply to -exp neighbor, not -exp %s", *exp))
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	isoPolicy, err := qos.ParseIsolationPolicy(*isolation)
	if err != nil {
		fatal(err)
	}
	iso := qos.Isolation{Policy: isoPolicy}

	var cache *expgrid.Cache
	if *cacheFile != "" {
		cache = expgrid.NewCache(0)
		if err := cache.LoadFile(*cacheFile); err != nil {
			fatal(err)
		}
	}

	// progress returns the -v per-cell progress callback for one suite
	// (nil when -v is off): "neighbor: 12/40 cells (3 cached) elapsed 1.2s
	// eta 2.8s" on stderr, so stdout stays machine-comparable.
	progress := func(suite string) func(expgrid.Progress) {
		if !*verbose {
			return nil
		}
		return func(p expgrid.Progress) {
			fmt.Fprintf(os.Stderr, "%s: %s\n", suite, p)
		}
	}

	opts := harness.Options{Seed: *seed, Workers: *workers}
	if *quick {
		opts.CellDuration = 150 * sim.Millisecond
		opts.Warmup = 30 * sim.Millisecond
	}
	essd1 := factory("essd1", *seed)
	essd2 := factory("essd2", *seed)
	ssd := factory("ssd", *seed)

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table1") {
		ran = true
		harness.FormatTableI(os.Stdout, profiles.TableI())
		fmt.Println()
	}
	if want("fig2") {
		ran = true
		sizes, qds := harness.Fig2Sizes, harness.Fig2QDs
		if *quick {
			sizes, qds = []int64{4 << 10, 64 << 10, 256 << 10}, []int{1, 4, 16}
		}
		ssdGrid := harness.RunLatencyGridWith(ssd, harness.Fig2Patterns, sizes, qds, opts)
		for i, f := range []harness.Factory{essd1, essd2} {
			grid := harness.RunLatencyGridWith(f, harness.Fig2Patterns, sizes, qds, opts)
			fmt.Printf("--- Figure 2%s/%s ---\n", string(rune('a'+2*i)), string(rune('b'+2*i)))
			harness.FormatFig2(os.Stdout, grid, ssdGrid, harness.MetricAvg)
			fmt.Println()
			harness.FormatFig2(os.Stdout, grid, ssdGrid, harness.MetricP999)
			fmt.Println()
			if *out != "" {
				dumpGridCSV(*out, fmt.Sprintf("fig2_essd%d.csv", i+1), grid, ssdGrid)
			}
		}
	}
	if want("fig3") {
		ran = true
		mult := 3.0
		if *quick {
			mult = 1.5
		}
		results := harness.RunSustainedWrites([]expgrid.NamedFactory{
			{Name: "essd1", New: essd1},
			{Name: "essd2", New: essd2},
			{Name: "ssd", New: ssd},
		}, mult, opts)
		harness.FormatFig3(os.Stdout, results)
		fmt.Println()
		if *out != "" {
			dumpFig3CSV(*out, results)
		}
	}
	if want("fig4") {
		ran = true
		sizes, qds := harness.Fig4Sizes, harness.Fig4QDs
		if *quick {
			sizes, qds = []int64{4 << 10, 32 << 10, 256 << 10}, []int{1, 8, 32}
		}
		var results []*harness.RandSeqResult
		for _, f := range []harness.Factory{essd1, essd2, ssd} {
			results = append(results, harness.RunRandSeqSweepWith(f, sizes, qds, opts))
		}
		harness.FormatFig4(os.Stdout, results)
		fmt.Println()
		if *out != "" {
			dumpFig4CSV(*out, results)
		}
	}
	if want("fig5") {
		ran = true
		ratios := harness.Fig5Ratios
		if *quick {
			ratios = []int{0, 30, 50, 70, 100}
		}
		var results []*harness.MixedResult
		for _, f := range []harness.Factory{essd1, essd2, ssd} {
			results = append(results, harness.RunMixedSweepWith(f, ratios, opts))
		}
		harness.FormatFig5(os.Stdout, results)
		if *out != "" {
			dumpFig5CSV(*out, results)
		}
	}
	if want("burst") {
		ran = true
		sweep := scenario.BurstSweep{
			Devices: []expgrid.NamedFactory{
				{Name: "gp2", New: factory("gp2", *seed)},
				{Name: "gp2s", New: factory("gp2s", *seed)},
			},
			Cache:      cache,
			Seed:       *seed,
			Workers:    *workers,
			OnProgress: progress("burst"),
		}
		if *quick {
			sweep.WriteRatiosPct = []int{0, 50, 100}
			sweep.RatesPerSec = []float64{3000}
			sweep.Ops = 3000
		}
		rep, err := scenario.RunBurst(context.Background(), sweep)
		if err != nil {
			fatal(err)
		}
		fmt.Println("--- Burst-credit scenario (Observation #4, burstable tiers) ---")
		scenario.FormatBurst(os.Stdout, rep)
		if cache != nil {
			fmt.Printf("burst: %d of %d cells skipped (cache-warm)\n", rep.CachedCells, len(rep.Cells))
		}
		fmt.Println()
		if *out != "" {
			dumpBurstCSV(*out, rep)
		}
	}
	if want("neighbor") {
		ran = true
		arr, err := workload.ParseArrival(*aggrArrival)
		if err != nil || arr == workload.Uniform {
			fmt.Fprintf(os.Stderr, "ucexperiments: -aggr-arrival wants bursty or poisson, got %q\n", *aggrArrival)
			os.Exit(1)
		}
		sweep := scenario.NeighborSweep{
			AggressorArrival:   arr,
			Cache:              cache,
			Seed:               *seed,
			Workers:            *workers,
			Isolation:          iso,
			VictimWeight:       *victimWt,
			VictimReservedRate: *victimResv,
			OnProgress:         progress("neighbor"),
		}
		if obsWanted {
			sweep.Obs = &obs.Config{
				SampleEvery:   *traceSample,
				ProbeInterval: sim.Duration(probeIvl.Nanoseconds()),
			}
		}
		if *quick {
			sweep.AggressorCounts = []int{0, 2, 4}
			sweep.AggressorRatesPerSec = []float64{1600}
			sweep.VictimOps = 1200
		}
		if *aggrTrace != "" {
			// Real-trace aggressors: fit the records onto the neighbor
			// volume geometry and drive the aggressor axis from the
			// fitted demand instead of the synthetic defaults.
			recs, err := readTraceFile(*aggrTrace, *aggrTraceF)
			if err != nil {
				fatal(err)
			}
			vcfg := profiles.NeighborVolumeConfig("aggr")
			d, err := fleet.DemandFromTrace("aggr", recs, vcfg.Capacity, vcfg.BlockSize)
			if err != nil {
				fatal(fmt.Errorf("-aggr-trace %s: %w", *aggrTrace, err))
			}
			sweep.AggressorRatesPerSec = []float64{d.RatePerSec}
			sweep.AggressorWriteRatiosPct = []int{d.WriteRatioPct}
			sweep.AggressorBlockSize = d.BlockSize
			fmt.Printf("neighbor aggressors fitted from %s: %.0f req/s, %d%% writes, %d-byte requests (%d records)\n",
				*aggrTrace, d.RatePerSec, d.WriteRatioPct, d.BlockSize, len(recs))
		}
		rep, err := scenario.RunNeighbor(context.Background(), sweep)
		if err != nil {
			fatal(err)
		}
		fmt.Println("--- Noisy-neighbor scenario (shared backend, cross-tenant contract) ---")
		scenario.FormatNeighbor(os.Stdout, rep)
		if cache != nil {
			fmt.Printf("neighbor: %d of %d cells skipped (cache-warm)\n", rep.CachedCells, len(rep.Cells))
		}
		if *explain {
			obs.FormatExplanations(os.Stdout, rep.Explanations)
		}
		if *traceOut != "" {
			if err := writeTraceFile(*traceOut, rep.Captures); err != nil {
				fatal(err)
			}
		}
		if *probeOut != "" {
			if err := writeProbeFile(*probeOut, rep.Captures); err != nil {
				fatal(err)
			}
		}
		fmt.Println()
		if *out != "" {
			dumpNeighborCSV(*out, rep)
		}
	}
	if want("isolation") {
		ran = true
		cmp := scenario.IsolationComparison{Sweep: scenario.NeighborSweep{
			Cache:              cache,
			Seed:               *seed,
			Workers:            *workers,
			VictimWeight:       *victimWt,
			VictimReservedRate: *victimResv,
			OnProgress:         progress("isolation"),
		}}
		if *quick {
			cmp.Sweep.AggressorCounts = []int{0, 2, 4}
			cmp.Sweep.AggressorRatesPerSec = []float64{1600}
			cmp.Sweep.VictimOps = 1200
		}
		rep, err := scenario.RunIsolationComparison(context.Background(), cmp)
		if err != nil {
			fatal(err)
		}
		fmt.Println("--- QoS isolation comparison (per-tenant scheduling on the shared backend) ---")
		scenario.FormatIsolation(os.Stdout, rep)
		if cache != nil {
			cells := 0
			for _, v := range rep.Variants {
				cells += len(v.Report.Cells)
			}
			fmt.Printf("isolation: %d of %d cells skipped (cache-warm)\n", rep.CachedCells, cells)
		}
		fmt.Println()
		if *out != "" {
			dumpIsolationCSV(*out, rep)
		}
	}
	if want("fleet") {
		ran = true
		tenants, aggressors := *fleetTen, *fleetAggr
		if *quick {
			tenants, aggressors = 8, 2
		}
		policies, err := parseFleetPolicies(*fleetPolicy)
		if err != nil {
			fatal(err)
		}
		spec := fleet.Spec{
			Demands:  fleet.SyntheticDemands(tenants, aggressors),
			Policies: policies,
			Backends: *fleetBack,
			SLOP999:  sim.Duration(fleetP999.Nanoseconds()),
			Cache:    cache,
			Seed:     *seed,
			Workers:  *workers,
		}
		spec.Backend.Isolation = iso
		if *fleetScreen {
			srep, err := fleet.Screen(context.Background(), fleet.ScreenSpec{
				Spec:       spec,
				Candidates: *fleetCands,
			})
			if err != nil {
				fatal(err)
			}
			fmt.Println("--- Fleet tenant packing (two-fidelity analytic screen) ---")
			fleet.FormatScreen(os.Stdout, srep)
			fmt.Println()
			if *out != "" && srep.Simulated != nil {
				dumpFleetCSV(*out, srep.Simulated)
			}
		} else {
			rep, err := fleet.Run(context.Background(), spec)
			if err != nil {
				fatal(err)
			}
			fmt.Println("--- Fleet tenant packing (placement policies over shared backends) ---")
			fleet.Format(os.Stdout, rep)
			if cache != nil {
				fmt.Printf("fleet: %d of %d cells skipped (cache-warm)\n", rep.CachedCells, rep.Cells)
			}
			fmt.Println()
			if *out != "" {
				dumpFleetCSV(*out, rep)
			}
		}
	}
	if want("churn") {
		ran = true
		tenants, aggressors := *fleetTen, *fleetAggr
		epochs := *churnEpochs
		if *quick {
			tenants, aggressors = 6, 1
			if epochs > 4 {
				epochs = 4
			}
		}
		policies, err := parseFleetPolicies(*fleetPolicy)
		if err != nil {
			fatal(err)
		}
		rb, err := churn.RebalancerByName(*rebalance)
		if err != nil {
			fatal(err)
		}
		spec := churn.Spec{
			Fleet: fleet.Spec{
				Demands:  fleet.SyntheticDemands(tenants, aggressors),
				Policies: policies,
				Backends: *fleetBack,
				SLOP999:  sim.Duration(fleetP999.Nanoseconds()),
				Cache:    cache,
				Seed:     *seed,
				Workers:  *workers,
			},
			Epochs:     epochs,
			ChurnRate:  *churnRate,
			Rebalancer: rb,
		}
		spec.Fleet.Backend.Isolation = iso
		if *quick {
			spec.Fleet.Horizon = 500 * sim.Millisecond
		}
		rep, err := churn.Run(context.Background(), spec)
		if err != nil {
			fatal(err)
		}
		fmt.Println("--- Fleet churn (lifecycle events, online placement, rebalancing) ---")
		churn.Format(os.Stdout, rep)
		if cache != nil {
			fmt.Printf("churn: %d of %d cells skipped (cache-warm)\n", rep.CachedCells, rep.Cells)
		}
		fmt.Println()
		if *out != "" {
			dumpChurnCSV(*out, rep)
		}
	}
	if want("kv") {
		ran = true
		engines, err := splitList(*kvEngines)
		if err != nil {
			fatal(fmt.Errorf("-kv-engines: %w", err))
		}
		skews, err := parseList(*kvSkews, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
		if err != nil {
			fatal(fmt.Errorf("-kv-skews: %w", err))
		}
		valSizes, err := parseList(*kvValSizes, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
		if err != nil {
			fatal(fmt.Errorf("-kv-value-sizes: %w", err))
		}
		tiers, err := splitList(*kvTiers)
		if err != nil {
			fatal(fmt.Errorf("-kv-tiers: %w", err))
		}
		sweep := scenario.KVMixSweep{
			Engines:     engines,
			Skews:       skews,
			ValueSizes:  valSizes,
			Tiers:       tiers,
			Tenants:     *kvTenants,
			RatePerSec:  *kvRate,
			ReadFracPct: *kvReadFrac,
			Cache:       cache,
			Seed:        *seed,
			Workers:     *workers,
			OnProgress:  progress("kv"),
		}
		if *quick {
			sweep.Tenants = 2
			sweep.OpsPerTenant = 600
		}
		rep, err := scenario.RunKVMix(context.Background(), sweep)
		if err != nil {
			fatal(err)
		}
		fmt.Println("--- KV tenant mix (storage engines on shared elastic volumes) ---")
		scenario.FormatKVMix(os.Stdout, rep)
		if cache != nil {
			fmt.Printf("kv: %d of %d cells skipped (cache-warm)\n", rep.CachedCells, len(rep.Cells))
		}
		fmt.Println()
		if *out != "" {
			dumpKVCSV(*out, rep)
		}
	}
	if want("slo") {
		ran = true
		fmt.Println("--- Latency-SLO search (highest rate meeting the target) ---")
		for _, name := range []string{"gp2", "gp2s"} {
			search := slo.Search{
				Device:  expgrid.NamedFactory{Name: name, New: factory(name, *seed)},
				Pattern: workload.RandWrite,
				Target:  slo.Target{P99: sim.Duration(sloP99.Nanoseconds())},
				Cache:   cache,
				Seed:    *seed,
			}
			if *quick {
				search.MaxRate = 3000
				search.Tolerance = 100
				search.Horizon = 3 * sim.Second
			}
			rep, err := slo.Run(context.Background(), search)
			if err != nil {
				fatal(err)
			}
			slo.Format(os.Stdout, rep)
			fmt.Println()
			if *out != "" {
				dumpSLOCSV(*out, name, rep)
			}
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "ucexperiments: unknown -exp %q\n", *exp)
		os.Exit(1)
	}
	if cache != nil {
		if err := cache.SaveFile(*cacheFile); err != nil {
			fatal(err)
		}
		hits, misses := cache.Stats()
		fmt.Printf("sweep cache: %d entries, %d hits, %d cells simulated (%s)\n",
			cache.Len(), hits, misses, *cacheFile)
	}
}

// writeTraceFile dumps the captures' sampled request spans to path:
// Chrome trace-event JSON (Perfetto-loadable) when the path ends in
// .json, the docs/formats.md trace CSV otherwise.
func writeTraceFile(path string, caps []*obs.Capture) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = obs.WriteTraceEvents(f, caps)
	} else {
		err = obs.WriteTraceCSV(f, caps)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeProbeFile dumps the captures' state-probe series to path: JSON
// when the path ends in .json, the docs/formats.md probe CSV otherwise.
func writeProbeFile(path string, caps []*obs.Capture) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".json") {
		err = obs.WriteProbesJSON(f, caps)
	} else {
		err = obs.WriteProbesCSV(f, caps)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readTraceFile reads a trace file in the named format.
func readTraceFile(file, format string) ([]trace.Record, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadFormat(f, format)
}

// splitList parses a comma-separated flag into trimmed non-empty items.
func splitList(s string) ([]string, error) {
	var out []string
	for _, item := range strings.Split(s, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		out = append(out, item)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty list")
	}
	return out, nil
}

// parseList parses a comma-separated flag, each item through parse.
func parseList[T any](s string, parse func(string) (T, error)) ([]T, error) {
	items, err := splitList(s)
	if err != nil {
		return nil, err
	}
	out := make([]T, len(items))
	for i, item := range items {
		if out[i], err = parse(item); err != nil {
			return nil, fmt.Errorf("bad value %q", item)
		}
	}
	return out, nil
}

// dumpKVCSV writes the KV tenant-mix per-cell table under dir.
func dumpKVCSV(dir string, rep *scenario.KVMixReport) {
	f := csvFile(dir, "kv_cells.csv")
	defer f.Close()
	if err := scenario.WriteKVCSV(f, rep); err != nil {
		panic(err)
	}
}

// parseFleetPolicies maps the -fleet-policy flag to placement policies.
func parseFleetPolicies(s string) ([]fleet.PlacementPolicy, error) {
	if s == "all" || s == "" {
		return fleet.DefaultPolicies(), nil
	}
	var out []fleet.PlacementPolicy
	for _, name := range strings.Split(s, ",") {
		p, err := fleet.PolicyByName(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// dumpChurnCSV writes the churn study's epoch time series and event
// audit trail under dir.
func dumpChurnCSV(dir string, rep *churn.Report) {
	f := csvFile(dir, "fleet_churn_epochs.csv")
	if err := churn.WriteEpochsCSV(f, rep); err != nil {
		panic(err)
	}
	f.Close()
	f = csvFile(dir, "fleet_churn_events.csv")
	defer f.Close()
	if err := churn.WriteEventsCSV(f, rep); err != nil {
		panic(err)
	}
}

func csvFile(dir, name string) *os.File {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		panic(err)
	}
	return f
}

func dumpGridCSV(dir, name string, essd, ssd *harness.LatencyGrid) {
	f := csvFile(dir, name)
	defer f.Close()
	if err := harness.WriteFig2CSV(f, essd, ssd); err != nil {
		panic(err)
	}
}

func dumpFig3CSV(dir string, results []*harness.SustainedResult) {
	f := csvFile(dir, "fig3.csv")
	defer f.Close()
	if err := harness.WriteFig3CSV(f, results); err != nil {
		panic(err)
	}
}

func dumpFig4CSV(dir string, results []*harness.RandSeqResult) {
	f := csvFile(dir, "fig4.csv")
	defer f.Close()
	if err := harness.WriteFig4CSV(f, results); err != nil {
		panic(err)
	}
}

func dumpFig5CSV(dir string, results []*harness.MixedResult) {
	f := csvFile(dir, "fig5.csv")
	defer f.Close()
	if err := harness.WriteFig5CSV(f, results); err != nil {
		panic(err)
	}
}

func dumpBurstCSV(dir string, rep *scenario.BurstReport) {
	f := csvFile(dir, "burst_cells.csv")
	if err := scenario.WriteBurstCSV(f, rep); err != nil {
		panic(err)
	}
	f.Close()
	f = csvFile(dir, "burst_timeline.csv")
	defer f.Close()
	if err := scenario.WriteBurstTimelineCSV(f, rep); err != nil {
		panic(err)
	}
}

func dumpNeighborCSV(dir string, rep *scenario.NeighborReport) {
	f := csvFile(dir, "neighbor_cells.csv")
	defer f.Close()
	if err := scenario.WriteNeighborCSV(f, rep); err != nil {
		panic(err)
	}
}

func dumpIsolationCSV(dir string, rep *scenario.IsolationReport) {
	f := csvFile(dir, "isolation_comparison.csv")
	defer f.Close()
	if err := scenario.WriteIsolationCSV(f, rep); err != nil {
		panic(err)
	}
}

func dumpFleetCSV(dir string, rep *fleet.Report) {
	f := csvFile(dir, "fleet_backends.csv")
	if err := fleet.WriteBackendsCSV(f, rep); err != nil {
		panic(err)
	}
	f.Close()
	f = csvFile(dir, "fleet_tenants.csv")
	defer f.Close()
	if err := fleet.WriteTenantsCSV(f, rep); err != nil {
		panic(err)
	}
}

func dumpSLOCSV(dir, device string, rep *slo.Report) {
	f := csvFile(dir, fmt.Sprintf("slo_probes_%s.csv", device))
	defer f.Close()
	if err := slo.WriteProbesCSV(f, rep); err != nil {
		panic(err)
	}
}
