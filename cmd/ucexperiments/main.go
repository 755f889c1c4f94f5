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
// Comma-list flags (-kv-engines, -kv-skews, -kv-value-sizes, -kv-tiers,
// -fleet-policy) reject an empty item ("0,,0.99" or a trailing comma) with
// the flag named rather than dropping it. Every error, including an -out
// directory that cannot be created or written, prints one
// "ucexperiments: ..." line to stderr and exits with status 1.
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
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"essdsim/internal/blockdev"
	"essdsim/internal/churn"
	"essdsim/internal/cli"
	"essdsim/internal/expgrid"
	"essdsim/internal/fleet"
	"essdsim/internal/harness"
	"essdsim/internal/obs"
	"essdsim/internal/profiles"
	"essdsim/internal/scenario"
	"essdsim/internal/sim"
	"essdsim/internal/slo"
	"essdsim/internal/workload"
)

func factory(name string, seed uint64) harness.Factory {
	return func(s uint64) blockdev.Device {
		d, err := profiles.ByName(name, sim.NewEngine(), sim.NewRNG(seed^s, s+0x9))
		if err != nil {
			panic(err)
		}
		return d
	}
}

// fig3CapMultiple is how many device capacities Figure 3 writes: the
// paper's 3x, or 1.5x for a -quick pass.
func fig3CapMultiple(quick bool) float64 {
	if quick {
		return 1.5
	}
	return 3
}

func main() {
	fl := cli.Register("ucexperiments", 7)
	var (
		exp         = flag.String("exp", "all", "table1, fig2, fig3, fig4, fig5, burst, slo, neighbor, isolation, fleet, churn, kv, or all")
		quick       = flag.Bool("quick", false, "reduced grids for a fast pass")
		out         = flag.String("out", "", "directory for raw CSV dumps (optional)")
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
		victimWt    = flag.Float64("victim-weight", 0, "-exp neighbor victim scheduling weight under wfq/reservation (0 = default 1)")
		victimResv  = flag.Float64("victim-reserved-bps", 0, "-exp neighbor victim reserved bytes/s under -isolation reservation (0 = 2x victim offered)")
		kvEngines   = flag.String("kv-engines", "lsm,pagestore", "-exp kv storage-engine designs (comma list of lsm, pagestore)")
		kvSkews     = flag.String("kv-skews", "0,0.99", "-exp kv zipfian key skews in [0,1) (comma list)")
		kvValSizes  = flag.String("kv-value-sizes", "1024", "-exp kv put value sizes in bytes (comma list)")
		kvTiers     = flag.String("kv-tiers", "essd1", "-exp kv backend tier profiles (comma list of essd1, essd2, gp3, gp2, gp2s, pl1)")
		kvTenants   = flag.Int("kv-tenants", 3, "-exp kv tenants sharing each cell's backend")
		kvRate      = flag.Float64("kv-rate", 4000, "-exp kv per-tenant offered op rate")
		kvReadFrac  = flag.Int("kv-read-frac", 50, "-exp kv percentage of ops that are point reads (-1 = pure ingest)")
		explain     = flag.Bool("explain", false, "-exp neighbor: print the per-cell cliff-attribution report")
	)
	fl.Parse()
	obsWanted := fl.Capturing() || *explain
	if obsWanted && !(*exp == "all" || *exp == "neighbor") {
		fl.Fatal(fmt.Errorf("-trace-out/-probe-out/-explain apply to -exp neighbor, not -exp %s", *exp))
	}

	// dump writes one -out CSV file through write; it does nothing
	// without -out.
	dump := func(name string, write func(io.Writer) error) {
		if *out == "" {
			return
		}
		err := os.MkdirAll(*out, 0o755)
		if err == nil {
			err = cli.WriteFile(filepath.Join(*out, name), write)
		}
		if err != nil {
			fl.Fatal(fmt.Errorf("-out: %w", err))
		}
	}

	dumpFleet := func(rep *fleet.Report) {
		dump("fleet_backends.csv", func(w io.Writer) error { return fleet.WriteBackendsCSV(w, rep) })
		dump("fleet_tenants.csv", func(w io.Writer) error { return fleet.WriteTenantsCSV(w, rep) })
	}

	opts := harness.Options{Seed: fl.Seed, Workers: fl.Workers}
	if *quick {
		opts.CellDuration = 150 * sim.Millisecond
		opts.Warmup = 30 * sim.Millisecond
	}
	essd1 := factory("essd1", fl.Seed)
	essd2 := factory("essd2", fl.Seed)
	ssd := factory("ssd", fl.Seed)

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
			dump(fmt.Sprintf("fig2_essd%d.csv", i+1), func(w io.Writer) error { return harness.WriteFig2CSV(w, grid, ssdGrid) })
		}
	}
	if want("fig3") {
		ran = true
		mult := fig3CapMultiple(*quick)
		results := harness.RunSustainedWrites([]expgrid.NamedFactory{
			{Name: "essd1", New: essd1},
			{Name: "essd2", New: essd2},
			{Name: "ssd", New: ssd},
		}, mult, opts)
		harness.FormatFig3(os.Stdout, mult, results)
		fmt.Println()
		dump("fig3.csv", func(w io.Writer) error { return harness.WriteFig3CSV(w, results) })
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
		dump("fig4.csv", func(w io.Writer) error { return harness.WriteFig4CSV(w, results) })
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
		dump("fig5.csv", func(w io.Writer) error { return harness.WriteFig5CSV(w, results) })
	}
	if want("burst") {
		ran = true
		sweep := scenario.BurstSweep{
			Devices: []expgrid.NamedFactory{
				{Name: "gp2", New: factory("gp2", fl.Seed)},
				{Name: "gp2s", New: factory("gp2s", fl.Seed)},
			},
			Cache:      fl.Cache,
			Seed:       fl.Seed,
			Workers:    fl.Workers,
			OnProgress: fl.Progress("burst"),
		}
		if *quick {
			sweep.WriteRatiosPct = []int{0, 50, 100}
			sweep.RatesPerSec = []float64{3000}
			sweep.Ops = 3000
		}
		rep, err := scenario.RunBurst(context.Background(), sweep)
		if err != nil {
			fl.Fatal(err)
		}
		fmt.Println("--- Burst-credit scenario (Observation #4, burstable tiers) ---")
		scenario.FormatBurst(os.Stdout, rep)
		fl.Skipped("burst: ", rep.CachedCells, len(rep.Cells))
		fmt.Println()
		dump("burst_cells.csv", func(w io.Writer) error { return scenario.WriteBurstCSV(w, rep) })
		dump("burst_timeline.csv", func(w io.Writer) error { return scenario.WriteBurstTimelineCSV(w, rep) })
	}
	if want("neighbor") {
		ran = true
		arr, err := workload.ParseArrival(*aggrArrival)
		if err != nil || arr == workload.Uniform {
			fl.Fatal(fmt.Errorf("-aggr-arrival wants bursty or poisson, got %q", *aggrArrival))
		}
		sweep := scenario.NeighborSweep{
			AggressorArrival:   arr,
			Cache:              fl.Cache,
			Seed:               fl.Seed,
			Workers:            fl.Workers,
			Isolation:          fl.Isolation,
			VictimWeight:       *victimWt,
			VictimReservedRate: *victimResv,
			OnProgress:         fl.Progress("neighbor"),
		}
		if obsWanted {
			sweep.Obs = &fl.Obs
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
			recs, err := cli.ReadTrace(*aggrTrace, *aggrTraceF)
			if err != nil {
				fl.Fatal(err)
			}
			vcfg := profiles.NeighborVolumeConfig("aggr")
			d, err := fleet.DemandFromTrace("aggr", recs, vcfg.Capacity, vcfg.BlockSize)
			if err != nil {
				fl.Fatal(fmt.Errorf("-aggr-trace %s: %w", *aggrTrace, err))
			}
			sweep.AggressorRatesPerSec = []float64{d.RatePerSec}
			sweep.AggressorWriteRatiosPct = []int{d.WriteRatioPct}
			sweep.AggressorBlockSize = d.BlockSize
			fmt.Printf("neighbor aggressors fitted from %s: %.0f req/s, %d%% writes, %d-byte requests (%d records)\n",
				*aggrTrace, d.RatePerSec, d.WriteRatioPct, d.BlockSize, len(recs))
		}
		rep, err := scenario.RunNeighbor(context.Background(), sweep)
		if err != nil {
			fl.Fatal(err)
		}
		fmt.Println("--- Noisy-neighbor scenario (shared backend, cross-tenant contract) ---")
		scenario.FormatNeighbor(os.Stdout, rep)
		fl.Skipped("neighbor: ", rep.CachedCells, len(rep.Cells))
		if *explain {
			obs.FormatExplanations(os.Stdout, rep.Explanations)
		}
		if err := fl.WriteObs(rep.Captures...); err != nil {
			fl.Fatal(err)
		}
		fmt.Println()
		dump("neighbor_cells.csv", func(w io.Writer) error { return scenario.WriteNeighborCSV(w, rep) })
	}
	if want("isolation") {
		ran = true
		comparison := scenario.IsolationComparison{Sweep: scenario.NeighborSweep{
			Cache:              fl.Cache,
			Seed:               fl.Seed,
			Workers:            fl.Workers,
			VictimWeight:       *victimWt,
			VictimReservedRate: *victimResv,
			OnProgress:         fl.Progress("isolation"),
		}}
		if *quick {
			comparison.Sweep.AggressorCounts = []int{0, 2, 4}
			comparison.Sweep.AggressorRatesPerSec = []float64{1600}
			comparison.Sweep.VictimOps = 1200
		}
		rep, err := scenario.RunIsolationComparison(context.Background(), comparison)
		if err != nil {
			fl.Fatal(err)
		}
		fmt.Println("--- QoS isolation comparison (per-tenant scheduling on the shared backend) ---")
		scenario.FormatIsolation(os.Stdout, rep)
		cells := 0
		for _, v := range rep.Variants {
			cells += len(v.Report.Cells)
		}
		fl.Skipped("isolation: ", rep.CachedCells, cells)
		fmt.Println()
		dump("isolation_comparison.csv", func(w io.Writer) error { return scenario.WriteIsolationCSV(w, rep) })
	}
	if want("fleet") {
		ran = true
		tenants, aggressors := *fleetTen, *fleetAggr
		if *quick {
			tenants, aggressors = 8, 2
		}
		policies, err := parseFleetPolicies(*fleetPolicy)
		if err != nil {
			fl.Fatal(err)
		}
		spec := fleet.Spec{
			Demands:  fleet.SyntheticDemands(tenants, aggressors),
			Policies: policies,
			Backends: *fleetBack,
			SLOP999:  sim.Duration(fleetP999.Nanoseconds()),
			Cache:    fl.Cache,
			Seed:     fl.Seed,
			Workers:  fl.Workers,
		}
		spec.Backend.Isolation = fl.Isolation
		if *fleetScreen {
			srep, err := fleet.Screen(context.Background(), fleet.ScreenSpec{
				Spec:       spec,
				Candidates: *fleetCands,
			})
			if err != nil {
				fl.Fatal(err)
			}
			fmt.Println("--- Fleet tenant packing (two-fidelity analytic screen) ---")
			fleet.FormatScreen(os.Stdout, srep)
			fmt.Println()
			if srep.Simulated != nil {
				dumpFleet(srep.Simulated)
			}
		} else {
			rep, err := fleet.Run(context.Background(), spec)
			if err != nil {
				fl.Fatal(err)
			}
			fmt.Println("--- Fleet tenant packing (placement policies over shared backends) ---")
			fleet.Format(os.Stdout, rep)
			fl.Skipped("fleet: ", rep.CachedCells, rep.Cells)
			fmt.Println()
			dumpFleet(rep)
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
			fl.Fatal(err)
		}
		rb, err := churn.RebalancerByName(*rebalance)
		if err != nil {
			fl.Fatal(err)
		}
		spec := churn.Spec{
			Fleet: fleet.Spec{
				Demands:  fleet.SyntheticDemands(tenants, aggressors),
				Policies: policies,
				Backends: *fleetBack,
				SLOP999:  sim.Duration(fleetP999.Nanoseconds()),
				Cache:    fl.Cache,
				Seed:     fl.Seed,
				Workers:  fl.Workers,
			},
			Epochs:     epochs,
			ChurnRate:  *churnRate,
			Rebalancer: rb,
		}
		spec.Fleet.Backend.Isolation = fl.Isolation
		if *quick {
			spec.Fleet.Horizon = 500 * sim.Millisecond
		}
		rep, err := churn.Run(context.Background(), spec)
		if err != nil {
			fl.Fatal(err)
		}
		fmt.Println("--- Fleet churn (lifecycle events, online placement, rebalancing) ---")
		churn.Format(os.Stdout, rep)
		fl.Skipped("churn: ", rep.CachedCells, rep.Cells)
		fmt.Println()
		dump("fleet_churn_epochs.csv", func(w io.Writer) error { return churn.WriteEpochsCSV(w, rep) })
		dump("fleet_churn_events.csv", func(w io.Writer) error { return churn.WriteEventsCSV(w, rep) })
	}
	if want("kv") {
		ran = true
		engines, err1 := cli.Strings("kv-engines", *kvEngines)
		skews, err2 := cli.List("kv-skews", *kvSkews, func(s string) (float64, error) { return strconv.ParseFloat(s, 64) })
		valSizes, err3 := cli.List("kv-value-sizes", *kvValSizes, func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) })
		tiers, err4 := cli.Strings("kv-tiers", *kvTiers)
		if err := cmp.Or(err1, err2, err3, err4); err != nil {
			fl.Fatal(err)
		}
		sweep := scenario.KVMixSweep{
			Engines:     engines,
			Skews:       skews,
			ValueSizes:  valSizes,
			Tiers:       tiers,
			Tenants:     *kvTenants,
			RatePerSec:  *kvRate,
			ReadFracPct: *kvReadFrac,
			Cache:       fl.Cache,
			Seed:        fl.Seed,
			Workers:     fl.Workers,
			OnProgress:  fl.Progress("kv"),
		}
		if *quick {
			sweep.Tenants = 2
			sweep.OpsPerTenant = 600
		}
		rep, err := scenario.RunKVMix(context.Background(), sweep)
		if err != nil {
			fl.Fatal(err)
		}
		fmt.Println("--- KV tenant mix (storage engines on shared elastic volumes) ---")
		scenario.FormatKVMix(os.Stdout, rep)
		fl.Skipped("kv: ", rep.CachedCells, len(rep.Cells))
		fmt.Println()
		dump("kv_cells.csv", func(w io.Writer) error { return scenario.WriteKVCSV(w, rep) })
	}
	if want("slo") {
		ran = true
		fmt.Println("--- Latency-SLO search (highest rate meeting the target) ---")
		for _, name := range []string{"gp2", "gp2s"} {
			search := slo.Search{
				Device:  expgrid.NamedFactory{Name: name, New: factory(name, fl.Seed)},
				Pattern: workload.RandWrite,
				Target:  slo.Target{P99: sim.Duration(sloP99.Nanoseconds())},
				Cache:   fl.Cache,
				Seed:    fl.Seed,
			}
			if *quick {
				search.MaxRate = 3000
				search.Tolerance = 100
				search.Horizon = 3 * sim.Second
			}
			rep, err := slo.Run(context.Background(), search)
			if err != nil {
				fl.Fatal(err)
			}
			slo.Format(os.Stdout, rep)
			fmt.Println()
			dump(fmt.Sprintf("slo_probes_%s.csv", name), func(w io.Writer) error { return slo.WriteProbesCSV(w, rep) })
		}
	}
	if !ran {
		fl.Fatal(fmt.Errorf("unknown -exp %q", *exp))
	}
	fl.Close()
	if fl.Cache != nil {
		hits, misses := fl.Cache.Stats()
		fmt.Printf("sweep cache: %d entries, %d hits, %d cells simulated (%s)\n",
			fl.Cache.Len(), hits, misses, fl.CacheFile)
	}
}

// parseFleetPolicies maps the -fleet-policy flag to placement policies.
func parseFleetPolicies(s string) ([]fleet.PlacementPolicy, error) {
	if s == "all" || s == "" {
		return fleet.DefaultPolicies(), nil
	}
	return cli.List("fleet-policy", s, fleet.PolicyByName)
}
