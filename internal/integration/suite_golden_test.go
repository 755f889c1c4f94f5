package integration

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/expgrid"
	"essdsim/internal/harness"
	"essdsim/internal/profiles"
	"essdsim/internal/scenario"
	"essdsim/internal/sim"
	"essdsim/internal/slo"
	"essdsim/internal/trace"
	"essdsim/internal/workload"
)

// The goldens below pin the CSV output of each expgrid kind's suites at
// the settings of "ucexperiments -exp <suite> -quick" (seed 7), plus a
// closed-loop grid through the local-SSD path and a fitted MSR trace
// replay. A refactor of the sweep machinery must leave every byte alone;
// rerun with -update only for an intended output change.

// quickSeed is the ucexperiments default seed.
const quickSeed = 7

// cliFactory builds a device the way ucexperiments does: a fresh engine
// and an RNG derived from the root seed and the cell seed.
func cliFactory(name string) expgrid.NamedFactory {
	return expgrid.NamedFactory{Name: name, New: func(s uint64) blockdev.Device {
		d, err := profiles.ByName(name, sim.NewEngine(), sim.NewRNG(quickSeed^s, s+0x9))
		if err != nil {
			panic(err)
		}
		return d
	}}
}

// TestBurstQuickGolden pins "ucexperiments -exp burst -quick": the
// open-loop burst-credit suite on gp2 and gp2s.
func TestBurstQuickGolden(t *testing.T) {
	rep, err := scenario.RunBurst(context.Background(), scenario.BurstSweep{
		Devices:        []expgrid.NamedFactory{cliFactory("gp2"), cliFactory("gp2s")},
		WriteRatiosPct: []int{0, 50, 100},
		RatesPerSec:    []float64{3000},
		Ops:            3000,
		Seed:           quickSeed,
		Workers:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := scenario.WriteBurstCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "burst_quick_golden.csv", buf.Bytes())
}

// TestSLOQuickGolden pins "ucexperiments -exp slo -quick": the probe
// tables of the latency-SLO search on gp2 and gp2s, one after the other.
func TestSLOQuickGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, name := range []string{"gp2", "gp2s"} {
		rep, err := slo.Run(context.Background(), slo.Search{
			Device:    cliFactory(name),
			Pattern:   workload.RandWrite,
			Target:    slo.Target{P99: 20 * sim.Millisecond},
			MaxRate:   3000,
			Tolerance: 100,
			Horizon:   3 * sim.Second,
			Seed:      quickSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := slo.WriteProbesCSV(&buf, rep); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "slo_quick_golden.csv", buf.Bytes())
}

// TestKVQuickGolden pins "ucexperiments -exp kv -quick": LSM and page
// store tenants at uniform and zipfian skew on essd1.
func TestKVQuickGolden(t *testing.T) {
	rep, err := scenario.RunKVMix(context.Background(), scenario.KVMixSweep{
		Engines:      []string{"lsm", "pagestore"},
		Skews:        []float64{0, 0.99},
		ValueSizes:   []int64{1024},
		Tiers:        []string{"essd1"},
		Tenants:      2,
		RatePerSec:   4000,
		ReadFracPct:  50,
		OpsPerTenant: 600,
		Seed:         quickSeed,
		Workers:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := scenario.WriteKVCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "kv_quick_golden.csv", buf.Bytes())
}

// TestClosedGridGolden pins a small Figure 2 latency grid on essd1 and
// the local SSD: the one closed-loop path through the ftl and flash
// models.
func TestClosedGridGolden(t *testing.T) {
	opts := harness.Options{
		CellDuration: 60 * sim.Millisecond,
		Warmup:       10 * sim.Millisecond,
		Seed:         quickSeed,
		Workers:      2,
	}
	patterns := []workload.Pattern{workload.RandWrite, workload.SeqRead}
	sizes, qds := []int64{4 << 10, 64 << 10}, []int{1, 8}
	essd := harness.RunLatencyGridWith(cliFactory("essd1").New, patterns, sizes, qds, opts)
	ssd := harness.RunLatencyGridWith(cliFactory("ssd").New, patterns, sizes, qds, opts)
	var buf bytes.Buffer
	if err := harness.WriteFig2CSV(&buf, essd, ssd); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "closed_grid_golden.csv", buf.Bytes())
}

// msrTrace is the two-record MSR-Cambridge trace the CI smoke replays.
const msrTrace = "128166372003061629,src1,0,Write,8192,16384,1331\n" +
	"128166372003061639,src1,0,Read,1048576000,4096,551\n"

// TestTraceReplayGolden pins a fitted MSR trace replay on essd1 and
// essd2, with the sweep shape essdbench -trace builds.
func TestTraceReplayGolden(t *testing.T) {
	recs, err := trace.ParseMSR(strings.NewReader(msrTrace))
	if err != nil {
		t.Fatal(err)
	}
	sw := expgrid.Sweep{
		Devices: []expgrid.NamedFactory{cliFactory("essd1"), cliFactory("essd2")},
		Kind:    expgrid.Replay{Trace: recs, Fit: true},
		Seed:    1,
		Label:   "essdbench-trace",
	}
	results, err := expgrid.Runner{Workers: 2}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "device,ops,bytes,elapsed_ns,nominal_ns,lag_ns,max_outstanding,stretch,p50_ns,p999_ns,max_ns")
	for _, r := range results {
		rp := r.Replay
		s := rp.Lat.Summarize()
		fmt.Fprintf(&buf, "%s,%d,%d,%d,%d,%d,%d,%g,%d,%d,%d\n", r.Device, rp.Ops, rp.Bytes,
			rp.Elapsed, rp.Nominal, rp.Lag, rp.MaxOutstanding, rp.Stretch, s.P50, s.P999, s.Max)
	}
	checkGolden(t, "trace_replay_golden.csv", buf.Bytes())
}
