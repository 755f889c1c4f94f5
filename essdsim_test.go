package essdsim_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"essdsim"
)

// These tests exercise the public façade exactly as the examples and a
// downstream user would, without touching internal packages directly.

func TestPublicDeviceConstruction(t *testing.T) {
	eng := essdsim.NewEngine()
	e1 := essdsim.NewESSD1(eng, 1)
	if e1.Capacity() <= 0 || e1.BlockSize() != 4096 {
		t.Fatal("ESSD-1 identity")
	}
	e2 := essdsim.NewESSD2(essdsim.NewEngine(), 1)
	if !strings.Contains(e2.Name(), "PL3") {
		t.Fatalf("ESSD-2 name %q", e2.Name())
	}
	s := essdsim.NewLocalSSD(essdsim.NewEngine(), 1)
	if !strings.Contains(s.Name(), "970") {
		t.Fatalf("SSD name %q", s.Name())
	}
	for _, name := range essdsim.ProfileNames() {
		if _, err := essdsim.NewDevice(name, essdsim.NewEngine(), 1); err != nil {
			t.Fatalf("profile %q: %v", name, err)
		}
	}
	if _, err := essdsim.NewDevice("bogus", essdsim.NewEngine(), 1); err == nil {
		t.Fatal("bogus profile accepted")
	}
}

func TestPublicRunWorkload(t *testing.T) {
	eng := essdsim.NewEngine()
	dev := essdsim.NewESSD2(eng, 5)
	essdsim.Precondition(dev, true)
	res := essdsim.Run(dev, essdsim.Workload{
		Pattern:    essdsim.RandWrite,
		BlockSize:  4 << 10,
		QueueDepth: 4,
		MaxOps:     500,
		Seed:       5,
	})
	if res.Ops != 500 {
		t.Fatalf("ops = %d", res.Ops)
	}
	s := res.Lat.Summarize()
	if s.Mean <= 0 || s.P999 < s.Mean {
		t.Fatalf("summary %+v", s)
	}
	var buf bytes.Buffer
	essdsim.FormatWorkloadResult(&buf, res)
	if !strings.Contains(buf.String(), "iops") {
		t.Fatal("workload summary malformed")
	}
}

func TestPublicSubmitDirect(t *testing.T) {
	eng := essdsim.NewEngine()
	dev := essdsim.NewLocalSSD(eng, 2)
	var lat essdsim.Duration = -1
	dev.Submit(&essdsim.Request{
		Op:     essdsim.OpWrite,
		Offset: 0,
		Size:   4096,
		OnComplete: func(r *essdsim.Request, at essdsim.Time) {
			lat = r.Latency(at)
		},
	})
	eng.Run()
	if lat <= 0 || lat > 100*essdsim.Microsecond {
		t.Fatalf("buffered 4K write latency = %v", lat)
	}
}

func TestPublicFioJobs(t *testing.T) {
	jobs, err := essdsim.ParseFioJobs(strings.NewReader(`
[global]
bs=8k
iodepth=4

[probe]
rw=randread
number_ios=100
`))
	if err != nil {
		t.Fatal(err)
	}
	eng := essdsim.NewEngine()
	dev := essdsim.NewESSD1(eng, 3)
	essdsim.Precondition(dev, false)
	res := essdsim.Run(dev, jobs[0].Spec)
	if res.Ops != 100 {
		t.Fatalf("ops = %d", res.Ops)
	}
}

func TestPublicTraceRoundTrip(t *testing.T) {
	recs := []essdsim.TraceRecord{
		{At: 0, Op: essdsim.OpWrite, Offset: 0, Size: 8192},
		{At: essdsim.Duration(essdsim.Millisecond), Op: essdsim.OpRead, Offset: 0, Size: 4096},
	}
	var buf bytes.Buffer
	if err := essdsim.WriteTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	back, err := essdsim.ReadTrace(&buf)
	if err != nil || len(back) != 2 {
		t.Fatalf("read back: %v %d", err, len(back))
	}
	eng := essdsim.NewEngine()
	dev := essdsim.NewESSD2(eng, 4)
	essdsim.Precondition(dev, false)
	res := essdsim.ReplayTrace(dev, back)
	if res.Ops != 2 {
		t.Fatalf("replayed %d", res.Ops)
	}
}

func TestPublicObservation1EndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("public integration skipped in -short")
	}
	measure := func(mk func() essdsim.Device, bs int64, qd int) essdsim.Duration {
		dev := mk()
		essdsim.Precondition(dev, true)
		res := essdsim.Run(dev, essdsim.Workload{
			Pattern: essdsim.RandWrite, BlockSize: bs, QueueDepth: qd,
			Duration: 200 * essdsim.Millisecond, Warmup: 40 * essdsim.Millisecond, Seed: 6,
		})
		return res.Lat.Summarize().Mean
	}
	essd := func() essdsim.Device { return essdsim.NewESSD1(essdsim.NewEngine(), 6) }
	ssd := func() essdsim.Device { return essdsim.NewLocalSSD(essdsim.NewEngine(), 6) }
	gapSmall := float64(measure(essd, 4<<10, 1)) / float64(measure(ssd, 4<<10, 1))
	gapBig := float64(measure(essd, 256<<10, 16)) / float64(measure(ssd, 256<<10, 16))
	if gapSmall < 10 {
		t.Errorf("small-I/O gap %.1fx, want tens of times", gapSmall)
	}
	if gapBig > gapSmall/4 {
		t.Errorf("scaling did not shrink the gap: %.1fx -> %.1fx", gapSmall, gapBig)
	}
}

// TestPublicSweepAPI declares a small grid through the public Sweep façade
// and checks parallel execution yields deterministic, correctly ordered
// results — the way examples/patternadvisor and essdbench's sweep mode
// consume it.
func TestPublicSweepAPI(t *testing.T) {
	sweep := essdsim.Sweep{
		Devices: essdsim.ProfileDevices("essd1"),
		Kind: essdsim.SweepClosed{
			Patterns:     []essdsim.Pattern{essdsim.RandWrite, essdsim.SeqWrite},
			BlockSizes:   []int64{16 << 10},
			QueueDepths:  []int{1, 8},
			CellDuration: 80 * essdsim.Millisecond,
			Warmup:       15 * essdsim.Millisecond,
			Precondition: essdsim.PrecondWrites,
		},
		Seed: 21,
	}
	serial, err := essdsim.RunSweep(context.Background(), sweep, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := essdsim.RunSweep(context.Background(), sweep, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 4 || len(parallel) != 4 {
		t.Fatalf("cells: %d serial, %d parallel", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Cell != parallel[i].Cell ||
			serial[i].Res.Lat.Summarize() != parallel[i].Res.Lat.Summarize() {
			t.Fatalf("cell %d differs between 1 and 4 workers", i)
		}
	}
	// QD8 must outrun QD1 for the same pattern on an ESSD.
	if serial[1].Res.Throughput() <= serial[0].Res.Throughput() {
		t.Error("QD8 random write no faster than QD1")
	}
}

// TestPublicOpenLoopAndBurst exercises the open-loop façade: RunOpen on a
// single device, an open-loop sweep kind, and the burst-credit scenario.
func TestPublicOpenLoopAndBurst(t *testing.T) {
	eng := essdsim.NewEngine()
	dev, err := essdsim.NewDevice("gp2", eng, 3)
	if err != nil {
		t.Fatal(err)
	}
	essdsim.Precondition(dev, true)
	res := essdsim.RunOpen(dev, essdsim.OpenWorkload{
		Pattern:    essdsim.RandWrite,
		BlockSize:  64 << 10,
		RatePerSec: 2000,
		Arrival:    essdsim.ArrivalBursty,
		Count:      400,
		Seed:       3,
	})
	if res.Ops != 400 || res.MaxOutstanding < 2 {
		t.Fatalf("open loop: ops=%d peak=%d", res.Ops, res.MaxOutstanding)
	}

	sweep := essdsim.Sweep{
		Devices: essdsim.ProfileDevices("gp2"),
		Kind: essdsim.SweepOpen{
			Patterns:    []essdsim.Pattern{essdsim.RandWrite},
			BlockSizes:  []int64{64 << 10},
			Arrivals:    []essdsim.Arrival{essdsim.ArrivalUniform, essdsim.ArrivalBursty},
			RatesPerSec: []float64{2000},
			Ops:         300,
		},
		Seed: 4,
	}
	cells, err := essdsim.RunSweep(context.Background(), sweep, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 || cells[0].Open == nil {
		t.Fatalf("open sweep cells: %+v", cells)
	}
	// Bursty arrivals at the same offered rate must queue deeper.
	if cells[1].Open.MaxOutstanding <= cells[0].Open.MaxOutstanding {
		t.Errorf("bursty peak %d not above uniform %d",
			cells[1].Open.MaxOutstanding, cells[0].Open.MaxOutstanding)
	}

	rep, err := essdsim.RunBurstScenario(context.Background(), essdsim.BurstSweep{
		WriteRatiosPct: []int{100},
		Arrivals:       []essdsim.Arrival{essdsim.ArrivalUniform},
		RatesPerSec:    []float64{3000},
		Ops:            300,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 { // both default burstable tiers
		t.Fatalf("burst cells = %d", len(rep.Cells))
	}
	var buf bytes.Buffer
	essdsim.FormatBurstReport(&buf, rep)
	if !strings.Contains(buf.String(), "gp2s") {
		t.Errorf("report missing device name:\n%s", buf.String())
	}
}
