package expgrid

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/essd"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
	"essdsim/internal/trace"
	"essdsim/internal/workload"
)

func essd1Factory(seed uint64) blockdev.Device {
	d, err := profiles.ByName("essd1", sim.NewEngine(), sim.NewRNG(seed, seed^0xaa))
	if err != nil {
		panic(err)
	}
	return d
}

func ssdFactory(seed uint64) blockdev.Device {
	d, err := profiles.ByName("ssd", sim.NewEngine(), sim.NewRNG(seed, seed^0xbb))
	if err != nil {
		panic(err)
	}
	return d
}

// quickKind is quickSweep's 2-pattern × 2-size × 2-QD closed-loop grid.
func quickKind() Closed {
	return Closed{
		Patterns:     []workload.Pattern{workload.RandWrite, workload.RandRead},
		BlockSizes:   []int64{4 << 10, 64 << 10},
		QueueDepths:  []int{1, 8},
		CellDuration: 60 * sim.Millisecond,
		Warmup:       10 * sim.Millisecond,
	}
}

// quickSweep is a 2-device × 2-pattern × 2-size × 2-QD grid (16 cells)
// small enough for -short runs.
func quickSweep() Sweep {
	return Sweep{
		Devices: []NamedFactory{
			{Name: "essd1", New: essd1Factory},
			{Name: "ssd", New: ssdFactory},
		},
		Kind:  quickKind(),
		Seed:  7,
		Label: "test",
	}
}

func TestEnumerationOrder(t *testing.T) {
	cells := quickSweep().Cells()
	if len(cells) != 16 {
		t.Fatalf("cells = %d, want 16", len(cells))
	}
	// Row-major: device outermost, QD innermost; indices sequential.
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
		if c.WriteRatioPct != -1 {
			t.Fatalf("cell %d has ratio %d without a ratio axis", i, c.WriteRatioPct)
		}
	}
	if cells[0].DeviceName != "essd1" || cells[8].DeviceName != "ssd" {
		t.Fatalf("device axis not outermost: %q then %q", cells[0].DeviceName, cells[8].DeviceName)
	}
	if cells[0].QueueDepth != 1 || cells[1].QueueDepth != 8 {
		t.Fatalf("queue depth not innermost: %d then %d", cells[0].QueueDepth, cells[1].QueueDepth)
	}
	if cells[0].Pattern != workload.RandWrite || cells[4].Pattern != workload.RandRead {
		t.Fatal("pattern order wrong")
	}
}

func TestSeedStableUnderSubsetting(t *testing.T) {
	full := quickSweep()
	seeds := map[[4]int64]uint64{}
	for _, c := range full.Cells() {
		key := [4]int64{int64(c.DeviceIndex), int64(c.Pattern), c.BlockSize, int64(c.QueueDepth)}
		seeds[key] = c.Seed
	}
	// Subset and reorder every axis: surviving cells must keep their seeds.
	sub := full
	sub.Devices = []NamedFactory{{Name: "ssd", New: ssdFactory}, {Name: "essd1", New: essd1Factory}}
	k := quickKind()
	k.Patterns = []workload.Pattern{workload.RandRead}
	k.BlockSizes = []int64{64 << 10}
	k.QueueDepths = []int{8, 1}
	sub.Kind = k
	for _, c := range sub.Cells() {
		dev := int64(0) // essd1's index in the full sweep
		if c.DeviceName == "ssd" {
			dev = 1
		}
		key := [4]int64{dev, int64(c.Pattern), c.BlockSize, int64(c.QueueDepth)}
		want, ok := seeds[key]
		if !ok {
			t.Fatalf("cell %+v not present in full sweep", c)
		}
		if c.Seed != want {
			t.Errorf("cell %s/%s/bs=%d/qd=%d seed changed under subsetting: %x != %x",
				c.DeviceName, c.Pattern, c.BlockSize, c.QueueDepth, c.Seed, want)
		}
	}
	// Distinct coordinates must get distinct seeds.
	seen := map[uint64]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatal("seed collision across coordinates")
		}
		seen[s] = true
	}
	// Label and root seed must both decorrelate.
	relabeled := full
	relabeled.Label = "other"
	if relabeled.Cells()[0].Seed == full.Cells()[0].Seed {
		t.Error("label does not decorrelate seeds")
	}
	reseeded := full
	reseeded.Seed++
	if reseeded.Cells()[0].Seed == full.Cells()[0].Seed {
		t.Error("root seed does not decorrelate seeds")
	}
}

// projection is the comparable content of a CellResult.
type projection struct {
	Cell    Cell
	Device  string
	Summary stats.Summary
	Ops     uint64
	Bytes   int64
}

func project(results []CellResult) []projection {
	out := make([]projection, len(results))
	for i, r := range results {
		out[i] = projection{
			Cell: r.Cell, Device: r.Device,
			Summary: r.Res.Lat.Summarize(), Ops: r.Res.Ops, Bytes: r.Res.Bytes,
		}
	}
	return out
}

// TestParallelDeterminism is the contract of the whole subsystem: the same
// sweep run with 1 worker and with 8 workers yields identical results —
// same cells, same latencies, same order.
func TestParallelDeterminism(t *testing.T) {
	sw := quickSweep()
	serial, err := Runner{Workers: 1}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Workers: 8}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 16 || len(parallel) != 16 {
		t.Fatalf("result counts: %d serial, %d parallel", len(serial), len(parallel))
	}
	ps, pp := project(serial), project(parallel)
	for i := range ps {
		if !reflect.DeepEqual(ps[i], pp[i]) {
			t.Fatalf("cell %d differs between 1 and 8 workers:\nserial:   %+v\nparallel: %+v",
				i, ps[i], pp[i])
		}
	}
}

func TestStreamOrderAndProgress(t *testing.T) {
	sw := quickSweep()
	var progress []int
	r := Runner{Workers: 4, OnProgress: func(p Progress) {
		if p.Total != 16 {
			t.Errorf("progress total = %d", p.Total)
		}
		progress = append(progress, p.Done)
	}}
	stream, errf := r.Stream(context.Background(), sw)
	next := 0
	for res := range stream {
		if res.Index != next {
			t.Fatalf("stream out of order: got cell %d, want %d", res.Index, next)
		}
		next++
	}
	if err := errf(); err != nil {
		t.Fatal(err)
	}
	if next != 16 {
		t.Fatalf("streamed %d cells", next)
	}
	if len(progress) != 16 || progress[15] != 16 {
		t.Fatalf("progress calls = %v", progress)
	}
	for i := 1; i < len(progress); i++ {
		if progress[i] != progress[i-1]+1 {
			t.Fatalf("progress not monotone: %v", progress)
		}
	}
}

func TestCancellation(t *testing.T) {
	sw := quickSweep()
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	r := Runner{Workers: 2, OnProgress: func(p Progress) {
		if p.Done == 2 {
			cancel()
		}
		n++
	}}
	results, err := r.Run(ctx, sw)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) >= 16 {
		t.Fatalf("cancellation did not stop the sweep: %d results", len(results))
	}
	if n >= 16 {
		t.Fatalf("cancellation did not stop the workers: %d cells ran", n)
	}
}

func TestCellErrorStopsSweep(t *testing.T) {
	sw := quickSweep()
	k := quickKind()
	k.BlockSizes = []int64{100} // not a multiple of the device block size
	sw.Kind = k
	results, err := Runner{Workers: 2}.Run(context.Background(), sw)
	if err == nil {
		t.Fatal("invalid spec did not error")
	}
	if !strings.Contains(err.Error(), "expgrid: cell") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if len(results) != 0 {
		t.Fatalf("failed sweep emitted %d results", len(results))
	}
}

func TestValidate(t *testing.T) {
	var sw Sweep
	if err := sw.Validate(); err == nil {
		t.Fatal("empty sweep validated")
	}
	if _, err := (Runner{}).Run(context.Background(), sw); err == nil {
		t.Fatal("running an empty sweep did not error")
	}
	sw = quickSweep()
	if err := sw.Validate(); err != nil {
		t.Fatal(err)
	}
	sw.Devices[0].New = nil
	if err := sw.Validate(); err == nil {
		t.Fatal("nil factory validated")
	}
	sw = quickSweep()
	sw.Kind = nil
	if err := sw.Validate(); err == nil {
		t.Fatal("sweep without a kind validated")
	}
	if len(sw.Cells()) != 0 || sw.Fingerprint() != 0 {
		t.Fatal("sweep without a kind has cells or a fingerprint")
	}
}

// TestValidateAxisValues asserts that bad axis entries fail validation
// with the axis named, instead of flowing into cell construction and
// dying mid-sweep (or silently: a negative closed-loop queue depth used
// to reach workload.Run unchecked).
func TestValidateAxisValues(t *testing.T) {
	for name, mutate := range map[string]func(*Closed){
		"zero block size":           func(k *Closed) { k.BlockSizes = []int64{4 << 10, 0} },
		"negative block size":       func(k *Closed) { k.BlockSizes = []int64{-4096} },
		"zero queue depth":          func(k *Closed) { k.QueueDepths = []int{0} },
		"negative depth":            func(k *Closed) { k.QueueDepths = []int{1, -2} },
		"ratio above 100":           func(k *Closed) { k.WriteRatiosPct = []int{50, 101} },
		"ratio below -1":            func(k *Closed) { k.WriteRatiosPct = []int{-2} },
		"warmup past runtime":       func(k *Closed) { k.CellDuration, k.Warmup = 50*sim.Millisecond, 100*sim.Millisecond },
		"warmup is default runtime": func(k *Closed) { k.CellDuration, k.Warmup = 0, 500*sim.Millisecond },
	} {
		k := quickKind()
		mutate(&k)
		s := quickSweep()
		s.Kind = k
		if err := s.Validate(); err == nil {
			t.Errorf("%s: sweep accepted", name)
		}
		if _, err := (Runner{}).Run(context.Background(), s); err == nil {
			t.Errorf("%s: runner accepted the sweep", name)
		}
	}
	// The documented -1 sentinel stays valid.
	k := quickKind()
	k.WriteRatiosPct = []int{-1, 0, 100}
	ok := quickSweep()
	ok.Kind = k
	if err := ok.Validate(); err != nil {
		t.Fatalf("sentinel ratio rejected: %v", err)
	}
	// Open sweeps share the block-size check.
	open := Sweep{
		Devices: Devices("essd1", essd1Factory),
		Kind: Open{
			Patterns:    []workload.Pattern{workload.RandWrite},
			BlockSizes:  []int64{0},
			Arrivals:    []workload.Arrival{workload.Uniform},
			RatesPerSec: []float64{100},
		},
	}
	if err := open.Validate(); err == nil {
		t.Error("open sweep accepted a zero block size")
	}
}

func TestWriteRatioAxisAndPrecond(t *testing.T) {
	sw := Sweep{
		Devices: Devices("essd1", essd1Factory),
		Kind: Closed{
			Patterns:       []workload.Pattern{workload.Mixed},
			BlockSizes:     []int64{128 << 10},
			QueueDepths:    []int{8},
			WriteRatiosPct: []int{0, 100},
			CellDuration:   60 * sim.Millisecond,
			Warmup:         10 * sim.Millisecond,
			Precondition:   PrecondFull,
		},
		Seed: 3,
	}
	results, err := Runner{}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	if results[0].WriteRatioPct != 0 || results[1].WriteRatioPct != 100 {
		t.Fatalf("ratio axis order wrong: %d, %d",
			results[0].WriteRatioPct, results[1].WriteRatioPct)
	}
	if results[0].Res.WriteLat.Count() != 0 {
		t.Error("0% write-ratio cell recorded writes")
	}
	if results[1].Res.ReadLat.Count() != 0 {
		t.Error("100% write-ratio cell recorded reads")
	}
}

// TestRatioAxisOnlyMultipliesMixed asserts that adding a write-ratio axis
// neither duplicates nor re-seeds pure-pattern cells.
func TestRatioAxisOnlyMultipliesMixed(t *testing.T) {
	k := Closed{
		Patterns:    []workload.Pattern{workload.RandRead, workload.Mixed},
		BlockSizes:  []int64{4 << 10},
		QueueDepths: []int{1},
	}
	base := Sweep{Devices: Devices("essd1", essd1Factory), Kind: k, Seed: 5}
	withAxis := base
	k.WriteRatiosPct = []int{30, 70}
	withAxis.Kind = k
	cells := withAxis.Cells()
	if len(cells) != 3 {
		t.Fatalf("cells = %d, want 1 randread + 2 mixed", len(cells))
	}
	if cells[0].Pattern != workload.RandRead || cells[0].WriteRatioPct != -1 {
		t.Fatalf("pure cell got a ratio coordinate: %+v", cells[0])
	}
	if cells[1].WriteRatioPct != 30 || cells[2].WriteRatioPct != 70 {
		t.Fatalf("mixed ratios wrong: %+v %+v", cells[1], cells[2])
	}
	if noAxis := base.Cells(); noAxis[0].Seed != cells[0].Seed {
		t.Fatal("ratio axis re-seeded the pure-pattern cell")
	}
}

func TestNegativeWarmupMeansNone(t *testing.T) {
	if _, warmup := window(0, -1); warmup != 0 {
		t.Fatalf("negative warmup became %v, want 0", warmup)
	}
	if dur, warmup := window(0, 0); dur != 500*sim.Millisecond || warmup != 50*sim.Millisecond {
		t.Fatalf("default window = %v, %v", dur, warmup)
	}
}

// readAt submits one block-sized read at off and drains the engine.
func readAt(t *testing.T, dev blockdev.Device, off int64) {
	t.Helper()
	done := false
	dev.Submit(&blockdev.Request{
		Op: blockdev.Read, Offset: off, Size: int64(dev.BlockSize()),
		OnComplete: func(*blockdev.Request, sim.Time) { done = true },
	})
	dev.Engine().Run()
	if !done {
		t.Fatalf("read at %d never completed", off)
	}
}

// TestPreconditionHalfFillsForWrites is the regression test for the
// single-arg Precondition branch (ESSDs): write cells must get the
// documented half-filled GC-free window, not a full device.
func TestPreconditionHalfFillsForWrites(t *testing.T) {
	dev := essd1Factory(3)
	Precondition(dev, true)
	e := dev.(*essd.ESSD)
	bs := int64(dev.BlockSize())

	readAt(t, dev, 0) // first block: filled
	if got := e.Counters().UnwrittenReads; got != 0 {
		t.Fatalf("first block unwritten after write precondition (unwritten reads = %d)", got)
	}
	readAt(t, dev, dev.Capacity()-bs) // last block: must be beyond the half fill
	if got := e.Counters().UnwrittenReads; got != 1 {
		t.Fatalf("write precondition filled the whole ESSD (unwritten reads = %d, want 1)", got)
	}

	full := essd1Factory(3)
	Precondition(full, false)
	fe := full.(*essd.ESSD)
	readAt(t, full, full.Capacity()-bs)
	if got := fe.Counters().UnwrittenReads; got != 0 {
		t.Fatalf("read precondition left the ESSD partly empty (unwritten reads = %d)", got)
	}
}

// openProjection is the comparable content of an open-loop CellResult.
type openProjection struct {
	Cell           Cell
	Device         string
	Summary        stats.Summary
	Ops            uint64
	Bytes          int64
	Elapsed        sim.Duration
	MaxOutstanding int
}

func projectOpen(results []CellResult) []openProjection {
	out := make([]openProjection, len(results))
	for i, r := range results {
		out[i] = openProjection{
			Cell: r.Cell, Device: r.Device,
			Summary: r.Open.Lat.Summarize(), Ops: r.Open.Ops, Bytes: r.Open.Bytes,
			Elapsed: r.Open.Elapsed, MaxOutstanding: r.Open.MaxOutstanding,
		}
	}
	return out
}

func openKind() Open {
	return Open{
		Patterns:       []workload.Pattern{workload.RandRead, workload.Mixed},
		BlockSizes:     []int64{64 << 10},
		WriteRatiosPct: []int{30, 70},
		Arrivals:       []workload.Arrival{workload.Uniform, workload.Bursty, workload.Poisson},
		RatesPerSec:    []float64{2000, 8000},
		Ops:            300,
	}
}

func openSweep() Sweep {
	return Sweep{
		Devices: []NamedFactory{
			{Name: "essd1", New: essd1Factory},
			{Name: "ssd", New: ssdFactory},
		},
		Kind:  openKind(),
		Seed:  9,
		Label: "open-test",
	}
}

// TestOpenSweepParallelDeterminism extends the subsystem's core contract to
// open-loop cells: 1 worker and 8 workers must yield identical results.
func TestOpenSweepParallelDeterminism(t *testing.T) {
	sw := openSweep()
	cells := sw.Cells()
	// 2 devices × (randread + 2 mixed ratios) × 1 bs × 3 arrivals × 2 rates.
	if len(cells) != 36 {
		t.Fatalf("cells = %d, want 36", len(cells))
	}
	for i, c := range cells {
		if c.Index != i || c.QueueDepth != 0 || c.RatePerSec == 0 {
			t.Fatalf("bad open cell %d: %+v", i, c)
		}
	}
	serial, err := Runner{Workers: 1}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Runner{Workers: 8}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	ps, pp := projectOpen(serial), projectOpen(parallel)
	for i := range ps {
		if !reflect.DeepEqual(ps[i], pp[i]) {
			t.Fatalf("open cell %d differs between 1 and 8 workers:\nserial:   %+v\nparallel: %+v",
				i, ps[i], pp[i])
		}
	}
}

// testTrace builds a deterministic mixed trace (writes, reads, a flush
// every 64 ops) pacing count ops at the given gap.
func testTrace(count int, gap sim.Duration) []trace.Record {
	recs := make([]trace.Record, 0, count)
	for i := 0; i < count; i++ {
		rec := trace.Record{At: sim.Duration(i) * gap, Offset: int64(i%512) * 4096, Size: 4096}
		switch {
		case i%64 == 63:
			rec.Op, rec.Offset, rec.Size = blockdev.Flush, 0, 1
		case i%3 == 0:
			rec.Op = blockdev.Read
		default:
			rec.Op = blockdev.Write
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestTraceSweepParallelDeterminism does the same for trace-replay cells.
func TestTraceSweepParallelDeterminism(t *testing.T) {
	sw := Sweep{
		Devices: []NamedFactory{
			{Name: "essd1", New: essd1Factory},
			{Name: "ssd", New: ssdFactory},
		},
		Kind:  Replay{Trace: testTrace(400, 50*sim.Microsecond)},
		Seed:  13,
		Label: "trace-test",
	}
	if got := len(sw.Cells()); got != 2 {
		t.Fatalf("trace cells = %d, want one per device", got)
	}
	run := func(workers int) []CellResult {
		res, err := Runner{Workers: workers}.Run(context.Background(), sw)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	for i := range serial {
		s, p := serial[i].Replay, parallel[i].Replay
		if s.Ops != 400 {
			t.Fatalf("cell %d replayed %d ops", i, s.Ops)
		}
		if s.Ops != p.Ops || s.Bytes != p.Bytes || s.Elapsed != p.Elapsed ||
			s.MaxOutstanding != p.MaxOutstanding ||
			!reflect.DeepEqual(s.Lat.Summarize(), p.Lat.Summarize()) {
			t.Fatalf("trace cell %d differs between 1 and 8 workers:\nserial:   %+v\nparallel: %+v",
				i, s, p)
		}
	}
	if serial[0].Replay.Elapsed == serial[1].Replay.Elapsed {
		t.Fatal("both devices replayed identically; device axis inert")
	}
}

// TestKindValidation checks the per-kind axis requirements.
func TestKindValidation(t *testing.T) {
	open := openSweep()
	if err := open.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Open){
		"no arrivals":   func(k *Open) { k.Arrivals = nil },
		"no rates":      func(k *Open) { k.RatesPerSec = nil },
		"zero rate":     func(k *Open) { k.RatesPerSec = []float64{0} },
		"NaN rate":      func(k *Open) { k.RatesPerSec = []float64{2000, math.NaN()} },
		"+Inf rate":     func(k *Open) { k.RatesPerSec = []float64{math.Inf(1)} },
		"-Inf rate":     func(k *Open) { k.RatesPerSec = []float64{math.Inf(-1)} },
		"no patterns":   func(k *Open) { k.Patterns = nil },
		"bad ratio":     func(k *Open) { k.WriteRatiosPct = []int{-5} },
		"no block size": func(k *Open) { k.BlockSizes = nil },
	} {
		k := openKind()
		mutate(&k)
		broken := openSweep()
		broken.Kind = k
		if err := broken.Validate(); err == nil {
			t.Errorf("%s: open sweep validated", name)
		}
	}
	tr := Sweep{Devices: Devices("essd1", essd1Factory), Kind: Replay{}}
	if err := tr.Validate(); err == nil {
		t.Error("trace sweep without records validated")
	}
	tr.Kind = Replay{Trace: testTrace(4, sim.Microsecond)}
	if err := tr.Validate(); err != nil {
		t.Errorf("minimal trace sweep rejected: %v", err)
	}
}

// TestOpenSeedCoordinates asserts arrival and rate feed open-loop seeds,
// that open, closed, and trace cells at shared coordinates are
// decorrelated, and that the device feeds trace seeds, against literal
// values.
func TestOpenSeedCoordinates(t *testing.T) {
	open := func(a workload.Arrival, rate float64) CellKind {
		return Open{Patterns: []workload.Pattern{workload.RandRead}, BlockSizes: []int64{4096},
			Arrivals: []workload.Arrival{a}, RatesPerSec: []float64{rate}}
	}
	for _, tc := range []struct {
		name   string
		device string
		kind   CellKind
		want   uint64
	}{
		{"open", "d", open(workload.Uniform, 1000), 0x7cb9c86381049720},
		{"open bursty", "d", open(workload.Bursty, 1000), 0x4a61a53267b873b3},
		{"open 2000/s", "d", open(workload.Uniform, 2000), 0x5f8fd2efbdefeb4a},
		{"closed qd 0", "d", Closed{Patterns: []workload.Pattern{workload.RandRead},
			BlockSizes: []int64{4096}, QueueDepths: []int{0}}, 0xcd53b3d9040eaf41},
		{"trace d", "d", Replay{}, 0xfa2366c79be95cba},
		{"trace e", "e", Replay{}, 0x855ccaa86d9eb93f},
	} {
		sw := Sweep{Devices: []NamedFactory{{Name: tc.device}}, Kind: tc.kind, Seed: 1, Label: "l"}
		if got := sw.Cells()[0].Seed; got != tc.want {
			t.Errorf("%s: seed %016x, pinned %016x", tc.name, got, tc.want)
		}
	}
}

func TestInspectHook(t *testing.T) {
	sw := Sweep{
		Devices: Devices("essd1", essd1Factory),
		Kind: Closed{
			Patterns:     []workload.Pattern{workload.RandWrite},
			BlockSizes:   []int64{4 << 10},
			QueueDepths:  []int{1},
			CellDuration: 30 * sim.Millisecond,
			Warmup:       5 * sim.Millisecond,
			Inspect:      func(dev blockdev.Device, c Cell) any { return dev.Capacity() },
		},
		Seed: 11,
	}
	results, err := Runner{}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if cap, err := DecodeInfo[int64](results[0]); err != nil || cap <= 0 {
		t.Fatalf("Inspect capture = %s (%v)", results[0].Info, err)
	}
}
