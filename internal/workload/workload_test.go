package workload

import (
	"testing"
	"testing/quick"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
)

// fakeDevice is a deterministic constant-latency device for generator tests.
type fakeDevice struct {
	eng      *sim.Engine
	lat      sim.Duration
	capacity int64

	reads, writes int
	offsets       []int64
	maxInflight   int
	inflight      int
}

func newFake(lat sim.Duration) *fakeDevice {
	return &fakeDevice{eng: sim.NewEngine(), lat: lat, capacity: 1 << 30}
}

func (f *fakeDevice) Name() string        { return "fake" }
func (f *fakeDevice) Capacity() int64     { return f.capacity }
func (f *fakeDevice) BlockSize() int      { return 4096 }
func (f *fakeDevice) Engine() *sim.Engine { return f.eng }
func (f *fakeDevice) Submit(r *blockdev.Request) {
	blockdev.Validate(f, r)
	r.Issued = f.eng.Now()
	if r.Op == blockdev.Read {
		f.reads++
	} else {
		f.writes++
	}
	f.offsets = append(f.offsets, r.Offset)
	f.inflight++
	if f.inflight > f.maxInflight {
		f.maxInflight = f.inflight
	}
	f.eng.Schedule(f.lat, func() {
		f.inflight--
		if r.OnComplete != nil {
			r.OnComplete(r, f.eng.Now())
		}
	})
}

func TestSpecValidate(t *testing.T) {
	d := newFake(100)
	bad := []Spec{
		{BlockSize: 0, QueueDepth: 1, MaxOps: 1},
		{BlockSize: 1000, QueueDepth: 1, MaxOps: 1}, // misaligned
		{BlockSize: 4096, QueueDepth: 0, MaxOps: 1}, // no QD
		{BlockSize: 4096, QueueDepth: 1},            // no stop condition
		{BlockSize: 4096, QueueDepth: 1, MaxOps: 1, Region: 1 << 40},
		{Pattern: Mixed, BlockSize: 4096, QueueDepth: 1, MaxOps: 1, WriteRatio: 1.5},
		{BlockSize: 4096, QueueDepth: 1, Duration: 50 * sim.Millisecond, Warmup: 100 * sim.Millisecond},  // warmup past the run
		{BlockSize: 4096, QueueDepth: 1, Duration: 100 * sim.Millisecond, Warmup: 100 * sim.Millisecond}, // warmup is the run
	}
	for i, s := range bad {
		if err := s.Validate(d); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
	for _, good := range []Spec{
		{Pattern: RandRead, BlockSize: 4096, QueueDepth: 4, MaxOps: 10},
		{Pattern: RandRead, BlockSize: 4096, QueueDepth: 4, Duration: 100 * sim.Millisecond, Warmup: 99 * sim.Millisecond},
	} {
		if err := good.Validate(d); err != nil {
			t.Errorf("valid spec rejected: %v", err)
		}
	}
}

func TestParsePattern(t *testing.T) {
	for s, want := range map[string]Pattern{
		"randwrite": RandWrite, "write": SeqWrite, "randread": RandRead,
		"read": SeqRead, "randrw": Mixed, "rw": Mixed,
	} {
		got, err := ParsePattern(s)
		if err != nil || got != want {
			t.Errorf("ParsePattern(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePattern("bogus"); err == nil {
		t.Error("bogus pattern accepted")
	}
}

func TestPatternString(t *testing.T) {
	if RandWrite.String() != "randwrite" || SeqRead.String() != "read" {
		t.Fatal("pattern names wrong")
	}
	if !RandWrite.IsWrite() || RandRead.IsWrite() {
		t.Fatal("IsWrite wrong")
	}
}

func TestMaxOpsStops(t *testing.T) {
	d := newFake(100 * sim.Microsecond)
	res := Run(d, Spec{Pattern: RandRead, BlockSize: 4096, QueueDepth: 4, MaxOps: 100})
	if res.Ops != 100 {
		t.Fatalf("ops = %d, want 100", res.Ops)
	}
	if d.reads != 100 || d.writes != 0 {
		t.Fatalf("device saw %d reads %d writes", d.reads, d.writes)
	}
}

func TestTotalBytesStops(t *testing.T) {
	d := newFake(100 * sim.Microsecond)
	res := Run(d, Spec{Pattern: SeqWrite, BlockSize: 8192, QueueDepth: 2, TotalBytes: 80 << 10})
	if res.Bytes != 80<<10 {
		t.Fatalf("bytes = %d, want 80K", res.Bytes)
	}
}

func TestQueueDepthRespected(t *testing.T) {
	d := newFake(1 * sim.Millisecond)
	Run(d, Spec{Pattern: RandRead, BlockSize: 4096, QueueDepth: 7, MaxOps: 100})
	if d.maxInflight != 7 {
		t.Fatalf("max inflight = %d, want 7", d.maxInflight)
	}
}

func TestDurationStops(t *testing.T) {
	d := newFake(1 * sim.Millisecond)
	res := Run(d, Spec{Pattern: RandRead, BlockSize: 4096, QueueDepth: 1,
		Duration: 100 * sim.Millisecond})
	// ~100 ops of 1 ms each.
	if res.Ops < 95 || res.Ops > 105 {
		t.Fatalf("ops = %d, want ≈100", res.Ops)
	}
	if res.Elapsed != 100*sim.Millisecond {
		t.Fatalf("elapsed = %v", res.Elapsed)
	}
}

func TestSequentialOffsetsWrapInRegion(t *testing.T) {
	d := newFake(10 * sim.Microsecond)
	Run(d, Spec{Pattern: SeqRead, BlockSize: 4096, QueueDepth: 1, MaxOps: 600,
		Region: 1 << 20}) // 256 blocks
	for i, off := range d.offsets {
		want := int64(i%256) * 4096
		if off != want {
			t.Fatalf("op %d offset %d, want %d", i, off, want)
		}
	}
}

func TestRandomOffsetsStayInRegion(t *testing.T) {
	d := newFake(10 * sim.Microsecond)
	Run(d, Spec{Pattern: RandWrite, BlockSize: 4096, QueueDepth: 4, MaxOps: 500,
		Region: 1 << 20, Seed: 3})
	distinct := map[int64]bool{}
	for _, off := range d.offsets {
		if off < 0 || off+4096 > 1<<20 {
			t.Fatalf("offset %d outside region", off)
		}
		if off%4096 != 0 {
			t.Fatalf("offset %d misaligned", off)
		}
		distinct[off] = true
	}
	if len(distinct) < 100 {
		t.Fatalf("only %d distinct offsets in 500 random ops", len(distinct))
	}
}

func TestMixedRatio(t *testing.T) {
	d := newFake(10 * sim.Microsecond)
	Run(d, Spec{Pattern: Mixed, WriteRatio: 0.3, BlockSize: 4096, QueueDepth: 8,
		MaxOps: 2000, Seed: 11})
	frac := float64(d.writes) / float64(d.reads+d.writes)
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("write fraction %.3f, want ≈0.30", frac)
	}
}

func TestWarmupExcluded(t *testing.T) {
	d := newFake(1 * sim.Millisecond)
	res := Run(d, Spec{Pattern: RandRead, BlockSize: 4096, QueueDepth: 1,
		Duration: 100 * sim.Millisecond, Warmup: 50 * sim.Millisecond})
	if res.Ops < 45 || res.Ops > 55 {
		t.Fatalf("recorded ops = %d, want ≈50 after warmup", res.Ops)
	}
	// Throughput uses the recorded window.
	iops := res.IOPS()
	if iops < 900 || iops > 1100 {
		t.Fatalf("IOPS = %.0f, want ≈1000", iops)
	}
}

func TestLatencyRecorded(t *testing.T) {
	d := newFake(500 * sim.Microsecond)
	res := Run(d, Spec{Pattern: RandRead, BlockSize: 4096, QueueDepth: 1, MaxOps: 50})
	s := res.Lat.Summarize()
	if s.Mean != 500*sim.Microsecond {
		t.Fatalf("mean latency %v, want exactly 500µs", s.Mean)
	}
	if res.ReadLat.Count() != 50 || res.WriteLat.Count() != 0 {
		t.Fatal("per-op histograms wrong")
	}
}

func TestSeriesAccumulates(t *testing.T) {
	d := newFake(1 * sim.Millisecond)
	res := Run(d, Spec{Pattern: SeqWrite, BlockSize: 4096, QueueDepth: 1,
		Duration: 2100 * sim.Millisecond})
	if res.Series.Len() < 2 {
		t.Fatalf("series has %d buckets", res.Series.Len())
	}
	if res.WriteSeries.Total() != res.Series.Total() {
		t.Fatal("write series mismatch for write-only workload")
	}
}

func TestDeterminism(t *testing.T) {
	spec := Spec{Pattern: Mixed, WriteRatio: 0.5, BlockSize: 4096, QueueDepth: 8,
		MaxOps: 500, Seed: 42}
	a := Run(newFake(100*sim.Microsecond), spec)
	b := Run(newFake(100*sim.Microsecond), spec)
	if a.Ops != b.Ops || a.Bytes != b.Bytes {
		t.Fatal("same seed produced different results")
	}
	if a.Lat.Summarize() != b.Lat.Summarize() {
		t.Fatal("same seed produced different latency summaries")
	}
}

// Property: for any spec, completed ops equal submitted ops (nothing lost)
// and offsets are always aligned and in range.
func TestOffsetsAlwaysValidProperty(t *testing.T) {
	f := func(qd, bsMul uint8, seed uint64, seq bool) bool {
		d := newFake(50 * sim.Microsecond)
		pattern := RandWrite
		if seq {
			pattern = SeqWrite
		}
		spec := Spec{
			Pattern:    pattern,
			BlockSize:  int64(bsMul%16+1) * 4096,
			QueueDepth: int(qd%16) + 1,
			MaxOps:     200,
			Seed:       seed,
		}
		res := Run(d, spec)
		if res.Ops != 200 {
			return false
		}
		for _, off := range d.offsets {
			if off%spec.BlockSize != 0 || off+spec.BlockSize > d.capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
