package ssd

import (
	"slices"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/flash"
	"essdsim/internal/ftl"
	"essdsim/internal/sim"
)

// runLoop drives a closed loop of count I/Os at the given depth and
// returns mean latency and elapsed time.
func runLoop(eng *sim.Engine, d blockdev.Device, op blockdev.Op,
	qd int, count int, size int64, offsets func(i int) int64) (mean sim.Duration, elapsed sim.Duration) {
	start := eng.Now()
	var total sim.Duration
	done, next, inflight := 0, 0, 0
	var submit func()
	submit = func() {
		for inflight < qd && next < count {
			i := next
			next++
			inflight++
			d.Submit(&blockdev.Request{
				Op: op, Offset: offsets(i), Size: size,
				OnComplete: func(r *blockdev.Request, at sim.Time) {
					total += r.Latency(at)
					done++
					inflight--
					submit()
				},
			})
		}
	}
	submit()
	eng.Run()
	return total / sim.Duration(done), eng.Now().Sub(start)
}

// TestPureReadRateCapsAtHostLink verifies the Figure 5 pure-read endpoint:
// random large reads saturate near the 3.5 GB/s host link, not the (higher)
// aggregate die bandwidth.
func TestPureReadRateCapsAtHostLink(t *testing.T) {
	eng, s := newSmall(t)
	s.Precondition(1.0, false)
	const count = 3000
	const size = 128 << 10
	rng := sim.NewRNG(3, 3)
	_, elapsed := runLoop(eng, s, blockdev.Read, 32, count, size, func(i int) int64 {
		return rng.Int64N(s.Capacity()/size) * size
	})
	pureRead := float64(count*size) / elapsed.Seconds()
	if pureRead < 3.0e9 || pureRead > 3.8e9 {
		t.Fatalf("pure read rate %.2f GB/s, want ≈3.5 (host-link bound)", pureRead/1e9)
	}
}

// TestGCInflatesTailLatency verifies that on a full, churned device the
// write tail (p99.9) stretches far beyond the buffered-write average — the
// unpredictability the paper's Obs#2 contrasts the ESSD against.
func TestGCInflatesTailLatency(t *testing.T) {
	eng, s := newSmall(t)
	s.Precondition(1.0, true)
	const size = 32 << 10
	rng := sim.NewRNG(5, 5)
	var lats []sim.Duration
	count := int(3 * s.Capacity() / 2 / size)
	done, next, inflight := 0, 0, 0
	var submit func()
	submit = func() {
		for inflight < 16 && next < count {
			next++
			inflight++
			off := rng.Int64N(s.Capacity()/size) * size
			s.Submit(&blockdev.Request{
				Op: blockdev.Write, Offset: off, Size: size,
				OnComplete: func(r *blockdev.Request, at sim.Time) {
					lats = append(lats, r.Latency(at))
					done++
					inflight--
					submit()
				},
			})
		}
	}
	submit()
	eng.Run()
	if s.FTLWriteAmp() <= 1.0 {
		t.Fatal("churn did not trigger GC")
	}
	var sum sim.Duration
	max := sim.Duration(0)
	for _, l := range lats {
		sum += l
		if l > max {
			max = l
		}
	}
	mean := sum / sim.Duration(len(lats))
	if max < 20*mean {
		t.Fatalf("GC tail max %v only %vx the mean %v; expected large spikes",
			max, max/mean, mean)
	}
}

// TestWriteAmpGrowsWithUtilization: fuller devices pay more GC.
func TestWriteAmpGrowsWithUtilization(t *testing.T) {
	churn := func(fill float64) float64 {
		eng := sim.NewEngine()
		cfg := DefaultConfig(256 << 20)
		s := New(eng, cfg, sim.NewRNG(7, 7))
		s.Precondition(fill, true)
		rng := sim.NewRNG(8, 8)
		const size = 32 << 10
		region := int64(float64(s.Capacity()) * fill / float64(size))
		if region < 16 {
			region = 16
		}
		count := int(s.Capacity() / size)
		next, inflight := 0, 0
		var submit func()
		submit = func() {
			for inflight < 16 && next < count {
				next++
				inflight++
				s.Submit(&blockdev.Request{
					Op: blockdev.Write, Offset: rng.Int64N(region) * size, Size: size,
					OnComplete: func(r *blockdev.Request, at sim.Time) {
						inflight--
						submit()
					},
				})
			}
		}
		submit()
		eng.Run()
		return s.FTLWriteAmp()
	}
	low := churn(0.4)
	high := churn(1.0)
	if high <= low {
		t.Fatalf("WA did not grow with utilization: %.2f (40%%) vs %.2f (100%%)", low, high)
	}
	if high < 1.3 {
		t.Fatalf("full-device WA %.2f suspiciously low", high)
	}
}

// TestTrimRestoresWritePerformance: trimming returns a churned device to
// buffer-speed writes by freeing GC from relocating dead data.
func TestTrimRestoresWritePerformance(t *testing.T) {
	eng, s := newSmall(t)
	s.Precondition(1.0, true)
	// Trim everything.
	const chunk = 1 << 20
	for off := int64(0); off < s.Capacity(); off += chunk {
		s.Submit(&blockdev.Request{Op: blockdev.Trim, Offset: off, Size: chunk})
	}
	eng.Run()
	lat := do(eng, s, blockdev.Write, 0, 4096)
	if lat > 50*sim.Microsecond {
		t.Fatalf("post-trim write latency %v, want buffered speed", lat)
	}
	f := s.FTL()
	if f.Utilization() > 0.01 {
		t.Fatalf("utilization after full trim: %v", f.Utilization())
	}
}

// TestSequentialWritePlacementStripes confirms the frontier stripes
// sequential data across dies, which is what parallelizes later reads.
func TestSequentialWritePlacementStripes(t *testing.T) {
	eng, s := newSmall(t)
	// Write 8 units' worth sequentially and flush.
	do(eng, s, blockdev.Write, 0, 256<<10)
	do(eng, s, blockdev.Flush, 0, 0)
	// A 256K read of that range must touch many dies: with 16 dies and
	// 32K units it spans 8 dies => latency near a single page read, not
	// 16 serialized reads.
	lat := do(eng, s, blockdev.Read, 0, 256<<10)
	if lat > 400*sim.Microsecond {
		t.Fatalf("sequential-write readback latency %v: placement not striped", lat)
	}
}

// TestReadAndGCRepeatable runs one cell that mixes random multi-page reads
// with the random writes that keep GC relocating on a 95%-full device, 20
// times in one process, and requires identical results every time. Flash
// reads here draw their latency at random, so the order in which a host
// read or a GC batch issues its page reads decides which page gets which
// draw: any dependence on Go's randomized map iteration order shows up as
// a differing run.
func TestReadAndGCRepeatable(t *testing.T) {
	type result struct {
		lats  []sim.Duration
		end   sim.Time
		ftl   ftl.Counters
		flash flash.Counters
	}
	run := func() result {
		eng := sim.NewEngine()
		cfg := DefaultConfig(64 << 20)
		cfg.Flash.PagesPerBlock = 4 // 2 MiB superblocks: GC within a few MiB
		cfg.Flash.ReadDist = sim.LogNormal{Median: 40 * sim.Microsecond, Sigma: 0.4}
		s := New(eng, cfg, sim.NewRNG(13, 17))
		s.Precondition(0.95, true)
		rng := sim.NewRNG(19, 23)
		var res result
		const count = 3000
		next, inflight := 0, 0
		var submit func()
		submit = func() {
			for inflight < 16 && next < count {
				next++
				inflight++
				req := &blockdev.Request{Op: blockdev.Write, Size: 16 << 10}
				if rng.Int64N(2) == 0 {
					req.Op, req.Size = blockdev.Read, 64<<10
				}
				req.Offset = rng.Int64N(s.Capacity()/req.Size) * req.Size
				req.OnComplete = func(r *blockdev.Request, at sim.Time) {
					res.lats = append(res.lats, r.Latency(at))
					inflight--
					submit()
				}
				s.Submit(req)
			}
		}
		submit()
		eng.Run()
		res.end = eng.Now()
		res.ftl = s.FTL().Counters()
		res.flash = s.FlashCounters()
		return res
	}
	first := run()
	if first.ftl.GCVictims == 0 || first.flash.PageReads == 0 {
		t.Fatalf("cell exercised no GC or no flash reads: %+v %+v", first.ftl, first.flash)
	}
	for i := 1; i < 20; i++ {
		got := run()
		if !slices.Equal(got.lats, first.lats) || got.end != first.end ||
			got.ftl != first.ftl || got.flash != first.flash {
			t.Fatalf("run %d differs from run 0: end %v vs %v, counters %+v vs %+v",
				i, got.end, first.end, got.ftl, first.ftl)
		}
	}
}
