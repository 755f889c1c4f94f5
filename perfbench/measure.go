package main

import (
	"bytes"
	"context"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

// pass is one measured call of a suite.
type pass struct {
	out  outcome
	err  error
	wall time.Duration
	cpu  time.Duration // process user+system CPU time
	peak uint64        // peak live heap bytes (untraced passes only)
	rt   runtimeDelta
	// probe holds a traced pass's boundary measurements; nil if untraced.
	probe *probe
}

// runtimeDelta is the change in Go runtime counters over a pass.
type runtimeDelta struct {
	allocs, allocBytes, gcCycles uint64
	gcCPU, busyCPU               float64 // seconds, as the runtime estimates them
}

var counterNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCounters() []metrics.Sample {
	s := make([]metrics.Sample, len(counterNames))
	for i, n := range counterNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func counterDelta(a, b []metrics.Sample) runtimeDelta {
	return runtimeDelta{
		allocs:     b[0].Value.Uint64() - a[0].Value.Uint64(),
		allocBytes: b[1].Value.Uint64() - a[1].Value.Uint64(),
		gcCycles:   b[2].Value.Uint64() - a[2].Value.Uint64(),
		gcCPU:      b[3].Value.Float64() - a[3].Value.Float64(),
		busyCPU: b[4].Value.Float64() - a[4].Value.Float64() -
			(b[5].Value.Float64() - a[5].Value.Float64()),
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runPass runs the suite once from a collected heap. Untraced passes
// (p == nil) sample the peak heap; traced passes run under the CPU
// profiler.
func runPass(ctx context.Context, s *suite, p *probe) pass {
	runtime.GC()
	r := pass{probe: p}
	timed := func() error {
		before, cpu0 := readCounters(), processCPU()
		t0 := time.Now()
		r.out, r.err = s.pass(ctx, p)
		r.wall = time.Since(t0)
		r.cpu = processCPU() - cpu0
		r.rt = counterDelta(before, readCounters())
		return r.err
	}
	if p == nil {
		stop := sampleHeap()
		r.err = timed()
		r.peak = stop()
		return r
	}
	cpu, samples, err := cpuProfile(timed)
	if err != nil {
		r.err = err
		return r
	}
	p.cpu, p.samples = cpu, samples
	return r
}

// sampleHeap polls the heap bytes the last collection marked live every
// 2 ms until stop is called, and returns the peak.
func sampleHeap() (stop func() uint64) {
	done := make(chan struct{})
	peak := make(chan uint64)
	go func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		var max uint64
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > max {
				max = v
			}
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() uint64 {
		close(done)
		return <-peak
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantileOf returns the q-quantile of xs by the nearest-rank rule.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q * float64(len(s)))
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// tailQuantile is the highest of p90, p99, p99.9, ... that has at least
// ten of n samples beyond it; with fewer than 100 samples it is the
// median.
func tailQuantile(n uint64) float64 {
	q := 0.5
	for beyond := 0.1; float64(n)*beyond >= 10; beyond /= 10 {
		q = 1 - beyond
	}
	return q
}

// cpuProfile runs f under the CPU profiler and returns CPU nanoseconds
// per layer bucket and the number of samples.
func cpuProfile(f func() error) (map[string]int64, int, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, err
	}
	err := f()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, 0, err
	}
	return cpuByBucket(buf.Bytes())
}
