package main

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"essdsim/internal/blockdev"
	"essdsim/internal/harness"
	"essdsim/internal/sim"
)

// cellTrace is the boundary timing of one paper-grid cell, recorded by the
// wrapper around the cell's device.
type cellTrace struct {
	sweep      int       // which grid of the pass the cell belongs to
	start, end time.Time // factory entry; the cell's last Engine() call
	construct  time.Duration
	precond    time.Duration
	steps      uint64 // engine events, read at the cell's last Engine() call

	submits   hist
	callbacks uint64
	cbSelf    time.Duration // callback time minus the Submits nested in it
	nested    time.Duration // Submit time since the running callback began
}

// devTotals collects the cell traces of one traced pass.
type devTotals struct {
	mu    sync.Mutex
	cells []*cellTrace
}

// wrap returns a factory that times device construction and hands expgrid
// a tracing wrapper around each device.
func (t *devTotals) wrap(f harness.Factory, sweep int) harness.Factory {
	return func(seed uint64) blockdev.Device {
		ct := &cellTrace{sweep: sweep, start: time.Now()}
		d := f(seed)
		ct.construct = time.Since(ct.start)
		t.mu.Lock()
		t.cells = append(t.cells, ct)
		t.mu.Unlock()
		w, err := wrapDevice(d, ct)
		if err != nil {
			panic(err) // expgrid reports it as a failed cell
		}
		return w
	}
}

// completions returns, per sweep, the cells' end times as offsets from
// the sweep's first cell start.
func (t *devTotals) completions() [][]time.Duration {
	var starts []time.Time
	var out [][]time.Duration
	for _, c := range t.cells {
		for len(out) <= c.sweep {
			out = append(out, nil)
			starts = append(starts, c.start)
		}
		if c.start.Before(starts[c.sweep]) {
			starts[c.sweep] = c.start
		}
	}
	for _, c := range t.cells {
		out[c.sweep] = append(out[c.sweep], c.end.Sub(starts[c.sweep]))
	}
	return out
}

// devSummary totals the cell traces of the traced passes.
type devSummary struct {
	cells                      int
	construct, precond, cbSelf time.Duration
	callbacks, steps           uint64
	submits                    hist
	cellMs                     []float64
	busy, span                 time.Duration // cell time; sweep wall time
}

func (d *devSummary) add(t *devTotals) {
	for _, c := range t.cells {
		d.cells++
		d.construct += c.construct
		d.precond += c.precond
		d.cbSelf += c.cbSelf
		d.callbacks += c.callbacks
		d.steps += c.steps
		d.submits.merge(&c.submits)
		dur := c.end.Sub(c.start)
		d.cellMs = append(d.cellMs, float64(dur)/1e6)
		d.busy += dur
	}
	for _, ts := range t.completions() {
		var last time.Duration
		for _, x := range ts {
			last = max(last, x)
		}
		d.span += last
	}
}

func (d *devSummary) report(b *bench) {
	perCell := func(x time.Duration) float64 { return ratio(float64(x)/1e6, float64(d.cells)) }
	b.put("device.construct_ms_per_cell", perCell(d.construct), "ms")
	b.put("device.precondition_ms_per_cell", perCell(d.precond), "ms")
	q := tailQuantile(d.submits.count)
	b.put("device.submit_ns_p50", d.submits.quantile(0.5), "ns")
	b.put("device.submit_ns_tail", d.submits.quantile(q), "ns")
	b.put("device.submit_tail_q", q, "q")
	b.put("device.submit_samples", float64(d.submits.count), "count")
	b.put("workload.callback_ns_per_op", ratio(float64(d.cbSelf), float64(d.callbacks)), "ns/op")
	cq := tailQuantile(uint64(len(d.cellMs)))
	b.put("expgrid.cell_ms_p50", quantileOf(d.cellMs, 0.5), "ms")
	b.put("expgrid.cell_ms_tail", quantileOf(d.cellMs, cq), "ms")
	b.put("expgrid.cell_tail_q", cq, "q")
	b.put("expgrid.cell_samples", float64(len(d.cellMs)), "count")
	b.put("expgrid.worker_busy_frac", ratio(float64(d.busy), float64(poolWorkers)*float64(d.span)), "frac")
}

// Optional device interfaces that expgrid and harness type-switch on.
type (
	preconditioner     interface{ Precondition(fillFrac float64) }
	randPreconditioner interface {
		Precondition(fillFrac float64, randomized bool)
	}
	releaser      interface{ ReleaseResources() }
	throttler     interface{ Throttled() bool }
	ftlWriteAmper interface{ FTLWriteAmp() float64 }
)

// Capability bits: which optional interfaces a device implements.
const (
	capPrecond = 1 << iota
	capRandPrecond
	capRelease
	capThrottled
	capFTLWriteAmp
)

func capsOf(d blockdev.Device) int {
	c := 0
	if _, ok := d.(preconditioner); ok {
		c |= capPrecond
	}
	if _, ok := d.(randPreconditioner); ok {
		c |= capRandPrecond
	}
	if _, ok := d.(releaser); ok {
		c |= capRelease
	}
	if _, ok := d.(throttler); ok {
		c |= capThrottled
	}
	if _, ok := d.(ftlWriteAmper); ok {
		c |= capFTLWriteAmp
	}
	return c
}

// wrapDevice wraps d so that the wrapper implements exactly the optional
// interfaces d does: a wrapper that dropped Precondition or
// ReleaseResources, or added one, would change what expgrid does with the
// cell and so the simulated results. It errors on an interface set it has
// no wrapper type for rather than forward a different one.
func wrapDevice(d blockdev.Device, ct *cellTrace) (blockdev.Device, error) {
	base := &tracedDev{Device: d, ct: ct}
	switch c := capsOf(d); c {
	case 0:
		return base, nil
	case capPrecond | capRelease | capThrottled:
		return essdLike{base}, nil
	case capRandPrecond | capFTLWriteAmp:
		return ssdLike{base}, nil
	default:
		return nil, fmt.Errorf("perfbench: no tracing wrapper for %s (interface set %05b)", d.Name(), c)
	}
}

// tracedDev forwards the blockdev.Device methods, timing Submit and the
// completion callbacks. A device is driven by one engine on one goroutine,
// so the cell trace needs no lock.
type tracedDev struct {
	blockdev.Device
	ct *cellTrace
}

// Engine records the engine's event count and the time on every call:
// expgrid's last call hands the engine back to the pool, so the final
// record is the cell's end.
func (d *tracedDev) Engine() *sim.Engine {
	e := d.Device.Engine()
	d.ct.steps = e.Steps()
	d.ct.end = time.Now()
	return e
}

func (d *tracedDev) Submit(r *blockdev.Request) {
	if cb := r.OnComplete; cb != nil {
		r.OnComplete = func(r *blockdev.Request, at sim.Time) { d.complete(cb, r, at) }
	}
	t0 := time.Now()
	d.Device.Submit(r)
	dt := time.Since(t0)
	d.ct.submits.add(uint64(dt))
	d.ct.nested += dt
}

// complete times one completion callback, excluding the Submits it
// issues (the closed loop refills its queue from the callback).
func (d *tracedDev) complete(cb func(*blockdev.Request, sim.Time), r *blockdev.Request, at sim.Time) {
	d.ct.nested = 0
	t0 := time.Now()
	cb(r, at)
	d.ct.cbSelf += time.Since(t0) - d.ct.nested
	d.ct.callbacks++
}

func (d *tracedDev) timePrecondition(f func()) {
	t0 := time.Now()
	f()
	d.ct.precond += time.Since(t0)
}

// essdLike wraps an elastic volume: single-argument Precondition,
// ReleaseResources and Throttled.
type essdLike struct{ *tracedDev }

func (d essdLike) Precondition(fill float64) {
	d.timePrecondition(func() { d.Device.(preconditioner).Precondition(fill) })
}
func (d essdLike) ReleaseResources() { d.Device.(releaser).ReleaseResources() }
func (d essdLike) Throttled() bool   { return d.Device.(throttler).Throttled() }

// ssdLike wraps a local SSD: two-argument Precondition and FTLWriteAmp.
type ssdLike struct{ *tracedDev }

func (d ssdLike) Precondition(fill float64, randomized bool) {
	d.timePrecondition(func() { d.Device.(randPreconditioner).Precondition(fill, randomized) })
}
func (d ssdLike) FTLWriteAmp() float64 { return d.Device.(ftlWriteAmper).FTLWriteAmp() }

// hist is a log-linear histogram of nanosecond durations: eight buckets
// per power of two, so a quantile reads within 12.5% of the true value.
type hist struct {
	n     [512]uint64
	count uint64
}

func bucketOf(v uint64) int {
	if v < 8 {
		return int(v)
	}
	e := bits.Len64(v) - 1
	return e*8 + int(v>>(e-3)&7)
}

// bucketLow is the smallest value in bucket i.
func bucketLow(i int) uint64 {
	if i < 8 {
		return uint64(i)
	}
	e, m := i/8, uint64(i%8)
	return (8 + m) << (e - 3)
}

func (h *hist) add(v uint64) {
	h.n[bucketOf(v)]++
	h.count++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.n {
		h.n[i] += c
	}
	h.count += o.count
}

// quantile returns the lower bound of the bucket holding the q-quantile.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank >= h.count {
		rank = h.count - 1
	}
	var seen uint64
	for i, c := range h.n {
		seen += c
		if seen > rank {
			return float64(bucketLow(i))
		}
	}
	return 0
}
