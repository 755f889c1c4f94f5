package expgrid

import (
	"errors"
	"fmt"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/trace"
	"essdsim/internal/workload"
	"essdsim/kv"
)

// Closed runs workload.Run: a fixed queue depth of outstanding I/Os, the
// paper's fio-style microbenchmark shape. Cells enumerate devices ×
// patterns × block sizes × queue depths × write ratios.
type Closed struct {
	// Patterns, BlockSizes, and QueueDepths are required. WriteRatiosPct
	// is optional and multiplies only Mixed cells; cells of every other
	// pattern carry a write-ratio coordinate of -1 (so adding a ratio
	// axis never re-seeds or duplicates them).
	Patterns       []workload.Pattern
	BlockSizes     []int64
	QueueDepths    []int
	WriteRatiosPct []int

	// CellDuration bounds each cell's measurement window (default
	// 500 ms); Warmup is excluded from statistics (default 50 ms;
	// negative values mean no warmup at all). When CapMultiple is > 0 the
	// cell instead stops after CapMultiple × device capacity bytes, with
	// no warmup — the sustained-write shape.
	CellDuration sim.Duration
	Warmup       sim.Duration
	CapMultiple  float64

	Precondition Precond

	// Inspect, when non-nil, runs on the worker after the cell's workload
	// completes, while the measured device is still alive; its return
	// value is JSON-encoded into CellResult.Info (read it back with
	// DecodeInfo), so it must encode: exported fields, no channels,
	// functions, NaNs or infinities, or the cell fails. Use it to capture
	// post-run device state (throttle flags, write amplification, GC
	// counters) that the workload Result alone cannot show. It must not
	// touch anything shared between cells, and its semantics are outside
	// the cache key: change the sweep Label when they change.
	Inspect func(dev blockdev.Device, c Cell) any
}

func (k Closed) validate(devices []NamedFactory) error {
	return errors.Join(
		factories(devices),
		axis("closed", "pattern", k.Patterns, nil, ""),
		axis("closed", "block size", k.BlockSizes, positive[int64], "> 0"),
		axis("closed", "queue depth", k.QueueDepths, positive[int], "> 0"),
		ratios(k.WriteRatiosPct),
		k.checkWindow(),
	)
}

// checkWindow checks the resolved measurement window of a time-bounded
// sweep: a warmup at or past the cell duration would measure nothing.
func (k Closed) checkWindow() error {
	if k.CapMultiple > 0 {
		return nil
	}
	if dur, warmup := window(k.CellDuration, k.Warmup); warmup >= dur {
		return fmt.Errorf("expgrid: closed sweep warmup %v not shorter than cell duration %v", warmup, dur)
	}
	return nil
}

func (k Closed) cells(dev coordHash, add func(Cell, coordHash)) {
	for _, p := range k.Patterns {
		for _, bs := range k.BlockSizes {
			for _, qd := range k.QueueDepths {
				for _, wr := range mixedRatios(p, k.WriteRatiosPct) {
					add(Cell{Pattern: p, BlockSize: bs, QueueDepth: qd, WriteRatioPct: wr},
						dev.with(uint64(p)+1, uint64(bs), uint64(qd), ratioWord(wr)))
				}
			}
		}
	}
}

func (k Closed) settings() fpSettings {
	return fpSettings{kind: 0, duration: k.CellDuration, warmup: k.Warmup,
		capMultiple: k.CapMultiple, precond: k.Precondition}
}

func (k Closed) run(f Factory, c Cell, out *CellResult) (*sim.Engine, []blockdev.Device) {
	return onDevice(f, c, out, k.Precondition, c.Pattern.IsWrite(), k.Inspect, func(dev blockdev.Device) {
		spec := workload.Spec{
			Pattern:    c.Pattern,
			BlockSize:  c.BlockSize,
			QueueDepth: c.QueueDepth,
			WriteRatio: c.writeRatio(),
			Seed:       c.Seed,
		}
		spec.Duration, spec.Warmup = window(k.CellDuration, k.Warmup)
		if k.CapMultiple > 0 {
			spec.TotalBytes = int64(k.CapMultiple * float64(dev.Capacity()))
			spec.Duration, spec.Warmup = 0, 0
		}
		out.Res = workload.Run(dev, spec)
	})
}

func (k Closed) describe(c Cell) string {
	return fmt.Sprintf("%s %s bs=%d qd=%d", c.DeviceName, c.Pattern, c.BlockSize, c.QueueDepth)
}

func (k Closed) inspects() bool { return k.Inspect != nil }

// Open runs workload.RunOpen: requests issued on an arrival schedule
// regardless of completions, the regime where provisioned budgets and
// burst credits dominate (Observation/Implication #4). Cells enumerate
// devices × patterns × block sizes × arrivals × rates × write ratios,
// and each issues Ops requests.
type Open struct {
	// Patterns, BlockSizes, Arrivals, and RatesPerSec are required;
	// WriteRatiosPct is optional and, as for Closed, multiplies only
	// Mixed cells. Rates must be finite and positive.
	Patterns       []workload.Pattern
	BlockSizes     []int64
	Arrivals       []workload.Arrival
	RatesPerSec    []float64
	WriteRatiosPct []int

	// Ops is each cell's request count (default 2000).
	Ops uint64

	// SampleInterval overrides the completion-timeline bucket width
	// (default 10 ms). WindowPercentiles additionally keeps a latency
	// histogram per bucket so windowed p99/p99.9 can be read from the
	// result (see workload.OpenSpec.WindowPercentiles).
	SampleInterval    sim.Duration
	WindowPercentiles bool

	Precondition Precond

	// Inspect is as for Closed.
	Inspect func(dev blockdev.Device, c Cell) any
}

func (k Open) ops() uint64 {
	if k.Ops == 0 {
		return 2000
	}
	return k.Ops
}

func (k Open) validate(devices []NamedFactory) error {
	return errors.Join(
		factories(devices),
		axis("open", "pattern", k.Patterns, nil, ""),
		axis("open", "block size", k.BlockSizes, positive[int64], "> 0"),
		axis("open", "arrival", k.Arrivals, nil, ""),
		axis("open", "rate", k.RatesPerSec, finiteRate, "finite and > 0"),
		ratios(k.WriteRatiosPct),
	)
}

func (k Open) cells(dev coordHash, add func(Cell, coordHash)) {
	dev.str("open") // decorrelates open from closed cells
	for _, p := range k.Patterns {
		for _, bs := range k.BlockSizes {
			for _, a := range k.Arrivals {
				for _, rate := range k.RatesPerSec {
					for _, wr := range mixedRatios(p, k.WriteRatiosPct) {
						add(Cell{Pattern: p, BlockSize: bs, Arrival: a, RatePerSec: rate, WriteRatioPct: wr},
							dev.with(uint64(p)+1, uint64(bs), uint64(a)+1, floatWord(rate), ratioWord(wr)))
					}
				}
			}
		}
	}
}

func (k Open) settings() fpSettings {
	f := fpSettings{kind: 1, precond: k.Precondition, ops: k.ops(), interval: k.SampleInterval}
	if k.WindowPercentiles {
		f.tag = "winpct"
	}
	return f
}

func (k Open) run(f Factory, c Cell, out *CellResult) (*sim.Engine, []blockdev.Device) {
	return onDevice(f, c, out, k.Precondition, c.Pattern.IsWrite(), k.Inspect, func(dev blockdev.Device) {
		out.Open = workload.RunOpen(dev, workload.OpenSpec{
			Pattern:           c.Pattern,
			BlockSize:         c.BlockSize,
			WriteRatio:        c.writeRatio(),
			RatePerSec:        c.RatePerSec,
			Arrival:           c.Arrival,
			Count:             k.ops(),
			SampleInterval:    k.SampleInterval,
			WindowPercentiles: k.WindowPercentiles,
			Seed:              c.Seed,
		})
	})
}

func (k Open) describe(c Cell) string {
	return fmt.Sprintf("%s %s bs=%d %s@%.0f/s", c.DeviceName, c.Pattern, c.BlockSize, c.Arrival, c.RatePerSec)
}

func (k Open) inspects() bool { return k.Inspect != nil }

// mixedRatios is a pattern's write-ratio axis: the sweep's ratios for
// Mixed cells, the single sentinel -1 for every other pattern.
func mixedRatios(p workload.Pattern, ratios []int) []int {
	if p == workload.Mixed && len(ratios) > 0 {
		return ratios
	}
	return []int{-1}
}

// Replay runs trace.Replay of Trace once per device cell; the device is
// its only axis.
type Replay struct {
	// Trace holds the records each cell replays, identically; it is
	// required. Fit additionally passes the records through trace.Fit
	// against each cell's own device geometry first — the standard
	// preparation for foreign (e.g. MSR-Cambridge) traces that address
	// volumes far larger than the scaled simulated devices.
	Trace []trace.Record
	Fit   bool

	// Precondition's auto mode fully fills the device: traces mix reads
	// and writes, and reads must hit data.
	Precondition Precond

	// Inspect is as for Closed.
	Inspect func(dev blockdev.Device, c Cell) any
}

func (k Replay) validate(devices []NamedFactory) error {
	if len(k.Trace) == 0 {
		return fmt.Errorf("expgrid: trace sweep has no records")
	}
	return factories(devices)
}

func (k Replay) cells(dev coordHash, add func(Cell, coordHash)) {
	// The trace itself is deterministic, so only the device identity
	// needs decorrelating.
	dev.str("trace")
	add(Cell{WriteRatioPct: -1}, dev)
}

func (k Replay) settings() fpSettings {
	f := fpSettings{kind: 2, precond: k.Precondition, trace: k.Trace}
	if k.Fit {
		f.tag = "fittrace"
	}
	return f
}

func (k Replay) run(f Factory, c Cell, out *CellResult) (*sim.Engine, []blockdev.Device) {
	return onDevice(f, c, out, k.Precondition, false, k.Inspect, func(dev blockdev.Device) {
		recs := k.Trace
		if k.Fit {
			recs = trace.Fit(recs, dev.Capacity(), int64(dev.BlockSize()))
		}
		out.Replay = trace.Replay(dev, recs)
	})
}

func (k Replay) describe(c Cell) string { return fmt.Sprintf("%s trace", c.DeviceName) }

func (k Replay) inspects() bool { return k.Inspect != nil }

// onDevice runs one cell of a device-built kind: a fresh device from the
// cell's factory, prepared per mode, measured, then inspected.
func onDevice(f Factory, c Cell, out *CellResult, mode Precond, writes bool,
	inspect func(blockdev.Device, Cell) any, measure func(blockdev.Device)) (*sim.Engine, []blockdev.Device) {
	dev := f(c.Seed)
	out.Device = dev.Name()
	mode.Apply(dev, writes)
	measure(dev)
	if inspect != nil {
		out.capture(inspect(dev, c))
	}
	return dev.Engine(), []blockdev.Device{dev}
}

// Tenants runs workload.RunTenants: several generators against distinct
// volumes inside one engine, the shared-backend multi-tenant regime.
// Cells enumerate devices (backend variants) × aggressor counts ×
// per-aggressor rates × aggressor write ratios; Build constructs each
// cell's engine, backend(s), volumes, and tenant mix from those
// coordinates.
type Tenants struct {
	// AggressorCounts and RatesPerSec are required; include count 0 for
	// solo-victim control cells. Counts must be >= 0 and rates finite and
	// positive. Unlike Closed and Open, WriteRatiosPct applies to every
	// cell (the aggressor pattern is the hook's choice, not a
	// coordinate); an empty axis yields the single sentinel -1.
	AggressorCounts []int
	RatesPerSec     []float64
	WriteRatiosPct  []int

	// Build builds a cell's engine and tenant mix; it is required. Like a
	// device Factory, its semantics are outside the cache key: it must be
	// a pure function of the cell (seed included), and callers changing
	// what it builds should change the sweep Label with it.
	Build func(c Cell) (*sim.Engine, []workload.Tenant)

	// Inspect, when non-nil, runs on the worker after the cell's mix
	// drains, with every tenant's device still alive; its return value is
	// encoded into CellResult.Info as for Closed.
	Inspect func(tenants []workload.Tenant, c Cell) any
}

func (k Tenants) validate([]NamedFactory) error {
	if k.Build == nil {
		return fmt.Errorf("expgrid: tenant sweep has no Build hook")
	}
	return errors.Join(
		axis("tenant", "aggressor count", k.AggressorCounts, func(n int) bool { return n >= 0 }, ">= 0"),
		axis("tenant", "rate", k.RatesPerSec, finiteRate, "finite and > 0"),
		ratios(k.WriteRatiosPct),
	)
}

func (k Tenants) cells(dev coordHash, add func(Cell, coordHash)) {
	ratios := k.WriteRatiosPct
	if len(ratios) == 0 {
		ratios = []int{-1}
	}
	dev.str("tenants")
	for _, n := range k.AggressorCounts {
		for _, rate := range k.RatesPerSec {
			for _, wr := range ratios {
				add(Cell{Aggressors: n, RatePerSec: rate, WriteRatioPct: wr},
					dev.with(uint64(n)+1, floatWord(rate), ratioWord(wr)))
			}
		}
	}
}

func (k Tenants) settings() fpSettings { return fpSettings{kind: 3} }

func (k Tenants) run(_ Factory, c Cell, out *CellResult) (*sim.Engine, []blockdev.Device) {
	eng, tenants := k.Build(c)
	out.Device = c.DeviceName
	out.Mix = workload.RunTenants(eng, tenants)
	if k.Inspect != nil {
		out.capture(k.Inspect(tenants, c))
	}
	devs := make([]blockdev.Device, len(tenants))
	for i, t := range tenants {
		devs[i] = t.Dev
	}
	return eng, devs
}

func (k Tenants) describe(c Cell) string {
	return fmt.Sprintf("%s tenants aggr=%d @%.0f/s wr=%d", c.DeviceName, c.Aggressors, c.RatePerSec, c.WriteRatioPct)
}

func (k Tenants) inspects() bool { return k.Inspect != nil }

// KV runs kv.RunMix: several key-value tenants (LSM or page-store engines
// on volumes of one shared backend) driven by open-loop zipfian point
// reads and writes inside one engine. Cells enumerate devices (backend
// tiers) × engine designs × key skews × value sizes; Build constructs
// each cell's engine and tenant set from those coordinates. Per-tenant
// shape (tenant count, rate, ops, read fraction) is the hook's choice,
// not a coordinate — fold it into the sweep Label.
type KV struct {
	// Engines, Skews, and ValueSizes are required. Engine names are
	// opaque to the grid (Build interprets them) but must be non-empty;
	// skews must lie in [0, 1) and value sizes must be positive.
	Engines    []string
	Skews      []float64
	ValueSizes []int64

	// Build builds a cell's engine and tenant set; it is required, with
	// the same contract as Tenants.Build.
	Build func(c Cell) (*sim.Engine, []kv.MixTenant)

	// Inspect, when non-nil, runs on the worker after the cell's tenants
	// drain, with every storage engine and device still alive; its return
	// value is encoded into CellResult.Info as for Closed.
	Inspect func(tenants []kv.MixTenant, c Cell) any
}

func (k KV) validate([]NamedFactory) error {
	if k.Build == nil {
		return fmt.Errorf("expgrid: kv sweep has no Build hook")
	}
	return errors.Join(
		axis("kv", "engine", k.Engines, func(e string) bool { return e != "" }, "a name"),
		axis("kv", "skew", k.Skews, func(th float64) bool { return th >= 0 && th < 1 }, "in [0, 1)"),
		axis("kv", "value size", k.ValueSizes, positive[int64], "> 0"),
	)
}

func (k KV) cells(dev coordHash, add func(Cell, coordHash)) {
	dev.str("kv")
	for _, e := range k.Engines {
		eh := dev
		eh.str(e)
		for _, th := range k.Skews {
			for _, vs := range k.ValueSizes {
				add(Cell{KVEngine: e, KVSkew: th, ValueSize: vs, WriteRatioPct: -1},
					eh.with(floatWord(th), uint64(vs)))
			}
		}
	}
}

func (k KV) settings() fpSettings { return fpSettings{kind: 4} }

func (k KV) run(_ Factory, c Cell, out *CellResult) (*sim.Engine, []blockdev.Device) {
	eng, tenants := k.Build(c)
	out.Device = c.DeviceName
	out.KV = kv.RunMix(eng, tenants)
	if k.Inspect != nil {
		out.capture(k.Inspect(tenants, c))
	}
	// Each storage engine goes back to its pool ahead of the device under
	// it, which the sweep then releases.
	devs := make([]blockdev.Device, len(tenants))
	for i, t := range tenants {
		devs[i] = t.Engine.Device()
		if r, ok := t.Engine.(interface{ Release() }); ok {
			r.Release()
		}
	}
	return eng, devs
}

func (k KV) describe(c Cell) string {
	return fmt.Sprintf("%s kv %s skew=%g val=%d", c.DeviceName, c.KVEngine, c.KVSkew, c.ValueSize)
}

func (k KV) inspects() bool { return k.Inspect != nil }
