package expgrid

import (
	"encoding/json"
	"fmt"
	"math"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/trace"
	"essdsim/internal/workload"
	"essdsim/kv"
)

// Factory constructs a fresh device (with its own engine) for one
// experiment cell. seed decorrelates repeated constructions.
type Factory func(seed uint64) blockdev.Device

// NamedFactory is one value of a sweep's device axis. The name feeds the
// cell seed derivation, so it should be stable across runs (a profile name
// like "essd1", not a pointer-ish string).
type NamedFactory struct {
	Name string
	New  Factory
}

// Devices is a convenience constructor for a single-device axis.
func Devices(name string, f Factory) []NamedFactory {
	return []NamedFactory{{Name: name, New: f}}
}

// Precond selects how a cell's device is prepared before measurement.
type Precond uint8

// Preconditioning modes.
const (
	// PrecondAuto half-fills the device for pure-write patterns (a GC-free
	// window) and fully fills it otherwise (so reads hit data).
	PrecondAuto Precond = iota
	// PrecondWrites always uses the write-cell preparation (half fill).
	PrecondWrites
	// PrecondFull always fully, sequentially fills the device.
	PrecondFull
	// PrecondNone runs on the pristine device (e.g. sustained-write
	// experiments that measure the fill itself).
	PrecondNone
)

// Precondition prepares a device for a measurement cell. Write cells get a
// half-filled device (a GC-free window, as on a freshly provisioned or
// trimmed drive); read cells get a fully, sequentially written device (the
// layout after a fio fill pass).
func Precondition(dev blockdev.Device, forWrites bool) {
	fill := 1.0
	if forWrites {
		fill = 0.5
	}
	switch d := dev.(type) {
	case interface{ Precondition(float64) }:
		d.Precondition(fill)
	case interface{ Precondition(float64, bool) }:
		d.Precondition(fill, false)
	}
}

// Apply prepares dev for a measurement per the mode: auto gives write
// workloads (writes) the half fill and every other workload a full one,
// and none leaves the device pristine.
func (m Precond) Apply(dev blockdev.Device, writes bool) {
	switch m {
	case PrecondAuto:
		Precondition(dev, writes)
	case PrecondWrites:
		Precondition(dev, true)
	case PrecondFull:
		Precondition(dev, false)
	}
}

// CellKind is the workload family a sweep's cells run: Closed, Open,
// Replay, Tenants, or KV. Each kind carries only its own axes, settings,
// and hooks, and its methods validate those axes, enumerate one device's
// cells, hash the cells' coordinates into their seeds, contribute the
// kind's settings to the cache fingerprint, and run and describe one
// cell. The methods are unexported: a new workload family enters as one
// more kind type in this package, with no switch to extend.
type CellKind interface {
	// validate checks the kind's axes and hooks against the device axis.
	validate(devices []NamedFactory) error
	// cells calls add once per cell of one device, in row-major order,
	// with the cell's kind coordinates and its seed hash: dev (the root
	// seed, label, and device name) extended by those coordinates.
	cells(dev coordHash, add func(Cell, coordHash))
	// settings is what the kind contributes to the sweep fingerprint.
	settings() fpSettings
	// run measures one cell into out, device from f (nil for the kinds
	// whose hooks build everything), and returns the engine and devices
	// to release once the cell is done.
	run(f Factory, c Cell, out *CellResult) (*sim.Engine, []blockdev.Device)
	// describe renders the cell's coordinates for error messages.
	describe(c Cell) string
	// inspects reports whether the kind has an inspect hook, so that a
	// cached entry must carry an Info to serve the cell.
	inspects() bool
}

// Sweep declares an experiment grid: the device axis, crossed with the
// axes of the sweep's Kind, plus the seeding and caching settings every
// kind shares.
type Sweep struct {
	// Devices is every kind's outermost axis and is always required.
	// Closed, Open, and Replay cells construct their device from its
	// factory; Tenants and KV cells are built entirely by their hooks, so
	// there the axis only names backend variants or tiers and factories
	// may be nil.
	Devices []NamedFactory

	// Kind selects what each cell runs and carries the kind's own axes,
	// settings, and hooks. It is required.
	Kind CellKind

	// Cache, when non-nil, memoizes successful cell results keyed by the
	// cell seed plus a fingerprint of the sweep's result-shaping settings:
	// a cell whose coordinates and settings match a cached entry returns
	// the stored measurement without constructing a device. Results served
	// from the cache are shared pointers — treat them as read-only.
	Cache *Cache

	// ForceRun bypasses cache reads (cells always simulate) while still
	// storing fresh results. Observability runs set it: a cache-warm cell
	// would return its stored measurement without producing any trace or
	// probe samples. The cache fingerprint is unchanged, so forced runs
	// refresh the same entries ordinary runs read.
	ForceRun bool

	// Seed is the root seed; Label further decorrelates sweeps that share
	// a root seed and coordinates (e.g. two experiments on one CLI seed).
	// Both feed every cell seed.
	Seed  uint64
	Label string

	// Variant distinguishes sweeps that must NOT share cache entries but
	// must measure identical arrival streams: it feeds the cache
	// fingerprint (when non-empty; "" keeps the pre-Variant fingerprint)
	// and not the cell seeds. The isolation axis uses it — every policy
	// variant of a scenario sees the same per-cell workload draws, so
	// differences are pure scheduling effects, while each variant caches
	// separately.
	Variant string

	// fingerprint memoizes the cache fingerprint; set by Runner.Stream.
	fingerprint uint64
}

// fpSettings is a kind's share of the sweep fingerprint: the settings the
// kinds once shared as Sweep fields, hashed in their original order for
// every kind so that fingerprints, and with them persisted cache keys,
// never moved. A kind sets what it has and leaves the rest zero; the
// closed-loop window is hashed after its defaults apply (500 ms and
// 50 ms for kinds that have none).
type fpSettings struct {
	kind             uint64 // 0 closed, 1 open, 2 replay, 3 tenants, 4 kv
	duration, warmup sim.Duration
	capMultiple      float64
	precond          Precond
	ops              uint64
	interval         sim.Duration
	tag              string         // "winpct" or "fittrace"; hashed when set
	trace            []trace.Record // hashed after the variant
}

// Fingerprint hashes every sweep setting that shapes a cell's measurement
// but is not part of the cell's coordinates (and hence its seed): the
// kind, time bounds, preconditioning, open-loop knobs, the variant, and
// the trace content. A Cache entry is shared between two sweeps only when
// their fingerprints and the cell seeds both match. Zero-valued settings
// are normalized to their runtime defaults first, so the returned value
// is exactly what the runner keys the cache with. A sweep without a Kind
// has fingerprint 0.
func (s Sweep) Fingerprint() uint64 {
	kind := s.Kind
	if kind == nil {
		return 0
	}
	f := kind.settings()
	dur, warmup := window(f.duration, f.warmup)
	h := newCoordHash()
	h.str("essdsim-cache-v1")
	h = h.with(f.kind, uint64(dur), uint64(int64(warmup)+1), floatWord(f.capMultiple),
		uint64(f.precond), f.ops, uint64(f.interval))
	if f.tag != "" {
		h.str(f.tag)
	}
	if s.Variant != "" {
		h.str("variant")
		h.str(s.Variant)
	}
	for _, r := range f.trace {
		h = h.with(uint64(r.At), uint64(r.Op), uint64(r.Offset), uint64(r.Size))
	}
	return h.finish()
}

// window applies the closed-loop measurement window defaults: a 500 ms
// duration and a 50 ms warmup, where a negative warmup means none.
func window(dur, warmup sim.Duration) (sim.Duration, sim.Duration) {
	if dur <= 0 {
		dur = 500 * sim.Millisecond
	}
	if warmup == 0 {
		warmup = 50 * sim.Millisecond
	} else if warmup < 0 {
		warmup = 0
	}
	return dur, warmup
}

// Validate reports a descriptive error for a sweep without devices or
// kind, or with empty or nonsensical axes of its kind. Axis values are
// checked here rather than left to flow into cell construction: a bad
// entry fails the sweep before any cell simulates, with the axis named,
// instead of as a mid-sweep cell panic.
func (s Sweep) Validate() error {
	kind := s.Kind
	switch {
	case len(s.Devices) == 0:
		return fmt.Errorf("expgrid: sweep has no device axis")
	case kind == nil:
		return fmt.Errorf("expgrid: sweep has no kind")
	}
	return kind.validate(s.Devices)
}

// axis checks one axis of a kind: it must have at least one value, and ok
// (when non-nil) must accept every value; want describes the valid range.
func axis[T any](kind, name string, vals []T, ok func(T) bool, want string) error {
	if len(vals) == 0 {
		return fmt.Errorf("expgrid: %s sweep has no %s axis", kind, name)
	}
	for _, v := range vals {
		if ok != nil && !ok(v) {
			return fmt.Errorf("expgrid: %s sweep %s %v, want %s", kind, name, v, want)
		}
	}
	return nil
}

// ratios checks an optional write-ratio axis. It admits the documented -1
// sentinel (pure-read Mixed cells; "hook's choice" for tenant mixes) but
// nothing else outside a percentage.
func ratios(vals []int) error {
	for _, wr := range vals {
		if wr < -1 || wr > 100 {
			return fmt.Errorf("expgrid: write ratio %d%% out of [-1, 100]", wr)
		}
	}
	return nil
}

// factories checks that every device of a device-built kind has one.
func factories(devices []NamedFactory) error {
	for _, d := range devices {
		if d.New == nil {
			return fmt.Errorf("expgrid: device %q has a nil factory", d.Name)
		}
	}
	return nil
}

// Axis-value predicates shared by the kinds' validation. Each is written
// so that NaN fails it.
func positive[T int | int64](v T) bool { return v > 0 }
func finiteRate(r float64) bool        { return r > 0 && r < math.Inf(1) }

// Cell is one point of the grid: its coordinates, its position in the
// deterministic enumeration order, and its derived seed. Coordinates that
// the sweep's kind does not have are zero, except WriteRatioPct, which is
// -1 when the cell has no write ratio.
type Cell struct {
	Index       int    // position in enumeration order
	DeviceIndex int    // index into Sweep.Devices
	DeviceName  string // Sweep.Devices[DeviceIndex].Name

	// Closed and Open coordinates (QueueDepth is Closed only).
	Pattern       workload.Pattern
	BlockSize     int64
	QueueDepth    int
	WriteRatioPct int // also the Tenants aggressor write ratio

	// Open coordinates; RatePerSec is also the Tenants per-aggressor rate.
	Arrival    workload.Arrival
	RatePerSec float64

	// Aggressors is the Tenants aggressor count (0 also for solo-victim
	// control cells).
	Aggressors int

	// KV coordinates.
	KVEngine  string  // storage-engine design ("lsm", "pagestore")
	KVSkew    float64 // zipfian key skew theta in [0, 1)
	ValueSize int64   // put value size in bytes

	Seed uint64 // derived from the coordinates, independent of Index
}

// writeRatio is the cell's write ratio as a workload fraction (0 when the
// cell has none).
func (c Cell) writeRatio() float64 {
	if c.WriteRatioPct < 0 {
		return 0
	}
	return float64(c.WriteRatioPct) / 100
}

// Measurement is what one cell measured, and also the record a Cache
// keeps and persists for it. Exactly one measurement field is set, by the
// sweep's kind: Res for Closed cells, Open for Open cells, Replay for
// Replay cells, Mix for Tenants cells, and KV for KV cells. Info holds the
// kind's inspect-hook capture, JSON-encoded once when the cell runs; read
// it with DecodeInfo. The JSON tags are the cache file's wire names.
type Measurement struct {
	Device string                   `json:"device,omitempty"` // constructed device's display name
	Res    *workload.Result         `json:"closed,omitempty"`
	Open   *workload.OpenResult     `json:"open,omitempty"`
	Replay *trace.ReplayResult      `json:"replay,omitempty"`
	Mix    []*workload.TenantResult `json:"mix,omitempty"` // Tenants cells: per-tenant results
	KV     []*kv.MixResult          `json:"kv,omitempty"`  // KV cells: per-tenant results
	Info   json.RawMessage          `json:"info,omitempty"`
}

// capture encodes an inspect hook's return value into Info; nil leaves
// Info empty. A capture that cannot encode panics, which Sweep.run turns
// into the cell's error.
func (m *Measurement) capture(v any) {
	if v == nil {
		return
	}
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Errorf("inspect capture: %w", err))
	}
	m.Info = raw
}

// DecodeInfo decodes a cell's inspect-hook capture into T, the type the
// sweep's hook returns. Fresh and cache-served cells decode alike. A cell
// without a capture, or whose capture does not decode into T, is an error
// naming the cell.
func DecodeInfo[T any](r CellResult) (T, error) {
	var v T
	if err := json.Unmarshal(r.Info, &v); err != nil {
		return v, fmt.Errorf("expgrid: cell %d (%s): decode info: %w", r.Index, r.DeviceName, err)
	}
	return v, nil
}

// CellResult pairs a cell with its measurement. Err is set when the cell
// failed (e.g. an invalid workload spec or a capture that cannot encode);
// the Measurement is then zero.
type CellResult struct {
	Cell
	Measurement
	Cached bool // served from Sweep.Cache instead of a fresh simulation
	Err    error
}

// Cells enumerates the grid in deterministic row-major order: devices
// outermost, then the kind's axes in the order its type documents. A
// sweep without a Kind has no cells.
func (s Sweep) Cells() []Cell {
	kind := s.Kind
	if kind == nil {
		return nil
	}
	var cells []Cell
	for di, d := range s.Devices {
		dev := newCoordHash()
		dev.word(s.Seed)
		dev.str(s.Label)
		dev.str(d.Name)
		kind.cells(dev, func(c Cell, h coordHash) {
			c.Index, c.DeviceIndex, c.DeviceName, c.Seed = len(cells), di, d.Name, h.finish()
			cells = append(cells, c)
		})
	}
	return cells
}

// coordHash is the FNV-1a accumulator behind the seed derivations and the
// fingerprint; finish applies a splitmix64 finalizer so adjacent
// coordinates land far apart in seed space.
type coordHash uint64

const (
	coordOffset = 0xcbf29ce484222325
	coordPrime  = 0x100000001b3
)

func newCoordHash() coordHash { return coordOffset }

func (h *coordHash) word(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x = (x ^ (v & 0xff)) * coordPrime
		v >>= 8
	}
	*h = coordHash(x)
}

func (h *coordHash) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * coordPrime
	}
	x = (x ^ 0xff) * coordPrime // terminator so "ab","c" != "a","bc"
	*h = coordHash(x)
}

// with returns h extended by words, leaving h itself unchanged.
func (h coordHash) with(words ...uint64) coordHash {
	for _, w := range words {
		h.word(w)
	}
	return h
}

func (h coordHash) finish() uint64 {
	x := uint64(h)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ratioWord is a write-ratio coordinate's seed word (-1 hashes as 1).
func ratioWord(wr int) uint64 { return uint64(int64(wr) + 2) }

// floatWord is a float coordinate's seed word: its IEEE-754 bits.
func floatWord(f float64) uint64 { return math.Float64bits(f) }

// run executes one cell through its kind. Panics from invalid specs (or
// device bugs) are captured into CellResult.Err so one bad cell fails the
// sweep cleanly instead of killing the worker pool.
func (s Sweep) run(c Cell) (out CellResult) {
	if s.Cache != nil && !s.ForceRun {
		if res, ok := s.Cache.lookup(s.fingerprint, c, s.Kind.inspects()); ok {
			return res
		}
	}
	defer func() {
		if p := recover(); p != nil {
			out = CellResult{Cell: c, Err: fmt.Errorf("expgrid: cell %d (%s): %v", c.Index, s.Kind.describe(c), p)}
		}
		if s.Cache != nil && out.Err == nil {
			s.Cache.store(s.fingerprint, out)
		}
	}()
	out = CellResult{Cell: c}
	eng, devs := s.Kind.run(s.Devices[c.DeviceIndex].New, c, &out)
	// The cell is measured and inspected: hand pooled buffers and the
	// engine back for the next cell. Deliberately skipped on the panic
	// path (the deferred recover returns before reaching here), so a
	// half-built cell can never poison the pools. Devices without pooled
	// state are left alone. The inspect capture is already encoded, so no
	// released state can leak into it.
	for _, dev := range devs {
		if r, ok := dev.(interface{ ReleaseResources() }); ok {
			r.ReleaseResources()
		}
	}
	sim.ReleaseEngine(eng)
	return out
}
