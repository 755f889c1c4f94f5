// Package essdsim is the public API of the elastic-SSD simulation library,
// a reproduction of "The Unwritten Contract of Cloud-based Elastic
// Solid-State Drives" (Wang & Yang, DAC 2025).
//
// The library provides:
//
//   - calibrated simulated devices: two cloud ESSDs (AWS io2 class and
//     Alibaba PL3 class) and a local NVMe SSD (Samsung 970 Pro class),
//     all behind one block-device interface;
//   - a fio-style workload engine with latency histograms and throughput
//     timelines measured in deterministic virtual time;
//   - experiment harnesses that regenerate every table and figure of the
//     paper;
//   - a contract checker that verdicts the paper's four observations on
//     any device and prints the five implications;
//   - declarative experiment grids (Sweep) executed on a parallel worker
//     pool with deterministic per-cell seeding, plus a sweep-level result
//     cache (SweepCache) that memoizes cells across sweeps and persists to
//     JSON;
//   - the burst-credit scenario suite (RunBurstScenario) and a latency-SLO
//     search (SearchSLO) that binary-searches offered rate for the highest
//     rate meeting a p99/p99.9 target, reporting both the pre-exhaustion
//     and post-cliff answers of burstable tiers;
//   - shared-backend multi-tenancy: many volumes attached to one Backend
//     (NewBackend/AttachVolume) contending on its cluster, fabric, and
//     cleaner, a tenant-mix driver (RunTenantMix) running their
//     generators inside one engine, and the noisy-neighbor scenario suite
//     (RunNeighborScenario) measuring victim tail inflation and
//     shared-debt throttle onset;
//   - fleet-scale tenant packing (RunFleet): a catalog of tenant demands
//     (synthetic or fitted from real traces) placed onto many shared
//     backends by pluggable placement policies — first-fit, spread,
//     best-fit, interference-aware — with per-policy SLO-violation,
//     utilization, and worst-victim-inflation comparisons;
//   - pluggable per-tenant QoS isolation (Isolation, docs/isolation.md):
//     every contention point of the shared backend — cluster streams,
//     pooled cleaner debt, fabric links — schedules per-flow under fifo
//     (the byte-identical default), weighted fair queueing, or
//     work-conserving reservations, with per-volume Weight/ReservedRate,
//     the policy-comparison suite (RunIsolationComparison), and the
//     isolation × placement fleet study (RunFleetIsolationStudy); and
//   - CSV/JSON exports of every suite for plotting (docs/formats.md).
//
// Quick start:
//
//	eng := essdsim.NewEngine()
//	dev := essdsim.NewESSD1(eng, 42)
//	essdsim.Precondition(dev, true)
//	res := essdsim.Run(dev, essdsim.Workload{
//	    Pattern:    essdsim.RandWrite,
//	    BlockSize:  4 << 10,
//	    QueueDepth: 1,
//	    Duration:   500 * essdsim.Millisecond,
//	})
//	fmt.Println(res.Lat.Summarize())
package essdsim

import (
	"context"
	"io"

	"essdsim/internal/blockdev"
	"essdsim/internal/churn"
	"essdsim/internal/contract"
	"essdsim/internal/essd"
	"essdsim/internal/expgrid"
	"essdsim/internal/fio"
	"essdsim/internal/fleet"
	"essdsim/internal/harness"
	"essdsim/internal/obs"
	"essdsim/internal/profiles"
	"essdsim/internal/qos"
	"essdsim/internal/scenario"
	"essdsim/internal/sim"
	"essdsim/internal/slo"
	"essdsim/internal/ssd"
	"essdsim/internal/stats"
	"essdsim/internal/trace"
	"essdsim/internal/workload"
	"essdsim/kv"
)

// Core simulation types.
type (
	// Engine is the discrete-event simulation engine devices run on.
	Engine = sim.Engine
	// Time is a point in simulated time (nanoseconds).
	Time = sim.Time
	// Duration is a span of simulated time (nanoseconds).
	Duration = sim.Duration
	// Device is a simulated block storage device.
	Device = blockdev.Device
	// Request is one asynchronous block I/O.
	Request = blockdev.Request
	// Op is a block operation type.
	Op = blockdev.Op
)

// Duration units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Block operation types.
const (
	OpRead  = blockdev.Read
	OpWrite = blockdev.Write
	OpTrim  = blockdev.Trim
	OpFlush = blockdev.Flush
)

// Workload types.
type (
	// Workload describes one fio-style run (pattern, bs, qd, bounds).
	Workload = workload.Spec
	// WorkloadResult holds the measurements of one run.
	WorkloadResult = workload.Result
	// Pattern is a fio-style access pattern.
	Pattern = workload.Pattern
	// Histogram is an HDR-style latency histogram.
	Histogram = stats.Histogram
	// LatencySummary is a histogram snapshot (avg, p50, p99, p99.9, max).
	LatencySummary = stats.Summary
)

// Access patterns.
const (
	RandWrite = workload.RandWrite
	SeqWrite  = workload.SeqWrite
	RandRead  = workload.RandRead
	SeqRead   = workload.SeqRead
	Mixed     = workload.Mixed
)

// NewEngine returns a fresh simulation engine with the clock at zero.
func NewEngine() *Engine { return sim.NewEngine() }

// NewESSD1 builds the calibrated ESSD-1 (Amazon AWS io2 class) volume.
func NewESSD1(eng *Engine, seed uint64) *essd.ESSD {
	return profiles.NewESSD1(eng, sim.NewRNG(seed, seed^0x1))
}

// NewESSD2 builds the calibrated ESSD-2 (Alibaba Cloud PL3 class) volume.
func NewESSD2(eng *Engine, seed uint64) *essd.ESSD {
	return profiles.NewESSD2(eng, sim.NewRNG(seed, seed^0x2))
}

// NewLocalSSD builds the calibrated local SSD (Samsung 970 Pro class).
func NewLocalSSD(eng *Engine, seed uint64) *ssd.SSD {
	return profiles.NewSSD(eng, sim.NewRNG(seed, seed^0x3))
}

// NewDevice builds a device by profile name: "essd1", "essd2", "ssd",
// "gp3", or "pl1".
func NewDevice(name string, eng *Engine, seed uint64) (Device, error) {
	return profiles.ByName(name, eng, sim.NewRNG(seed, seed^0x4))
}

// Shared-backend multi-tenancy types: the storage side of the stack
// (cluster + fabric + background cleaner) is a Backend that any number of
// volumes attach to, as in the paper's disaggregated Fig 1. Attached
// volumes contend on the backend's resources and the backend attributes
// debt, cluster operations, and fabric bytes per volume.
type (
	// Backend is a shared storage backend (one cluster + one fabric).
	Backend = essd.Backend
	// BackendConfig parameterizes a shared backend.
	BackendConfig = essd.BackendConfig
	// VolumeConfig parameterizes one volume attached to a backend.
	VolumeConfig = essd.VolumeConfig
	// Volume is an ESSD volume attached to a (possibly shared) backend.
	Volume = essd.ESSD
	// BackendVolumeStats is one volume's attributed use of its backend.
	BackendVolumeStats = essd.VolumeStats
)

// NewBackend builds a shared storage backend on the engine. Attach volumes
// with AttachVolume (or Backend.Attach).
func NewBackend(eng *Engine, cfg BackendConfig, seed uint64) *Backend {
	return essd.NewBackend(eng, cfg, sim.NewRNG(seed, seed^0x6))
}

// AttachVolume attaches a volume to the shared backend with a fresh RNG
// built from the seed and decorrelated by the volume name. Because each
// call constructs its own RNG (nothing shared between calls), attach
// order does not perturb other volumes' draws — unlike Backend.Attach
// calls sharing one parent RNG, whose order is part of the deterministic
// construction sequence.
func AttachVolume(b *Backend, cfg VolumeConfig, seed uint64) *Volume {
	return b.Attach(cfg, sim.NewRNG(seed, seed^0x7))
}

// NeighborBackendConfig returns the shared backend used by the
// noisy-neighbor studies: ESSD-1-class fabric and cluster with a modest
// background cleaner.
func NeighborBackendConfig() BackendConfig { return profiles.NeighborBackendConfig() }

// NeighborVolumeConfig returns the per-volume half of a tenant on the
// neighbor backend: gp3-class budgets with a tight spare-capacity margin.
func NeighborVolumeConfig(name string) VolumeConfig { return profiles.NeighborVolumeConfig(name) }

// ProfileNames lists the valid NewDevice profile names.
func ProfileNames() []string { return profiles.Names() }

// Run executes a workload on a device, driving its engine until every
// outstanding I/O drains, and returns the measurements.
func Run(dev Device, spec Workload) *WorkloadResult { return workload.Run(dev, spec) }

// Open-loop workload types.
type (
	// OpenWorkload describes an arrival-driven (open-loop) run: requests
	// issue on a schedule regardless of completions.
	OpenWorkload = workload.OpenSpec
	// OpenWorkloadResult holds open-loop measurements, including the
	// completion timelines used for latency-cliff analysis.
	OpenWorkloadResult = workload.OpenResult
	// Arrival is an open-loop arrival process.
	Arrival = workload.Arrival
)

// Arrival processes.
const (
	ArrivalUniform = workload.Uniform
	ArrivalPoisson = workload.Poisson
	ArrivalBursty  = workload.Bursty
)

// RunOpen executes an open-loop workload on a device, driving its engine
// until every request completes.
func RunOpen(dev Device, spec OpenWorkload) *OpenWorkloadResult {
	return workload.RunOpen(dev, spec)
}

// ParseArrival converts an arrival-shape name ("uniform", "poisson",
// "bursty") into an Arrival.
func ParseArrival(s string) (Arrival, error) { return workload.ParseArrival(s) }

// Tenant-mix types: several generators driving distinct volumes inside one
// engine — the multi-tenant regime where volumes sharing a Backend
// interfere.
type (
	// Tenant pairs one volume with its generator (open- or closed-loop).
	Tenant = workload.Tenant
	// TenantResult holds one tenant's measurements from RunTenantMix.
	TenantResult = workload.TenantResult
)

// RunTenantMix drives several tenants' generators concurrently inside one
// engine: all generators start, then a single engine run drains them, so
// the tenants' I/O interleaves the way concurrent guests on a shared
// backend would. Results are returned in tenant order. It panics on
// invalid tenants (no device, device on another engine, both or neither
// spec set) — the same contract as Run and RunOpen.
func RunTenantMix(eng *Engine, tenants []Tenant) []*TenantResult {
	return workload.RunTenants(eng, tenants)
}

// Precondition prepares a device for measurement: write experiments get a
// GC-free half-filled device; read experiments a fully written one.
func Precondition(dev Device, forWrites bool) { expgrid.Precondition(dev, forWrites) }

// ParseFioJobs parses a fio job file subset into named workloads.
func ParseFioJobs(r io.Reader) ([]fio.Job, error) { return fio.Parse(r) }

// Trace types.
type (
	// TraceRecord is one traced I/O.
	TraceRecord = trace.Record
	// TraceReplayResult summarizes a trace replay.
	TraceReplayResult = trace.ReplayResult
)

// ReadTrace parses a text trace.
func ReadTrace(r io.Reader) ([]TraceRecord, error) { return trace.Read(r) }

// ReadTraceFormat parses a trace in the named format: "text" (native) or
// "msr" (MSR-Cambridge CSV) — the single dispatch behind every CLI trace
// flag.
func ReadTraceFormat(r io.Reader, format string) ([]TraceRecord, error) {
	return trace.ReadFormat(r, format)
}

// ParseMSRTrace converts MSR-Cambridge block-trace CSV rows
// (Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime) into
// replayable records, rebased so the earliest request issues at time zero.
// Pass the result through FitTrace before replaying onto a scaled
// simulated device.
func ParseMSRTrace(r io.Reader) ([]TraceRecord, error) { return trace.ParseMSR(r) }

// FitTrace maps a foreign trace onto a device geometry: offsets aligned
// and wrapped modulo capacity, sizes rounded to whole blocks and clamped.
func FitTrace(recs []TraceRecord, capacity, blockSize int64) []TraceRecord {
	return trace.Fit(recs, capacity, blockSize)
}

// WriteTrace serializes a text trace.
func WriteTrace(w io.Writer, recs []TraceRecord) error { return trace.Write(w, recs) }

// ReplayTrace replays records against a device open-loop.
func ReplayTrace(dev Device, recs []TraceRecord) *TraceReplayResult {
	return trace.Replay(dev, recs)
}

// Experiment harness types.
type (
	// ExperimentOptions tune harness durations and seeding.
	ExperimentOptions = harness.Options
	// LatencyGrid is a Figure 2 measurement.
	LatencyGrid = harness.LatencyGrid
	// SustainedResult is a Figure 3 measurement.
	SustainedResult = harness.SustainedResult
	// RandSeqResult is a Figure 4 measurement.
	RandSeqResult = harness.RandSeqResult
	// MixedResult is a Figure 5 measurement.
	MixedResult = harness.MixedResult
	// DeviceFactory constructs a fresh device for one experiment cell.
	DeviceFactory = harness.Factory
)

// Experiment-grid types: declarative parameter sweeps executed on a
// parallel worker pool with deterministic per-cell seeding and output
// order. See internal/expgrid's package documentation for the
// cell-isolation and seed-derivation model.
type (
	// Sweep declares an experiment grid: the device axis crossed with the
	// axes of its Kind.
	Sweep = expgrid.Sweep
	// SweepCell is one point of a grid with its derived seed.
	SweepCell = expgrid.Cell
	// SweepCellResult pairs a cell with its workload measurements.
	SweepCellResult = expgrid.CellResult
	// SweepRunner executes a Sweep's cells on a pool of workers.
	SweepRunner = expgrid.Runner
	// SweepProgress reports one completed cell to a progress callback.
	SweepProgress = expgrid.Progress
	// NamedFactory is one value of a sweep's device axis.
	NamedFactory = expgrid.NamedFactory
	// SweepPrecond selects how a cell's device is prepared before
	// measurement (see the Precond* constants).
	SweepPrecond = expgrid.Precond
	// SweepKind is what a Sweep's cells run: a SweepClosed, SweepOpen, or
	// SweepTraceReplay value carrying that family's own axes, settings,
	// and inspect hook.
	SweepKind = expgrid.CellKind
	// SweepClosed runs fio-style closed-loop cells over pattern,
	// block-size, queue-depth, and write-ratio axes.
	SweepClosed = expgrid.Closed
	// SweepOpen runs arrival-driven open-loop cells, adding arrival-shape
	// and offered-rate axes.
	SweepOpen = expgrid.Open
	// SweepTraceReplay replays one recorded trace on each device.
	SweepTraceReplay = expgrid.Replay
)

// Device-preconditioning modes for a sweep kind's Precondition.
const (
	PrecondAuto   = expgrid.PrecondAuto
	PrecondWrites = expgrid.PrecondWrites
	PrecondFull   = expgrid.PrecondFull
	PrecondNone   = expgrid.PrecondNone
)

// SweepDevices builds a single-device axis for a Sweep.
func SweepDevices(name string, f DeviceFactory) []NamedFactory {
	return expgrid.Devices(name, f)
}

// ProfileDevices builds a sweep device axis from profile names (see
// ProfileNames). A cell whose profile name is unknown fails with a
// descriptive error when it runs.
func ProfileDevices(names ...string) []NamedFactory {
	devices := make([]NamedFactory, 0, len(names))
	for _, name := range names {
		name := name
		devices = append(devices, NamedFactory{
			Name: name,
			New: func(seed uint64) Device {
				dev, err := NewDevice(name, NewEngine(), seed)
				if err != nil {
					panic(err) // expgrid recovers this into CellResult.Err
				}
				return dev
			},
		})
	}
	return devices
}

// RunSweep executes every cell of the sweep on workers goroutines
// (GOMAXPROCS when workers <= 0) and returns results in deterministic
// enumeration order. Cancel ctx to stop early.
func RunSweep(ctx context.Context, sw Sweep, workers int) ([]SweepCellResult, error) {
	return expgrid.Runner{Workers: workers}.Run(ctx, sw)
}

// RunSustainedWrites performs the paper's Figure 3 sustained-write
// experiment (random 128 KiB writes of capMultiple × capacity onto fresh
// devices) for several devices concurrently, returning results in the
// devices' order.
func RunSustainedWrites(devices []NamedFactory, capMultiple float64, opts ExperimentOptions) []*SustainedResult {
	return harness.RunSustainedWrites(devices, capMultiple, opts)
}

// Burst-credit scenario types: the Observation #4 / Implication #4 suite
// sweeping burstable tiers across write ratio × arrival shape × offered
// rate on the expgrid worker pool.
type (
	// BurstSweep declares a burst-credit exhaustion suite.
	BurstSweep = scenario.BurstSweep
	// BurstReport is the suite's full measurement.
	BurstReport = scenario.BurstReport
	// BurstCell is one measured point: credit-exhaustion time, throttle
	// and budget-stall state, and the pre/post-exhaustion latency cliff.
	BurstCell = scenario.BurstCell
)

// RunBurstScenario executes a burst-credit scenario sweep; zero-valued
// BurstSweep fields take defaults (the two calibrated burstable tiers,
// write ratios 0/50/100, uniform and bursty arrivals). Results are
// deterministic for any worker count, and a cache-warm re-run (BurstSweep.Cache)
// is byte-identical to a cold one.
func RunBurstScenario(ctx context.Context, s BurstSweep) (*BurstReport, error) {
	return scenario.RunBurst(ctx, s)
}

// FormatBurstReport writes the scenario report as an aligned table.
func FormatBurstReport(w io.Writer, r *BurstReport) { scenario.FormatBurst(w, r) }

// WriteBurstCSV dumps the scenario report as one CSV row per cell; see
// docs/formats.md for the schema.
func WriteBurstCSV(w io.Writer, r *BurstReport) error { return scenario.WriteBurstCSV(w, r) }

// WriteBurstTimelineCSV dumps every cell's per-interval completion
// timeline as CSV; see docs/formats.md for the schema.
func WriteBurstTimelineCSV(w io.Writer, r *BurstReport) error {
	return scenario.WriteBurstTimelineCSV(w, r)
}

// BurstTierDevices returns the default burstable device axis for a
// BurstSweep or an open-loop Sweep.
func BurstTierDevices() []NamedFactory { return scenario.BurstTierDevices() }

// Noisy-neighbor scenario types: a steady victim tenant vs bursty
// aggressor tenants on one shared Backend, swept over aggressor count ×
// rate × write ratio.
type (
	// NeighborSweep declares a noisy-neighbor suite.
	NeighborSweep = scenario.NeighborSweep
	// NeighborReport is the suite's full measurement.
	NeighborReport = scenario.NeighborReport
	// NeighborCell is one measured point: victim tail latency, its
	// inflation over the solo-victim control, and shared-debt throttle
	// onset.
	NeighborCell = scenario.NeighborCell
)

// RunNeighborScenario executes a noisy-neighbor sweep; zero-valued
// NeighborSweep fields take defaults (victim 64 KiB mixed at 300 req/s vs
// 0/1/2/4 bursty write-heavy aggressors at 800 and 1600 req/s each).
// Results are deterministic for any worker count, and a cache-warm re-run
// (NeighborSweep.Cache) simulates zero new cells.
func RunNeighborScenario(ctx context.Context, s NeighborSweep) (*NeighborReport, error) {
	return scenario.RunNeighbor(ctx, s)
}

// FormatNeighborReport writes the scenario report as an aligned table.
func FormatNeighborReport(w io.Writer, r *NeighborReport) { scenario.FormatNeighbor(w, r) }

// WriteNeighborCSV dumps the scenario report as one CSV row per cell; see
// docs/formats.md for the schema.
func WriteNeighborCSV(w io.Writer, r *NeighborReport) error { return scenario.WriteNeighborCSV(w, r) }

// Per-tenant QoS isolation types: every contention point of the shared
// backend (cluster streams, cleaner debt pool, fabric links) dispatches
// through a pluggable scheduling policy, with per-volume weights and
// reserved rates carried by VolumeConfig. The zero Isolation value is the
// original FIFO stack, bit-for-bit.
type (
	// Isolation selects the backend's QoS scheduling policy and knobs.
	Isolation = qos.Isolation
	// IsolationPolicy names a scheduling discipline: fifo, wfq, or
	// reservation.
	IsolationPolicy = qos.IsolationPolicy
	// IsolationComparison sweeps a neighbor scenario across isolation
	// policies on identical arrival streams.
	IsolationComparison = scenario.IsolationComparison
	// IsolationScenarioReport compares victim tails per policy.
	IsolationScenarioReport = scenario.IsolationReport
	// IsolationScenarioVariant is one policy's neighbor outcome.
	IsolationScenarioVariant = scenario.IsolationVariant
	// FleetIsolationStudySpec crosses a fleet study with isolation
	// configurations.
	FleetIsolationStudySpec = fleet.IsolationStudySpec
	// FleetIsolationStudyReport holds per-variant fleet outcomes.
	FleetIsolationStudyReport = fleet.IsolationStudyReport
)

// Isolation policy names accepted by ParseIsolationPolicy.
const (
	IsolationFIFO        = qos.IsolationFIFO
	IsolationWFQ         = qos.IsolationWFQ
	IsolationReservation = qos.IsolationReservation
)

// ParseIsolationPolicy maps a policy name to its IsolationPolicy,
// rejecting unknown names with a descriptive error.
func ParseIsolationPolicy(s string) (IsolationPolicy, error) {
	return qos.ParseIsolationPolicy(s)
}

// RunIsolationComparison runs the neighbor sweep once per isolation
// policy on identical arrival streams and reports victim-tail inflation
// per policy. Deterministic for any worker count; each policy caches
// separately under NeighborSweep.Cache.
func RunIsolationComparison(ctx context.Context, c IsolationComparison) (*IsolationScenarioReport, error) {
	return scenario.RunIsolationComparison(ctx, c)
}

// FormatIsolationReport writes the per-policy comparison table.
func FormatIsolationReport(w io.Writer, r *IsolationScenarioReport) { scenario.FormatIsolation(w, r) }

// WriteIsolationCSV dumps the comparison as one CSV row per (policy,
// cell); see docs/formats.md for the schema.
func WriteIsolationCSV(w io.Writer, r *IsolationScenarioReport) error {
	return scenario.WriteIsolationCSV(w, r)
}

// RunFleetIsolationStudy runs a fleet study once per isolation
// configuration, measuring how many SLO violations each placement policy
// sheds when the backend scheduler isolates tenants.
func RunFleetIsolationStudy(ctx context.Context, ss FleetIsolationStudySpec) (*FleetIsolationStudyReport, error) {
	return fleet.RunIsolationStudy(ctx, ss)
}

// FormatFleetIsolationStudy writes the isolation × placement trade-off
// matrix.
func FormatFleetIsolationStudy(w io.Writer, r *FleetIsolationStudyReport) {
	fleet.FormatIsolationStudy(w, r)
}

// NewDeviceQoS builds a device by profile name with a backend isolation
// policy and per-volume QoS share applied. With the zero Isolation and no
// weight or reservation it is exactly NewDevice; otherwise the profile
// must be essd-class (a local SSD has no shared backend to schedule).
func NewDeviceQoS(name string, iso Isolation, weight, reservedBps float64, eng *Engine, seed uint64) (Device, error) {
	return profiles.ByNameQoS(name, iso, weight, reservedBps, eng, sim.NewRNG(seed, seed^0x4))
}

// ProfileDevicesQoS builds a sweep device axis like ProfileDevices but
// with an isolation policy and per-volume QoS share applied to every
// profile. Pair with Sweep.Variant so isolated cells cache separately.
func ProfileDevicesQoS(iso Isolation, weight, reservedBps float64, names ...string) []NamedFactory {
	devices := make([]NamedFactory, 0, len(names))
	for _, name := range names {
		name := name
		devices = append(devices, NamedFactory{
			Name: name,
			New: func(seed uint64) Device {
				dev, err := NewDeviceQoS(name, iso, weight, reservedBps, NewEngine(), seed)
				if err != nil {
					panic(err) // expgrid recovers this into CellResult.Err
				}
				return dev
			},
		})
	}
	return devices
}

// Fleet tenant-packing types: a catalog of tenant demands placed onto
// many shared backends by pluggable placement policies, each placement
// materialized as independent Backend simulations on the sweep worker
// pool and compared policy-vs-policy.
type (
	// FleetSpec declares a fleet packing study: demands, templates,
	// budgets, policies, and the SLO targets.
	FleetSpec = fleet.Spec
	// FleetDemand describes one tenant volume to place.
	FleetDemand = fleet.Demand
	// FleetReport is the study outcome: one policy report per compared
	// policy over the identical catalog, plus shared solo controls.
	FleetReport = fleet.Report
	// FleetPolicyReport is one placement policy's complete outcome.
	FleetPolicyReport = fleet.PolicyReport
	// PlacementPolicy assigns tenant demands to backends.
	PlacementPolicy = fleet.PlacementPolicy
	// PlacementConstraints carries the per-backend packing budgets a
	// policy places against.
	PlacementConstraints = fleet.Constraints
	// FleetScreenSpec configures the two-fidelity screen: an analytic
	// candidate budget on top of a FleetSpec, with a cap on how many
	// Pareto-frontier placements are fully simulated.
	FleetScreenSpec = fleet.ScreenSpec
	// FleetScreenReport is the screen outcome: every scored candidate
	// summarized, the Pareto frontier, and the simulated frontier report.
	FleetScreenReport = fleet.ScreenReport
)

// RunFleet executes a fleet tenant-packing study: every policy places the
// identical demand catalog, each placement materializes as independent
// shared-backend simulations (plus one solo control per distinct demand
// shape), and all cells run in parallel on one sweep worker pool. Results
// are deterministic for any worker count; with FleetSpec.Cache a warm
// re-run simulates zero new cells.
func RunFleet(ctx context.Context, s FleetSpec) (*FleetReport, error) {
	return fleet.Run(ctx, s)
}

// DefaultPlacementPolicies returns the built-in policies in fixed order:
// first-fit, spread, best-fit, interference-aware.
func DefaultPlacementPolicies() []PlacementPolicy { return fleet.DefaultPolicies() }

// PlacementPolicyByName returns the built-in policy with the given name
// ("first-fit", "spread", "best-fit", "interference").
func PlacementPolicyByName(name string) (PlacementPolicy, error) {
	return fleet.PolicyByName(name)
}

// SyntheticFleetDemands builds a deterministic tenant catalog: aggressors
// bursty write floods spread evenly through steady mixed victims.
func SyntheticFleetDemands(total, aggressors int) []FleetDemand {
	return fleet.SyntheticDemands(total, aggressors)
}

// FleetDemandFromTrace converts a real trace into a placeable tenant
// demand: records fitted onto the volume geometry, then profiled into an
// open-loop rate, write mix, and request size.
func FleetDemandFromTrace(name string, recs []TraceRecord, capacity, blockSize int64) (FleetDemand, error) {
	return fleet.DemandFromTrace(name, recs, capacity, blockSize)
}

// RunFleetScreen executes the two-fidelity screening study: thousands of
// candidate placements (policy bases at every packing density plus seeded
// perturbations) are scored with the closed-form credit analytics, and
// only the Pareto frontier on (backends used, predicted violation score)
// is materialized as full simulations. Deterministic for a fixed spec.
func RunFleetScreen(ctx context.Context, s FleetScreenSpec) (*FleetScreenReport, error) {
	return fleet.Screen(ctx, s)
}

// FormatFleetScreenReport writes the screen summary, the frontier, and the
// simulated truth for each materialized frontier placement.
func FormatFleetScreenReport(w io.Writer, r *FleetScreenReport) { fleet.FormatScreen(w, r) }

// FormatFleetReport writes the policy-vs-policy comparison tables.
func FormatFleetReport(w io.Writer, r *FleetReport) { fleet.Format(w, r) }

// WriteFleetCSV dumps the per-backend fleet table (one row per policy ×
// materialized backend) as CSV; see docs/formats.md for the schema.
func WriteFleetCSV(w io.Writer, r *FleetReport) error { return fleet.WriteBackendsCSV(w, r) }

// WriteFleetTenantsCSV dumps the per-tenant fleet table (one row per
// policy × tenant) as CSV; see docs/formats.md for the schema.
func WriteFleetTenantsCSV(w io.Writer, r *FleetReport) error { return fleet.WriteTenantsCSV(w, r) }

// Fleet churn control-plane types: volume lifecycle events over a demand
// catalog, online placement, and pluggable rebalancing, measured epoch by
// epoch through the same cell machinery the static fleet studies use.
type (
	// ChurnSpec declares a churn study: an embedded FleetSpec (catalog,
	// templates, budgets, SLOs, epoch length) plus the churn process,
	// placement policy, rebalancer, and migration budget.
	ChurnSpec = churn.Spec
	// ChurnEventKind classifies a lifecycle event.
	ChurnEventKind = churn.EventKind
	// ChurnEvent is one scripted lifecycle event.
	ChurnEvent = churn.Event
	// ChurnEventRecord is one applied event in the report's audit trail.
	ChurnEventRecord = churn.EventRecord
	// ChurnReport is the study outcome: the per-epoch time series, the
	// event audit trail, and fleet-level totals.
	ChurnReport = churn.Report
	// ChurnEpochReport is one control epoch's measured outcome.
	ChurnEpochReport = churn.EpochReport
	// Rebalancer plans volume migrations between control epochs.
	Rebalancer = churn.Rebalancer
	// NeverMove is the do-nothing rebalancer: the baseline that accepts
	// whatever packing lifecycle events leave behind.
	NeverMove = churn.NeverMove
	// ThresholdRebalance migrates volumes off backends whose nominal
	// utilization exceeds HighUtil, up to the spec's migration budget.
	ThresholdRebalance = churn.Threshold
	// DrainRebalance is the lazy variant of ThresholdRebalance: the same
	// trigger, at most one migration per epoch.
	DrainRebalance = churn.Drain
)

// Lifecycle event kinds for scripted churn timelines (ChurnSpec.Script).
const (
	ChurnCreate   = churn.Create
	ChurnDelete   = churn.Delete
	ChurnExpand   = churn.Expand
	ChurnShrink   = churn.Shrink
	ChurnSnapshot = churn.Snapshot
)

// RunChurn executes a fleet churn study: the placement policy packs the
// initial catalog, each epoch applies lifecycle events (create, expand,
// shrink, delete, snapshot-as-write-burst) and the rebalancer's moves on
// the nominal demand numbers, and every epoch's backend populations are
// simulated through one parallel sweep — cells deduplicated across epochs
// and shared with static fleet studies on the same cache. Deterministic
// for any worker count; with Fleet.Cache a warm re-run simulates zero new
// cells.
func RunChurn(ctx context.Context, s ChurnSpec) (*ChurnReport, error) {
	return churn.Run(ctx, s)
}

// DefaultRebalancers returns the built-in rebalancing policies in
// comparison order: never-move, threshold-triggered, background drain.
func DefaultRebalancers() []Rebalancer { return churn.Rebalancers() }

// RebalancerByName returns the built-in rebalancer with the given name
// ("never", "threshold", "drain").
func RebalancerByName(name string) (Rebalancer, error) { return churn.RebalancerByName(name) }

// FormatChurnReport writes the per-epoch churn table with totals.
func FormatChurnReport(w io.Writer, r *ChurnReport) { churn.Format(w, r) }

// WriteChurnEpochsCSV dumps the per-epoch churn time series
// (fleet_churn_epochs.csv) as CSV; see docs/formats.md for the schema.
func WriteChurnEpochsCSV(w io.Writer, r *ChurnReport) error { return churn.WriteEpochsCSV(w, r) }

// WriteChurnEventsCSV dumps the lifecycle-event audit trail
// (fleet_churn_events.csv) as CSV; see docs/formats.md for the schema.
func WriteChurnEventsCSV(w io.Writer, r *ChurnReport) error { return churn.WriteEventsCSV(w, r) }

// TraceProfile summarizes a trace's offered load (rate, write mix, mean
// request size) — the bridge from replayable records to the synthetic
// generator parameters the tenant-mix and fleet suites take.
type TraceProfile = trace.Profile

// ProfileTrace derives the offered-load profile of a record stream.
func ProfileTrace(recs []TraceRecord) TraceProfile { return trace.ProfileOf(recs) }

// Sweep-result caching: a SweepCache memoizes cell results across sweeps
// and searches, keyed by the cell's coordinate hash plus a fingerprint of
// the sweep's result-shaping settings. Attach one via Sweep.Cache,
// BurstSweep.Cache, or SLOSearch.Cache; persist it with SaveFile/LoadFile.
type SweepCache = expgrid.Cache

// NewSweepCache returns an empty result cache holding at most capacity
// entries (a sensible default when capacity <= 0).
func NewSweepCache(capacity int) *SweepCache { return expgrid.NewCache(capacity) }

// Latency-SLO search types: binary-searching offered rate for the highest
// rate whose steady-state tail latency meets a target, reporting both the
// pre-exhaustion and the post-cliff (credit-floor) answers.
type (
	// SLOSearch declares one search: device × workload spec, rate range,
	// and latency target.
	SLOSearch = slo.Search
	// SLOTarget is the tail-latency objective (p99 and/or p99.9).
	SLOTarget = slo.Target
	// SLOReport is a completed search with both SLO-max rates and every
	// probe.
	SLOReport = slo.Report
	// SLOProbe is one evaluated rate of a search.
	SLOProbe = slo.Probe
)

// SearchSLO runs a latency-SLO search. Probes repeat coordinates, so
// attach a SweepCache to skip re-simulation; a cache-warm repeat run
// executes zero new cells and reproduces identical measurements and CSV
// output (only the SLOProbe.Cached / SLOReport.CellsRun bookkeeping
// records the difference).
func SearchSLO(ctx context.Context, s SLOSearch) (*SLOReport, error) {
	return slo.Run(ctx, s)
}

// FormatSLOReport writes a human-readable search report.
func FormatSLOReport(w io.Writer, r *SLOReport) { slo.Format(w, r) }

// WriteSLOProbesCSV dumps the search's probes as CSV; see docs/formats.md
// for the schema.
func WriteSLOProbesCSV(w io.Writer, r *SLOReport) error { return slo.WriteProbesCSV(w, r) }

// Contract checker types.
type (
	// ContractReport is a full contract evaluation.
	ContractReport = contract.Report
	// ContractCheck is the verdict on one observation.
	ContractCheck = contract.Check
	// ContractOptions configure a contract evaluation.
	ContractOptions = contract.EvalOptions
)

// CheckContract runs the paper's four observation checks of the unwritten
// contract for an ESSD factory against a local-SSD baseline factory.
func CheckContract(essdFactory, ssdFactory DeviceFactory, opts ContractOptions) *ContractReport {
	return contract.Evaluate(essdFactory, ssdFactory, opts)
}

// FormatContract writes a human-readable contract report.
func FormatContract(w io.Writer, r *ContractReport) { contract.Format(w, r) }

// FormatAdvice writes the paper's five implications annotated by the
// report's outcomes.
func FormatAdvice(w io.Writer, r *ContractReport) { contract.FormatAdvice(w, r) }

// FormatWorkloadResult prints a fio-like summary of a run.
func FormatWorkloadResult(w io.Writer, r *WorkloadResult) {
	harness.FormatWorkloadResult(w, r)
}

// Key-value storage engine types (package kv): two write-path designs over
// simulated block devices — the leveled LSM engine and the update-in-place
// page store — with honest device-level I/O accounting, plus the ingest
// harness and the multi-tenant open-loop mix runner.
type (
	// KVEngine is the storage-engine interface both designs implement:
	// Put/Get with completion callbacks, write batches, a background-work
	// barrier, and a Stats snapshot.
	KVEngine = kv.Engine
	// KVStats is an engine's cumulative activity snapshot (user ops,
	// device I/O, flushes, compactions, cache hits, stalls) with
	// ReadAmp/WriteAmp helpers.
	KVStats = kv.Stats
	// KVLSMConfig shapes the LSM engine (memtable bytes, fanout, level-0
	// compaction trigger, bytes-per-level growth).
	KVLSMConfig = kv.LSMConfig
	// KVPageStoreConfig shapes the page store (page size, cache pages).
	KVPageStoreConfig = kv.PageStoreConfig
	// KVIngestSpec declares a closed-loop bulk-load measurement.
	KVIngestSpec = kv.IngestSpec
	// KVIngestResult is a completed ingest measurement.
	KVIngestResult = kv.IngestResult
	// KVMixSpec is one tenant's open-loop zipfian read/write traffic.
	KVMixSpec = kv.MixSpec
	// KVMixTenant pairs a storage engine with the traffic that drives it.
	KVMixTenant = kv.MixTenant
	// KVMixResult is one tenant's measurement from a RunKVMix call.
	KVMixResult = kv.MixResult
	// KVMixProfile is a measured tenant's device-level demand shape,
	// placeable via KVDemand.
	KVMixProfile = kv.MixProfile
)

// NewKVLSM builds a leveled LSM engine over the device.
func NewKVLSM(dev Device, cfg KVLSMConfig) *kv.LSM { return kv.NewLSM(dev, cfg) }

// DefaultKVLSMConfig returns the stock LSM shape (8 MiB memtable, fanout
// 10, level-0 trigger 4).
func DefaultKVLSMConfig() KVLSMConfig { return kv.DefaultLSMConfig() }

// NewKVPageStore builds an update-in-place page store over the device.
func NewKVPageStore(dev Device, cfg KVPageStoreConfig) *kv.PageStore {
	return kv.NewPageStore(dev, cfg)
}

// DefaultKVPageStoreConfig sizes pages to the device's block size and the
// cache to a fraction of its capacity.
func DefaultKVPageStoreConfig(dev Device) KVPageStoreConfig {
	return kv.DefaultPageStoreConfig(dev)
}

// KVIngest runs a closed-loop bulk load against the engine and returns
// its throughput and amplification measurement.
func KVIngest(eng *Engine, e KVEngine, spec KVIngestSpec) KVIngestResult {
	return kv.IngestRun(eng, e, spec)
}

// RunKVMixTenants drives several KV tenants' open-loop arrival schedules
// concurrently inside one simulation engine — the multi-tenant regime
// where one tenant's compactions contend with another's point reads on a
// shared backend. Results are in tenant order.
func RunKVMixTenants(eng *Engine, tenants []KVMixTenant) []*KVMixResult {
	return kv.RunMix(eng, tenants)
}

// KVProfileOf summarizes a mix result as the device-level demand shape
// the tenant's engine actually offered.
func KVProfileOf(r *KVMixResult) KVMixProfile { return kv.ProfileOf(r) }

// KVDemand converts a measured KV tenant profile into a placeable fleet
// demand (the engine-translated device load, not the user op rate).
func KVDemand(name string, p KVMixProfile, blockSize int64) (FleetDemand, error) {
	return fleet.DemandFromKV(name, p, blockSize)
}

// KV tenant-mix suite types: the engine × skew × value-size × tier sweep
// over shared backends (internal/scenario.KVMixSweep).
type (
	// KVMixSweep declares the suite's axes and per-tenant shape.
	KVMixSweep = scenario.KVMixSweep
	// KVMixReport is the folded suite measurement.
	KVMixReport = scenario.KVMixReport
	// KVMixCell is one measured cell of the suite.
	KVMixCell = scenario.KVMixCell
)

// RunKVMix executes the KV tenant-mix suite on the expgrid worker pool.
// Results are deterministic for any worker count; attach a SweepCache and
// a repeat run executes zero new cells.
func RunKVMix(ctx context.Context, s KVMixSweep) (*KVMixReport, error) {
	return scenario.RunKVMix(ctx, s)
}

// FormatKVMix writes a human-readable KV tenant-mix report.
func FormatKVMix(w io.Writer, r *KVMixReport) { scenario.FormatKVMix(w, r) }

// WriteKVMixCSV dumps the suite's per-cell table (kv_cells.csv) as CSV;
// see docs/formats.md for the schema.
func WriteKVMixCSV(w io.Writer, r *KVMixReport) error { return scenario.WriteKVCSV(w, r) }

// Observability types (internal/obs): deterministic sampled request
// tracing, simulated-time state probes, and the cliff-attribution report.
// Both planes are off by default and, when on, never perturb simulation
// results — traced runs are byte-identical to untraced ones.
type (
	// ObsConfig enables the observability planes: SampleEvery traces every
	// Nth request per volume, and a positive ProbeInterval samples state
	// gauges on that simulated-time cadence. A nil *ObsConfig is fully off.
	ObsConfig = obs.Config
	// ObsCapture is one simulation's observability output: a label plus
	// its tracer and (optional) prober.
	ObsCapture = obs.Capture
	// ObsTracer records sampled per-request spans.
	ObsTracer = obs.Tracer
	// ObsProber samples registered state gauges on a cadence.
	ObsProber = obs.Prober
	// ObsSpan is one recorded stage of a traced request.
	ObsSpan = obs.Span
	// ObsExplanation is one cell's cliff-attribution report.
	ObsExplanation = obs.Explanation
)

// InstrumentDevice attaches an observability capture to a single elastic
// device: a tracer sampling every cfg.SampleEvery-th request and, when
// cfg.ProbeInterval is positive, a prober over the device's shared
// backend (cluster debt and node queues, fabric backlogs, every attached
// volume's gauges). Non-elastic devices (the local SSD) have no backend
// or QoS state to observe and are rejected.
func InstrumentDevice(dev Device, label string, cfg *ObsConfig) (*ObsCapture, error) {
	return essd.Instrument(label, *cfg, dev)
}

// WriteTraceCSV dumps the captures' sampled request spans as CSV; see
// docs/formats.md for the schema.
func WriteTraceCSV(w io.Writer, caps []*ObsCapture) error { return obs.WriteTraceCSV(w, caps) }

// WriteTraceEvents dumps the captures' spans as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing.
func WriteTraceEvents(w io.Writer, caps []*ObsCapture) error { return obs.WriteTraceEvents(w, caps) }

// WriteProbesCSV dumps the captures' state-probe series as CSV; see
// docs/formats.md for the schema.
func WriteProbesCSV(w io.Writer, caps []*ObsCapture) error { return obs.WriteProbesCSV(w, caps) }

// WriteProbesJSON dumps the captures' state-probe series as JSON.
func WriteProbesJSON(w io.Writer, caps []*ObsCapture) error { return obs.WriteProbesJSON(w, caps) }

// FormatExplanations writes the per-cell cliff-attribution report.
func FormatExplanations(w io.Writer, exps []*ObsExplanation) { obs.FormatExplanations(w, exps) }
