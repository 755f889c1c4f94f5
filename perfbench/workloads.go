package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"strings"
	"sync"

	"essdsim/internal/blockdev"
	"essdsim/internal/expgrid"
	"essdsim/internal/fleet"
	"essdsim/internal/harness"
	"essdsim/internal/profiles"
	"essdsim/internal/qos"
	"essdsim/internal/scenario"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
	"essdsim/kv"
)

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"fleet-pack", "kv-mix", "paper-grid", "neighbor-wfq"}

// size scales a workload's simulated work. full is what the benchmark
// measures; tiny keeps the package's own tests fast.
type size int

const (
	full size = iota
	tiny
)

// outcome is what one pass of a suite produced.
type outcome struct {
	digest string // hex SHA-256 prefix of the suite's report output
	ops    uint64 // simulated user operations the report accounts for
	cells  int    // expgrid cells the suite ran
	cached int    // cells served from a sweep cache (always 0 here)
	// fidelity carries paper-facing simulated values (paper-grid only).
	fidelity *fidelity
}

// suite is one workload: a fixed set of inputs derived from the seed and
// a pass that drives the suite's public entry point once.
type suite struct {
	name string
	pass func(ctx context.Context, p *probe) (outcome, error)
}

// probe collects the boundary measurements of a traced pass. A nil probe
// means an untraced pass: the suite runs exactly as a user would call it.
type probe struct {
	mu sync.Mutex

	done  int // cells reported through OnProgress
	kv    kv.Stats
	kvOps uint64
	dev   devTotals

	cpu     map[string]int64 // CPU nanoseconds per layer bucket
	samples int              // CPU profile samples
}

// progress returns an OnProgress hook counting completed cells and
// totalling the KV statistics of KV cells. Nil for untraced passes, so
// the suite runs without a hook at all.
func (p *probe) progress() func(expgrid.Progress) {
	if p == nil {
		return nil
	}
	return func(pr expgrid.Progress) {
		p.mu.Lock()
		defer p.mu.Unlock()
		p.done++
		for _, t := range pr.Last.KV {
			p.kv.Gets += t.Stats.Gets
			p.kv.Puts += t.Stats.Puts
			p.kv.DeviceReads += t.Stats.DeviceReads
			p.kv.DeviceWrites += t.Stats.DeviceWrites
			p.kv.CacheHits += t.Stats.CacheHits
			p.kv.CacheMisses += t.Stats.CacheMisses
			p.kv.Stalls += t.Stats.Stalls
			p.kvOps += t.Ops
		}
	}
}

// newSuite builds the named workload for a seed. workers is the expgrid
// pool size every suite call uses.
func newSuite(name string, seed uint64, sz size, workers int) (*suite, error) {
	switch name {
	case "fleet-pack":
		return fleetPack(seed, sz, workers), nil
	case "kv-mix":
		return kvMix(seed, sz, workers), nil
	case "paper-grid":
		return paperGrid(seed, sz, workers), nil
	case "neighbor-wfq":
		return neighborWFQ(seed, sz, workers), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// fleetPack is fleet.Run over synthetic demands: write-heavy bursty
// aggressors beside 50/50 tenants on shared fifo backends, placed by every
// default policy. The spec is the repository's FleetPack benchmark gate
// (BenchmarkFleetPack in bench_test.go), with the seed as an input.
func fleetPack(seed uint64, sz size, workers int) *suite {
	spec := fleet.Spec{
		Demands:  fleet.SyntheticDemands(8, 2),
		Backends: 2,
		SLOP999:  5 * sim.Millisecond,
		Seed:     seed,
		Workers:  workers,
	}
	if sz == tiny {
		spec.Demands = fleet.SyntheticDemands(4, 1)
		spec.Backends = 2
		spec.Horizon = 100 * sim.Millisecond
	}
	return &suite{name: "fleet-pack", pass: func(ctx context.Context, _ *probe) (outcome, error) {
		rep, err := fleet.Run(ctx, spec)
		if err != nil {
			return outcome{}, err
		}
		h := sha256.New()
		if err := fleet.WriteBackendsCSV(h, rep); err != nil {
			return outcome{}, err
		}
		if err := fleet.WriteTenantsCSV(h, rep); err != nil {
			return outcome{}, err
		}
		return outcome{digest: sum(h), ops: fleetOps(rep), cells: rep.Cells, cached: rep.CachedCells}, nil
	}}
}

// fleetOps counts the tenant requests the study simulated. Policies that
// co-locate the same tenants share one cell, so each distinct backend
// population is counted once, plus every solo control.
func fleetOps(rep *fleet.Report) uint64 {
	seen := map[string]bool{}
	var ops uint64
	for _, pr := range rep.Policies {
		for _, br := range pr.Backends {
			key := strings.Join(br.Tenants, "+")
			if seen[key] {
				continue
			}
			seen[key] = true
			for _, tr := range pr.Tenants {
				if tr.Backend == br.Index {
					ops += tr.Ops
				}
			}
		}
	}
	for _, s := range rep.Solo {
		ops += s.Lat.Count
	}
	return ops
}

// kvMix is scenario.RunKVMix: LSM and page-store tenants at uniform and
// zipfian skew, half Gets, on a fifo shared backend. The inputs are the
// defaults of "ucexperiments -exp kv" (1500 ops per tenant).
func kvMix(seed uint64, sz size, workers int) *suite {
	sw := scenario.KVMixSweep{
		Engines:     []string{"lsm", "pagestore"},
		Skews:       []float64{0, 0.99},
		ValueSizes:  []int64{1024},
		Tiers:       []string{"essd1"},
		Tenants:     3,
		RatePerSec:  4000,
		ReadFracPct: 50,
		Seed:        seed,
		Workers:     workers,
	}
	if sz == tiny {
		sw.OpsPerTenant = 200
	}
	return &suite{name: "kv-mix", pass: func(ctx context.Context, p *probe) (outcome, error) {
		s := sw
		s.OnProgress = p.progress()
		rep, err := scenario.RunKVMix(ctx, s)
		if err != nil {
			return outcome{}, err
		}
		h := sha256.New()
		if err := scenario.WriteKVCSV(h, rep); err != nil {
			return outcome{}, err
		}
		var ops uint64
		for _, c := range rep.Cells {
			ops += c.Ops
		}
		return outcome{digest: sum(h), ops: ops, cells: len(rep.Cells), cached: rep.CachedCells}, nil
	}}
}

// neighborWFQ is scenario.RunNeighbor under weighted fair queueing, the
// one suite whose DRR flow queues schedule anything. The inputs are those
// of "ucexperiments -exp neighbor -quick -isolation wfq".
func neighborWFQ(seed uint64, sz size, workers int) *suite {
	sw := scenario.NeighborSweep{
		AggressorArrival:     workload.Bursty,
		AggressorCounts:      []int{0, 2, 4},
		AggressorRatesPerSec: []float64{1600},
		VictimOps:            1200,
		Isolation:            qos.Isolation{Policy: qos.IsolationWFQ},
		Seed:                 seed,
		Workers:              workers,
	}
	if sz == tiny {
		sw.AggressorRatesPerSec = []float64{1600}
		sw.VictimOps = 60
	}
	return &suite{name: "neighbor-wfq", pass: func(ctx context.Context, p *probe) (outcome, error) {
		s := sw
		s.OnProgress = p.progress()
		rep, err := scenario.RunNeighbor(ctx, s)
		if err != nil {
			return outcome{}, err
		}
		h := sha256.New()
		if err := scenario.WriteNeighborCSV(h, rep); err != nil {
			return outcome{}, err
		}
		var ops uint64
		for _, c := range rep.Cells {
			ops += c.VictimOps + c.AggrOps
		}
		return outcome{digest: sum(h), ops: ops, cells: len(rep.Cells), cached: rep.CachedCells}, nil
	}}
}

// gridDevices are the paper-grid devices, in the order their grids run.
var gridDevices = []string{"essd1", "essd2", "ssd"}

// paperGrid is the Figure 2 closed-loop latency grid on both ESSDs and
// the local SSD, each cell a freshly built and preconditioned device. The
// inputs are those of "ucexperiments -exp fig2 -quick": every pattern at
// 4K/64K/256K and QD 1/4/16, 150 ms cells after a 30 ms warm-up.
func paperGrid(seed uint64, sz size, workers int) *suite {
	opts := harness.Options{
		CellDuration: 150 * sim.Millisecond,
		Warmup:       30 * sim.Millisecond,
		Seed:         seed,
		Workers:      workers,
	}
	patterns := harness.Fig2Patterns
	sizes, qds := []int64{4 << 10, 64 << 10, 256 << 10}, []int{1, 4, 16}
	if sz == tiny {
		opts.CellDuration = 4 * sim.Millisecond
		opts.Warmup = sim.Millisecond
		sizes, qds = []int64{4 << 10, 64 << 10}, []int{1, 4}
	}
	return &suite{name: "paper-grid", pass: func(_ context.Context, p *probe) (outcome, error) {
		var out outcome
		grids := make([]*harness.LatencyGrid, len(gridDevices))
		for i, name := range gridDevices {
			f := deviceFactory(name, seed)
			if p != nil {
				f = p.dev.wrap(f, i)
			}
			g, err := runGrid(f, patterns, sizes, qds, opts)
			if err != nil {
				return outcome{}, err
			}
			grids[i] = g
			out.cells += len(g.Cells)
			for _, c := range g.Cells {
				out.ops += c.Ops
			}
		}
		h := sha256.New()
		for _, g := range grids {
			fmt.Fprintf(h, "device %s\n", g.Device)
			for _, c := range g.Cells {
				fmt.Fprintf(h, "%s,%d,%d,%d,%d,%d\n", c.Pattern, c.BlockSize, c.QueueDepth, int64(c.Avg), int64(c.P999), c.Ops)
			}
		}
		out.digest = sum(h)
		fid := fidelityOf(grids[0], grids[1], grids[2])
		out.fidelity = &fid
		return out, nil
	}}
}

// runGrid calls harness.RunLatencyGridWith, turning the panic it raises on
// a failed cell into an error.
func runGrid(f harness.Factory, patterns []workload.Pattern, sizes []int64, qds []int, opts harness.Options) (g *harness.LatencyGrid, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("latency grid: %v", r)
		}
	}()
	return harness.RunLatencyGridWith(f, patterns, sizes, qds, opts), nil
}

// deviceFactory builds the paper-grid devices the way the paper-figures
// CLI does: a fresh engine and an RNG derived from the cell seed.
func deviceFactory(name string, seed uint64) harness.Factory {
	return func(s uint64) blockdev.Device {
		d, err := profiles.ByName(name, sim.NewEngine(), sim.NewRNG(seed^s, s+0x9))
		if err != nil {
			panic(err) // expgrid reports it as a failed cell
		}
		return d
	}
}

// fidelity holds the paper-facing values of one paper-grid pass, all in
// simulated time.
type fidelity struct {
	ESSDAvgUs, SSDAvgUs float64 // essd1 and ssd random-write average latency at 4K/QD1
	ESSDGain, SSDGain   float64 // best random/sequential write latency ratio over the grid
}

func fidelityOf(essd1, essd2, ssd *harness.LatencyGrid) fidelity {
	f := fidelity{ESSDGain: randSeqGain(essd2), SSDGain: randSeqGain(ssd)}
	if c := essd1.Cell(workload.RandWrite, 4<<10, 1); c != nil {
		f.ESSDAvgUs = c.Avg.Micros()
	}
	if c := ssd.Cell(workload.RandWrite, 4<<10, 1); c != nil {
		f.SSDAvgUs = c.Avg.Micros()
	}
	return f
}

// randSeqGain is the largest ratio of random- to sequential-write average
// latency over the grid's (size, queue depth) points.
func randSeqGain(g *harness.LatencyGrid) float64 {
	best := 0.0
	for _, c := range g.Cells {
		if c.Pattern != workload.RandWrite {
			continue
		}
		s := g.Cell(workload.SeqWrite, c.BlockSize, c.QueueDepth)
		if s == nil || s.Avg <= 0 {
			continue
		}
		if r := float64(c.Avg) / float64(s.Avg); r > best {
			best = r
		}
	}
	return best
}

// check compares the values with the paper's reported shape for
// Observation 1: ESSD small-write latency in the hundreds of microseconds,
// the local SSD's in single digits. The gains are only printed: the model
// is checked against the paper's shapes, not against measured numbers.
func (f fidelity) check() error {
	switch {
	case f.ESSDAvgUs < 100 || f.ESSDAvgUs > 1000:
		return fmt.Errorf("essd1 4K/QD1 write avg %.1fus outside [100, 1000]us", f.ESSDAvgUs)
	case f.SSDAvgUs <= 0 || f.SSDAvgUs > 30:
		return fmt.Errorf("ssd 4K/QD1 write avg %.1fus outside (0, 30]us", f.SSDAvgUs)
	}
	return nil
}

func (f fidelity) String() string {
	return fmt.Sprintf("fidelity: 4K/QD1 randwrite avg essd1 %.1fus vs ssd %.2fus (gap %.0fx); max rand/seq write gain essd2 %.2fx vs ssd %.2fx",
		f.ESSDAvgUs, f.SSDAvgUs, f.ESSDAvgUs/f.SSDAvgUs, f.ESSDGain, f.SSDGain)
}

// sum renders a report digest: the first 16 hex digits of its SHA-256.
func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }
