package workload

import (
	"fmt"
	"math"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/stats"
)

// Arrival shapes for open-loop workloads.
type Arrival uint8

// Supported arrival processes.
const (
	// Uniform spaces requests evenly: the smoothed timeline of
	// Implication #4.
	Uniform Arrival = iota
	// Poisson draws exponential inter-arrival gaps.
	Poisson
	// Bursty issues each second's worth of requests at the start of the
	// second: the bursty timeline Implication #4 warns about.
	Bursty
)

// String names the arrival process.
func (a Arrival) String() string {
	switch a {
	case Uniform:
		return "uniform"
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	default:
		return fmt.Sprintf("arrival(%d)", uint8(a))
	}
}

// ParseArrival converts an arrival-shape name ("uniform", "poisson",
// "bursty") into an Arrival — the inverse of String, shared by every CLI
// flag that selects an arrival process.
func ParseArrival(s string) (Arrival, error) {
	switch s {
	case "uniform":
		return Uniform, nil
	case "poisson":
		return Poisson, nil
	case "bursty":
		return Bursty, nil
	default:
		return 0, fmt.Errorf("workload: unknown arrival %q", s)
	}
}

// OpenSpec describes an open-loop (arrival-driven) workload: requests are
// issued on a schedule regardless of completions, exposing queueing when
// the device cannot keep up — the regime where the provisioned budget and
// burst credits of an ESSD dominate behaviour.
type OpenSpec struct {
	Pattern    Pattern
	BlockSize  int64
	WriteRatio float64

	// RatePerSec is the offered request rate.
	RatePerSec float64
	// Arrival selects the arrival process.
	Arrival Arrival
	// Count is the total number of requests to issue.
	Count uint64

	// Region restricts I/O to the first Region bytes (0 = whole device).
	Region int64
	// Hotspot, when non-nil, skews offsets (random patterns only).
	Hotspot *Zipf

	// SampleInterval is the bucket width of the result's completion
	// timelines (default 10 ms).
	SampleInterval sim.Duration

	// WindowPercentiles keeps a full latency histogram per SampleInterval
	// bucket so LatSeries.PercentileRange can report p99/p99.9 over
	// arbitrary windows (pre- vs post-exhaustion). Costs a few KiB per
	// non-empty bucket; SLO searches turn it on, bulk sweeps need not.
	WindowPercentiles bool

	Seed uint64
}

// Validate reports a descriptive error for nonsensical specs.
func (s OpenSpec) Validate(dev blockdev.Device) error {
	bs := int64(dev.BlockSize())
	region := s.Region
	if region == 0 {
		region = dev.Capacity()
	}
	switch {
	case s.BlockSize <= 0 || s.BlockSize%bs != 0:
		return fmt.Errorf("workload: block size %d not a multiple of device block %d", s.BlockSize, bs)
	case !(s.RatePerSec > 0 && s.RatePerSec < math.Inf(1)):
		return fmt.Errorf("workload: rate %v must be finite and positive", s.RatePerSec)
	case s.Count == 0:
		return fmt.Errorf("workload: count must be positive")
	case s.Pattern == Mixed && (s.WriteRatio < 0 || s.WriteRatio > 1):
		return fmt.Errorf("workload: write ratio %v out of [0,1]", s.WriteRatio)
	case s.Region < 0 || s.Region > dev.Capacity():
		return fmt.Errorf("workload: region %d out of range", s.Region)
	case region < s.BlockSize:
		// A zero-slot region would panic the offset draw (Int64N(0)).
		return fmt.Errorf("workload: region %d smaller than one %d-byte I/O", region, s.BlockSize)
	}
	return nil
}

// OpenResult holds open-loop measurements. Latency here includes the time
// a request waited behind the device's queues after its scheduled arrival,
// which is exactly what a deadline-driven service experiences.
type OpenResult struct {
	Spec    OpenSpec
	Device  string
	Ops     uint64
	Bytes   int64
	Elapsed sim.Duration
	Lat     *stats.Histogram
	// MaxOutstanding is the peak number of in-flight requests — the queue
	// the arrival process built up.
	MaxOutstanding int

	// Series buckets completed bytes by completion time and LatSeries the
	// mean latency, both at Spec.SampleInterval width. Splitting them at an
	// event time (credit exhaustion, throttle engagement) exposes the
	// before/after cliff of burstable tiers.
	Series    *stats.ThroughputSeries
	LatSeries *stats.LatencySeries
}

// Throughput returns mean completed bytes/s over the elapsed span.
func (r *OpenResult) Throughput() float64 {
	secs := r.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Bytes) / secs
}

// RunOpen executes the open-loop workload, driving the engine until all
// requests complete. It panics on an invalid spec.
func RunOpen(dev blockdev.Device, spec OpenSpec) *OpenResult {
	finish := startOpen(dev, spec)
	dev.Engine().Run()
	return finish()
}

// startOpen validates the spec (panicking on harness programming errors)
// and schedules every arrival on the device's engine, returning a
// finalizer that closes the measurement once the caller has drained the
// engine. RunTenants uses the split to schedule several open-loop
// generators on one shared engine before a single run drains them all.
func startOpen(dev blockdev.Device, spec OpenSpec) func() *OpenResult {
	if err := spec.Validate(dev); err != nil {
		panic(err)
	}
	eng := dev.Engine()
	rng := sim.NewRNG(spec.Seed^0x09e4, spec.Seed+0x11)
	if spec.SampleInterval <= 0 {
		spec.SampleInterval = 10 * sim.Millisecond
	}
	newLatSeries := stats.NewLatencySeries
	if spec.WindowPercentiles {
		newLatSeries = stats.NewLatencySeriesHist
	}
	res := &OpenResult{
		Spec: spec, Device: dev.Name(), Lat: stats.NewHistogram(),
		Series:    stats.NewThroughputSeries(spec.SampleInterval),
		LatSeries: newLatSeries(spec.SampleInterval),
	}
	region := spec.Region
	if region == 0 {
		region = dev.Capacity()
	}
	slots := region / spec.BlockSize
	start := eng.Now()
	gap := sim.Duration(float64(sim.Second) / spec.RatePerSec)
	perSecond := int(spec.RatePerSec)
	if perSecond < 1 {
		perSecond = 1
	}

	outstanding := 0
	lastDone := start
	var seqOff int64
	var at sim.Duration
	for i := uint64(0); i < spec.Count; i++ {
		switch spec.Arrival {
		case Uniform:
			at = sim.Duration(i) * gap
		case Poisson:
			if i > 0 {
				at += sim.Duration(-math.Log(1-rng.Float64()) * float64(gap))
			}
		case Bursty:
			at = sim.Duration(i/uint64(perSecond)) * sim.Second
		}
		op := blockdev.Read
		switch spec.Pattern {
		case RandWrite, SeqWrite:
			op = blockdev.Write
		case Mixed:
			if rng.Float64() < spec.WriteRatio {
				op = blockdev.Write
			}
		}
		var off int64
		switch spec.Pattern {
		case SeqWrite, SeqRead:
			off = seqOff
			seqOff += spec.BlockSize
			if seqOff+spec.BlockSize > region {
				seqOff = 0
			}
		default:
			if spec.Hotspot != nil {
				off = spec.Hotspot.Next(rng) % slots * spec.BlockSize
			} else {
				off = rng.Int64N(slots) * spec.BlockSize
			}
		}
		issueAt := start.Add(at)
		opC, offC := op, off // per-iteration copies for the closure
		eng.At(issueAt, func() {
			outstanding++
			if outstanding > res.MaxOutstanding {
				res.MaxOutstanding = outstanding
			}
			dev.Submit(&blockdev.Request{
				Op: opC, Offset: offC, Size: spec.BlockSize,
				OnComplete: func(r *blockdev.Request, done sim.Time) {
					outstanding--
					lastDone = done
					lat := done.Sub(issueAt)
					rel := sim.Time(done.Sub(start))
					res.Lat.Record(lat)
					res.Series.Add(rel, r.Size)
					res.LatSeries.Add(rel, lat)
					res.Ops++
					res.Bytes += r.Size
				},
			})
		})
	}
	// Elapsed measures to this workload's own last completion, not the
	// engine clock: on a shared engine another tenant may keep the clock
	// running after this generator drained.
	return func() *OpenResult {
		res.Elapsed = lastDone.Sub(start)
		return res
	}
}
