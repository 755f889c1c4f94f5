package kv

import (
	"fmt"
	"math"

	"essdsim/internal/sim"
	"essdsim/internal/stats"
	"essdsim/internal/workload"
)

// MixSpec describes one tenant's open-loop key-value traffic: point reads
// and writes issued on an arrival schedule regardless of completions, with
// zipfian-skewed keys. It is the KV analogue of workload.OpenSpec — the
// regime where a storage engine's background work (flushes, compactions,
// read-before-write misses) competes with foreground latency.
type MixSpec struct {
	// Ops is the total number of operations to issue.
	Ops uint64
	// ValueSize is the value size of every put.
	ValueSize int64
	// ReadFrac is the fraction of operations that are Gets (0 = pure
	// ingest, 1 = pure lookup).
	ReadFrac float64
	// RatePerSec is the offered operation rate.
	RatePerSec float64
	// Arrival selects the arrival process (workload.Uniform, Poisson,
	// Bursty).
	Arrival workload.Arrival
	// KeySpace is the number of distinct keys (default 1<<20).
	KeySpace uint64
	// ZipfTheta is the key skew in [0, 1): 0 draws uniform keys, 0.99 is
	// YCSB's default "hot" skew.
	ZipfTheta float64
	// Seed fixes the tenant's key, op, and arrival draws.
	Seed uint64
}

// Validate reports a descriptive error for nonsensical specs.
func (s MixSpec) Validate() error {
	switch {
	case s.Ops == 0:
		return fmt.Errorf("kv: mix ops must be positive")
	case s.ValueSize <= 0:
		return fmt.Errorf("kv: mix value size %d not positive", s.ValueSize)
	case s.ReadFrac < 0 || s.ReadFrac > 1:
		return fmt.Errorf("kv: mix read fraction %v out of [0, 1]", s.ReadFrac)
	case s.RatePerSec <= 0:
		return fmt.Errorf("kv: mix rate must be positive")
	case s.ZipfTheta < 0 || s.ZipfTheta >= 1:
		return fmt.Errorf("kv: mix zipf theta %v outside [0, 1)", s.ZipfTheta)
	}
	return nil
}

// MixTenant pairs one engine with the traffic that drives it inside a
// multi-tenant KV run. Every tenant's engine must run on devices of the
// same simulation engine — attach their volumes to one shared
// essd.Backend (or build private backends on one engine for a
// no-interference control).
type MixTenant struct {
	// Name labels the tenant in results ("kv0", "kv1", ...).
	Name string
	// Engine is the tenant's storage engine (LSM or PageStore).
	Engine Engine
	Spec   MixSpec
}

// MixResult holds one tenant's measurements from a RunMix call. It is
// JSON-round-trippable so cached sweep cells survive persistence.
type MixResult struct {
	Name   string `json:"name"`
	Engine string `json:"engine"`
	Device string `json:"device"`

	Ops       uint64 `json:"ops"`
	Puts      uint64 `json:"puts"`
	Gets      uint64 `json:"gets"`
	UserBytes int64  `json:"user_bytes"`

	// Elapsed spans submission to this tenant's last completion; on a
	// shared engine another tenant may keep the clock running longer.
	Elapsed sim.Duration `json:"elapsed"`
	// Lat is the operation latency histogram: the time from an op's
	// scheduled arrival to its acknowledgement, queueing included.
	Lat *stats.Histogram `json:"lat"`
	// MaxOutstanding is the peak number of in-flight operations.
	MaxOutstanding int `json:"max_outstanding"`

	// Stats is the engine's activity snapshot after the tenant drained
	// (device I/O, amplification, cache hits, stalls).
	Stats Stats `json:"stats"`
}

// OpsPerSec returns the completed operation rate over the tenant's own
// measurement window.
func (r *MixResult) OpsPerSec() float64 {
	secs := r.Elapsed.Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(r.Ops) / secs
}

// mixState drives one tenant's arrival schedule. All randomness is drawn
// at schedule time (before the engine runs), so a tenant's op sequence is
// a pure function of its spec — independent of how other tenants' events
// interleave on the shared engine.
type mixState struct {
	eng         *sim.Engine
	kv          Engine
	valueSize   int64
	res         *MixResult
	start       sim.Time
	lastDone    sim.Time
	outstanding int
}

// mixOp is one drawn arrival. Every arrival is scheduled before the run,
// so a tenant's schedule is one slice of these, each the argument of an
// AtCall to the tenant's issue method, not one closure per arrival.
type mixOp struct {
	issueAt sim.Time
	key     uint64
	isGet   bool
}

// startMix validates the spec (panicking on harness programming errors)
// and schedules every arrival on the engine, returning a finalizer that
// closes the measurement once the caller has drained the engine.
func startMix(eng *sim.Engine, t MixTenant) func() *MixResult {
	spec := t.Spec
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if spec.KeySpace == 0 {
		spec.KeySpace = 1 << 20
	}
	rng := sim.NewRNG(spec.Seed^0x6b1d, spec.Seed+0x29)
	zipf := workload.NewZipf(int64(spec.KeySpace), spec.ZipfTheta)
	st := &mixState{
		eng:       eng,
		kv:        t.Engine,
		valueSize: spec.ValueSize,
		res: &MixResult{
			Name:   t.Name,
			Engine: t.Engine.Name(),
			Device: t.Engine.Device().Name(),
			Lat:    stats.NewHistogram(),
		},
		start: eng.Now(),
	}
	st.lastDone = st.start
	gap := sim.Duration(float64(sim.Second) / spec.RatePerSec)
	perSecond := int(spec.RatePerSec)
	if perSecond < 1 {
		perSecond = 1
	}
	ops := make([]mixOp, spec.Ops)
	issue := st.issue // bound once: a method value per AtCall would allocate
	var at sim.Duration
	for i := range ops {
		switch spec.Arrival {
		case workload.Uniform:
			at = sim.Duration(i) * gap
		case workload.Poisson:
			if i > 0 {
				at += sim.Duration(-math.Log(1-rng.Float64()) * float64(gap))
			}
		case workload.Bursty:
			at = sim.Duration(i/perSecond) * sim.Second
		}
		op := &ops[i]
		op.key = uint64(zipf.Next(rng))
		op.isGet = rng.Float64() < spec.ReadFrac
		op.issueAt = st.start.Add(at)
		eng.AtCall(op.issueAt, issue, op)
	}
	return func() *MixResult {
		st.res.Elapsed = st.lastDone.Sub(st.start)
		st.res.Stats = t.Engine.Stats()
		return st.res
	}
}

// issue submits one scheduled arrival (a *mixOp) to the tenant's engine.
func (st *mixState) issue(a any) {
	op := a.(*mixOp)
	st.outstanding++
	if st.outstanding > st.res.MaxOutstanding {
		st.res.MaxOutstanding = st.outstanding
	}
	done := func() {
		st.outstanding--
		now := st.eng.Now()
		st.lastDone = now
		st.res.Lat.Record(now.Sub(op.issueAt))
		st.res.Ops++
	}
	if op.isGet {
		st.res.Gets++
		st.kv.Get(op.key, done)
	} else {
		st.res.Puts++
		st.res.UserBytes += st.valueSize
		st.kv.Put(op.key, st.valueSize, done)
	}
}

// RunMix drives several KV tenants' arrival schedules concurrently inside
// one simulation engine: every tenant's timetable is scheduled, then a
// single engine run drains all of them (plus a per-engine Barrier for
// background flushes and compactions), so tenant I/O interleaves
// event-for-event the way concurrent guests on a shared backend would.
// Results are returned in tenant order.
//
// It panics on invalid input (no tenants, a tenant without an engine, a
// device on a different simulation engine, or an invalid spec) — the same
// harness-programming-error contract as workload.RunTenants. One engine
// means one event order, so a mix is exactly reproducible from its specs
// and seeds regardless of host parallelism.
func RunMix(eng *sim.Engine, tenants []MixTenant) []*MixResult {
	if len(tenants) == 0 {
		panic(fmt.Errorf("kv: no tenants"))
	}
	for i, t := range tenants {
		switch {
		case t.Engine == nil:
			panic(fmt.Errorf("kv: tenant %d (%s) has no engine", i, t.Name))
		case t.Engine.Device().Engine() != eng:
			panic(fmt.Errorf("kv: tenant %d (%s) device %q is not on the shared engine", i, t.Name, t.Engine.Device().Name()))
		}
	}
	finishers := make([]func() *MixResult, len(tenants))
	for i, t := range tenants {
		finishers[i] = startMix(eng, t)
	}
	eng.Run()
	// Drain background work (flushes/compactions) before reading stats:
	// foreground acks do not imply the engines went idle.
	drained := 0
	for _, t := range tenants {
		t.Engine.Barrier(func() { drained++ })
	}
	eng.Run()
	if drained != len(tenants) {
		panic(fmt.Errorf("kv: mix did not drain (%d of %d barriers)", drained, len(tenants)))
	}
	out := make([]*MixResult, len(tenants))
	for i, fin := range finishers {
		out[i] = fin()
	}
	return out
}

// MixProfile is the provider-visible demand shape of a measured KV
// tenant: the device-level load its engine actually offered, suitable for
// feeding a fleet placement study (fleet.DemandFromKV). Engines translate
// user ops into very different device traffic — an LSM turns small puts
// into large sequential flush/compaction streams, a page store into
// page-sized read-modify-writes — and placement must pack the translated
// load, not the user-level rate.
type MixProfile struct {
	Name string
	// RatePerSec is the device request rate (reads + writes per second).
	RatePerSec float64
	// MeanSize is the mean device request size in bytes.
	MeanSize int64
	// WriteRatioPct is the device write percentage (0-100).
	WriteRatioPct int
}

// ProfileOf summarizes a mix result as a device-level demand shape. The
// zero profile is returned when the tenant measured no device I/O or no
// elapsed time.
func ProfileOf(r *MixResult) MixProfile {
	p := MixProfile{Name: r.Name}
	ios := r.Stats.DeviceWrites + r.Stats.DeviceReads
	secs := r.Elapsed.Seconds()
	if ios == 0 || secs <= 0 {
		return p
	}
	p.RatePerSec = float64(ios) / secs
	p.MeanSize = (r.Stats.DeviceWriteBytes + r.Stats.DeviceReadBytes) / int64(ios)
	p.WriteRatioPct = int(math.Round(100 * float64(r.Stats.DeviceWrites) / float64(ios)))
	return p
}
