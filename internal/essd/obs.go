package essd

// Observability over the assembled volume stack: tracer attachment and
// state-probe installation. Both planes are off by default — a volume
// without SetTracer pays one nil branch per Submit, and probes only
// exist when a harness installs them.

import (
	"fmt"

	"essdsim/internal/blockdev"
	"essdsim/internal/obs"
)

// Instrument attaches one observability capture to devices built on one
// engine: a tracer sampling every cfg.SampleEvery-th request on each
// elastic volume among devs and, when cfg.ProbeInterval is positive, a
// prober over the first such volume's shared backend (cluster debt and
// node queues, fabric backlogs, every attached volume's gauges). It must
// run before the first request is issued: tracer sampling counts requests
// per volume from zero, and the prober's first sample lands at
// t=interval. Devices that are not elastic volumes (the local SSD) have
// no backend or QoS state to observe and are skipped; it is an error
// when none is elastic.
func Instrument(label string, cfg obs.Config, devs ...blockdev.Device) (*obs.Capture, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cap := &obs.Capture{Label: label, Tracer: obs.NewTracer(cfg.SampleEvery)}
	var first *ESSD
	for _, d := range devs {
		if e, ok := d.(*ESSD); ok {
			e.SetTracer(cap.Tracer)
			if first == nil {
				first = e
			}
		}
	}
	if first == nil {
		return nil, fmt.Errorf("observability needs an elastic (essd-class) device; %s has no backend to trace", label)
	}
	if cfg.ProbeInterval > 0 {
		cap.Prober = obs.NewProber(cfg.ProbeInterval)
		first.be.InstallProbes(cap.Prober)
		cap.Prober.Attach(first.eng)
	}
	return cap, nil
}

// SetTracer attaches a request tracer to the volume: Submit then offers
// every request to the tracer's deterministic sampler, and sampled
// requests record per-stage spans through the frontend, QoS gates,
// fabric, and cluster. A nil tracer (the default) keeps the hot path
// untraced. Tracing never draws from any RNG, so traced runs produce
// byte-identical results to untraced ones.
func (e *ESSD) SetTracer(t *obs.Tracer) { e.trc = t }

// polLabel names the backend isolation policy on trace spans crossing
// the shared fabric and cluster.
func (e *ESSD) polLabel() string { return e.be.cfg.Isolation.Policy.String() }

// InstallProbes registers the volume's state gauges, prefixed with the
// volume name: frontend queue/busy, fabric bytes per direction, the
// cleaner debt this volume's limiter observes, throttle engagement, and
// (burstable tiers) the banked credit balance. All samplers are
// read-only — they never settle QoS state.
func (e *ESSD) InstallProbes(p *obs.Prober) {
	name := e.cfg.Name
	p.Add(name+"/fe/qlen", func() float64 { return float64(e.fe.QueueLen()) })
	p.Add(name+"/fe/busy", func() float64 { return float64(e.fe.Busy()) })
	p.Add(name+"/net-up-bytes", func() float64 { return float64(e.nf.MovedUp()) })
	p.Add(name+"/net-down-bytes", func() float64 { return float64(e.nf.MovedDown()) })
	p.Add(name+"/debt-observed", func() float64 { return float64(e.be.cl.PeekDebtFor(e.flow)) })
	p.Add(name+"/throttled", func() float64 {
		if e.limiter.Engaged() {
			return 1
		}
		return 0
	})
	if e.credits != nil {
		p.Add(name+"/credits", func() float64 { return e.credits.PeekCredits() })
	}
}

// InstallProbes registers the shared backend's gauges — the cluster's
// debt and node resources, the fabric's backlogs — plus every currently
// attached volume's. Attach the volumes before installing.
func (b *Backend) InstallProbes(p *obs.Prober) {
	b.cl.InstallProbes(p)
	b.net.InstallProbes(p)
	for _, v := range b.vols {
		v.InstallProbes(p)
	}
}
