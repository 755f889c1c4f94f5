// Package obs is the simulation-time observability layer: deterministic
// per-request tracing and internal-state probes over the elastic-SSD
// stack, plus the cliff-attribution report built on both.
//
// The paper's argument is that elastic-SSD performance cliffs come from
// internal state tenants cannot see — credit exhaustion, pooled cleaner
// debt, fabric contention. The simulator reproduces every cliff; this
// package explains one. Two planes:
//
//   - Request tracing (Tracer): sampled-by-request-sequence span records
//     following one op through frontend admission, the credit/limiter
//     gates, the fabric pipes, and the cluster node servers. Each Span
//     carries the volume/flow, the queue-wait vs service split, and the
//     isolation-policy decision that scheduled it. Traces export as
//     deterministic CSV (WriteTraceCSV) and Chrome trace-event JSON
//     (WriteTraceEvents) loadable in Perfetto.
//
//   - State probes (Prober): a registry of read-only samplers on a
//     simulated-time cadence — queue depths and busy slots per
//     sim.Server/Pipe, per-flow credit balance, pooled and private
//     cleaner debt, DRR deficits and reservation tokens, netsim per-flow
//     bytes — emitted as time series (WriteProbesCSV / WriteProbesJSON).
//
// Explain correlates a cell's victim tail inflection with the probe
// series and limiter state ("pooled debt crossed the throttle threshold
// at t−Δ; aggressors held 81% of fabric bytes") into a deterministic
// attribution report.
//
// Everything is disabled by default and nil-fast: a nil Tracer, Req,
// Prober, or Config is inert, so the simulator hot paths pay one nil
// check. Enabled observability must not perturb results — samplers are
// read-only (no RNG draws, no settle-style state mutation), and probe
// events only interleave with, never reorder, workload events — so a
// traced run's measurements are byte-identical to an untraced run's.
package obs
