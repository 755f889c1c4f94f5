// Package scenario builds opinionated experiment suites on top of the
// internal/expgrid worker pool. Where internal/harness reproduces the
// paper's figures, scenario answers the operational questions the figures
// imply.
//
// The burst-credit suite (BurstSweep, RunBurst) targets Observation #4 /
// Implication #4 on burstable volume tiers: mixed random I/O swept across
// write ratio × arrival shape × offered rate, run open-loop so the offered
// timeline — not device back-pressure — drives credit consumption. Each
// cell reports when the tier's burst credits ran out, the post-run credit
// and throttle state (captured by InspectCredits while the cell's device
// is still alive), and the latency cliff: completion-weighted latency and
// throughput before and after the first exhaustion, from the open-loop
// result's per-interval timelines.
//
// The noisy-neighbor suite (NeighborSweep, RunNeighbor) targets the
// cross-tenant face of the contract: one steady open-loop victim shares a
// storage backend (essd.Backend — one cluster, one fabric, one pooled
// cleaner) with a swept number of bursty aggressor volumes, through the
// expgrid tenant-mix kind. Each cell reports the victim's tail latency,
// its inflation over the solo-victim control cell (aggressors = 0), and
// the shared-debt throttle onset — when the victim's flow limiter engaged
// because the pooled cleaner backlog, mostly someone else's churn, crossed
// the victim's spare-capacity threshold (InspectNeighbors attributes the
// debt per tenant).
//
// # Model assumptions
//
// Every cell runs on fresh, fully written devices (reads must hit data)
// whose engine starts at virtual time zero; preconditioning consumes no
// virtual time, so credit-exhaustion and throttle-onset timestamps are
// directly comparable across cells. Results are deterministic and
// identical for any worker count. Attaching an expgrid.Cache
// (BurstSweep.Cache, NeighborSweep.Cache) makes warm re-runs skip
// simulation entirely while producing byte-identical reports. Inspect
// captures (CreditInfo, NeighborInfo, KVMixInfo) are stored JSON-encoded
// in every cell, fresh or cached, and the folds read them with
// expgrid.DecodeInfo, so a persisted cache serves cells exactly as a live
// run does.
//
// The isolation comparison (IsolationComparison, RunIsolationComparison)
// reruns the neighbor grid once per backend QoS scheduling policy (fifo,
// wfq, reservation — qos.Isolation) on identical arrival streams: the
// isolation configuration feeds each cell's cache variant, never its
// seeds, so the per-policy victim-tail differences are pure scheduling
// effects. NeighborSweep.Isolation/VictimWeight/VictimReservedRate run a
// single policy inside the plain neighbor suite.
//
// Reports render as aligned tables (FormatBurst, FormatNeighbor,
// FormatIsolation) or as CSV for plotting (WriteBurstCSV and
// WriteBurstTimelineCSV for the burst suite, WriteNeighborCSV for the
// neighbor suite, WriteIsolationCSV for the isolation comparison); the
// CSV schemas are documented in docs/formats.md.
package scenario
