// Package expgrid runs declarative experiment grids — a device axis
// crossed with the axes of one workload kind — on a pool of parallel
// workers.
//
// # Cell workload kinds
//
// A sweep's Kind is a CellKind value that carries its own axes, settings,
// and hooks, and selects what each cell runs. Closed drives a fixed queue
// depth through workload.Run over pattern, block-size, queue-depth, and
// write-ratio axes (the paper's fio grids). Open issues requests on an
// arrival schedule through workload.RunOpen, adding arrival-shape and
// offered-rate axes — the regime where provisioned budgets and burst
// credits dominate. Replay runs one recorded trace per device through
// trace.Replay, optionally fitted to each device. Tenants runs several
// generators against distinct volumes inside one engine through
// workload.RunTenants over aggressor-count, rate, and write-ratio axes —
// the multi-tenant regime where volumes sharing a backend interfere. KV
// runs key-value tenants (LSM or page-store engines on volumes of one
// shared backend) through kv.RunMix over engine, key-skew, and value-size
// axes. Closed, Open, and Replay cells construct their device from the
// device axis and take an optional Inspect hook; Tenants and KV cells are
// built entirely by their Build hook and inspected by their Inspect hook.
// All five share the isolation, seeding, caching, and determinism
// guarantees below; a new workload family enters as one more kind type.
//
// # Cell-isolation model
//
// A Sweep enumerates its axes into a flat list of Cells in a fixed
// row-major order: devices outermost, then the kind's axes in the order
// its type documents (for Closed: patterns, block sizes, queue depths,
// write ratios). Every cell is an independent experiment: the worker that
// executes it constructs a fresh device (or, for hook-built kinds, a fresh
// backend and engine), preconditions it, and runs one workload on the
// cell's own sim.Engine. No simulation state is shared between cells,
// which is what makes the grid embarrassingly parallel — exactly like
// running each fio job on its own re-initialized volume. The Runner
// therefore executes cells concurrently with a configurable number of
// workers and still yields results in the deterministic enumeration order.
//
// # Seed derivation
//
// Each cell's RNG seed is a pure hash of the sweep's root seed, its label,
// its device name, and the cell's own kind coordinates (for Closed:
// pattern, block size, queue depth, write ratio; the other kinds add a tag
// so their cells never share a seed with a closed cell). The hash is
// independent of the cell's position in the enumeration, so adding,
// removing, or reordering axis values never changes the RNG stream of any
// other cell: a cell measures the same numbers whether it runs in a 1-cell
// sweep or a 1000-cell sweep, with 1 worker or with N. This replaces the
// old harness scheme of incrementing a shared counter per cell, under
// which any change to the grid silently re-seeded every cell after it.
//
// # Result caching
//
// A Sweep with a Cache attached memoizes successful cell results across
// sweeps: a cell is keyed by its coordinate-hash seed plus a fingerprint
// of every result-shaping sweep setting (Sweep.Fingerprint), so two sweeps
// share an entry exactly when the cell would measure byte-identical
// results. Probing workloads that revisit coordinates — a latency-SLO
// binary search, a re-run of a whole suite — skip the simulation and
// return the stored measurement, marked CellResult.Cached. The cache is a
// bounded LRU, safe for concurrent workers, and persists to JSON
// (Cache.SaveFile/LoadFile) with deterministic bytes. A cell's
// Measurement is both its result and its cache record: an inspect hook's
// capture is JSON-encoded into Measurement.Info once, when the cell runs,
// and folds read it with DecodeInfo whether the cell ran or came from the
// cache. A capture must therefore encode (exported fields, no channels,
// NaNs, or infinities); one that does not fails its cell. Two identities
// live outside the key and must be kept stable by the caller: the factory
// or Build hook behind a device name, and the semantics of the inspect
// hook — change either together with the sweep Label.
package expgrid
