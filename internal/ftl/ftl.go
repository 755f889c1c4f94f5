// Package ftl implements the flash translation layer of the simulated local
// SSD (paper §II-A): page-level address mapping, superblock write frontiers,
// a DRAM write buffer with coalescing and backpressure, greedy garbage
// collection with valid-page relocation, TRIM, and wear accounting.
//
// All state mutations happen synchronously inside the simulation engine's
// event callbacks; the flash array (package flash) models only time. The
// performance phenomena the paper attributes to the local SSD — the fast
// buffered small writes, the GC throughput cliff near 90% of capacity
// written, and GC-induced tail latencies — emerge from these mechanisms
// rather than from fitted curves.
package ftl

import (
	"fmt"

	"essdsim/internal/flash"
	"essdsim/internal/sim"
)

// Config parameterizes the FTL.
type Config struct {
	LogicalPageSize int64   // host-visible block size, typically 4096
	UserCapacity    int64   // advertised capacity in bytes
	Overprovision   float64 // extra physical space fraction, e.g. 0.05

	WriteBufferBytes int64 // DRAM write buffer capacity

	GCLowWaterFrac  float64 // GC starts when free superblocks fall below this fraction
	GCHighWaterFrac float64 // GC stops when free superblocks reach this fraction
	ReserveSBs      int     // superblocks reserved for the GC frontier
	GCStreams       int     // concurrent relocation pipelines during GC
}

// DefaultConfig returns the scaled-970Pro FTL parameters used by the SSD
// profile.
func DefaultConfig(userCapacity int64) Config {
	return Config{
		LogicalPageSize:  4096,
		UserCapacity:     userCapacity,
		Overprovision:    0.05,
		WriteBufferBytes: 64 << 20,
		GCLowWaterFrac:   0.06,
		GCHighWaterFrac:  0.08,
		ReserveSBs:       2,
		GCStreams:        16,
	}
}

// Superblock states.
const (
	sbFree uint8 = iota
	sbOpen
	sbClosed
	sbVictim
)

// Buffer state flags per LPN: low bit marks a pending (not yet drained)
// entry, the upper bits count in-flight program copies.
const (
	bufPending  uint8 = 1
	bufInflight uint8 = 2 // increment per in-flight copy
)

// unmapped is what ppnOf and lpnAt return for an absent entry. The tables
// themselves store target+1, so their zero value means unmapped.
const unmapped int32 = -1

type frontier struct {
	sb   int32 // open superblock, or -1
	next int32 // next slot index within sb
}

// Counters exposes FTL activity for write-amplification and wear analysis.
type Counters struct {
	HostSlots         uint64 // slots written on behalf of the host
	GCSlots           uint64 // slots written by GC relocation
	PreconditionSlots uint64
	Erases            uint64 // superblock erases
	GCVictims         uint64
	InvalidatedBytes  int64
	BufferCoalesced   uint64 // overwrites absorbed in the write buffer
	BufferStallNanos  sim.Duration
}

// WriteAmplification returns (host+gc)/host slot writes, or 1 if no host
// writes have occurred.
func (c Counters) WriteAmplification() float64 {
	if c.HostSlots == 0 {
		return 1
	}
	return float64(c.HostSlots+c.GCSlots) / float64(c.HostSlots)
}

// FTL is the flash translation layer state machine.
type FTL struct {
	eng *sim.Engine
	arr *flash.Array
	cfg Config

	// Geometry, derived once.
	dies         int
	slotsPerPage int
	slotsPerUnit int
	slotsPerSB   int
	numSBs       int
	userLPNs     int64

	// Address state. mapping and rmap hold target+1 so that a fresh make
	// is an all-unmapped table; read them through ppnOf and lpnAt.
	mapping  []int32 // LPN -> packed PPN (sb*slotsPerSB + slot) + 1
	rmap     []int32 // PPN -> LPN + 1
	sbValid  []int32
	sbErases []int32
	sbState  []uint8
	freeSBs  []int32

	host frontier
	gc   frontier

	// Write buffer. pendingFIFO is a ring of the admitted, not yet drained
	// LPNs, oldest at pendHead. Each of them holds a page of bufUsed, so a
	// ring of the buffer's page count never overflows. waiters is a FIFO
	// from waitHead, reset to empty whenever its last entry pops.
	bufState    []uint8 // per-LPN buffer flags
	bufUsed     int64
	pendingFIFO []int64
	pendHead    int
	pendLen     int
	waiters     []waiter
	waitHead    int
	drainBusy   []int8 // in-flight program units per die
	forceFlush  int    // outstanding flush requests
	flushDone   []func()

	gcActive bool

	pageScratch []pageRead // distinct pages of one ReadList or gcMoveBatch call

	counters Counters
}

type waiter struct {
	lpn   int64
	count int64
	since sim.Time
	done  func()
}

// New builds an FTL over the given flash array. It panics on inconsistent
// configuration (a construction-time programming error).
func New(eng *sim.Engine, arr *flash.Array, cfg Config) *FTL {
	fc := arr.Config()
	if cfg.LogicalPageSize <= 0 || fc.PageSize%cfg.LogicalPageSize != 0 {
		panic(fmt.Sprintf("ftl: flash page %d not a multiple of logical page %d",
			fc.PageSize, cfg.LogicalPageSize))
	}
	f := &FTL{eng: eng, arr: arr, cfg: cfg}
	f.dies = fc.Dies()
	f.slotsPerPage = int(fc.PageSize / cfg.LogicalPageSize)
	f.slotsPerUnit = f.slotsPerPage * fc.PlanesPerDie
	f.slotsPerSB = f.slotsPerUnit * f.dies * fc.PagesPerBlock
	f.userLPNs = cfg.UserCapacity / cfg.LogicalPageSize
	physSlots := int64(float64(f.userLPNs) * (1 + cfg.Overprovision))
	f.numSBs = int((physSlots + int64(f.slotsPerSB) - 1) / int64(f.slotsPerSB))
	// The pool must be large enough that the GC high-water mark stays
	// reachable at full logical utilization (user data fully packed, both
	// frontiers open, one superblock of slack); otherwise GC would churn
	// forever against an unreachable target. Iterate because the water
	// marks scale with the pool size.
	userSBs := int((f.userLPNs + int64(f.slotsPerSB) - 1) / int64(f.slotsPerSB))
	for {
		need := userSBs + 2 + f.highWaterSBs() + 1
		if f.numSBs >= need {
			break
		}
		f.numSBs = need
	}
	// rmap stores PPN+1, so the slot count itself must fit in an int32.
	if int64(f.numSBs)*int64(f.slotsPerSB) >= int64(1)<<31 {
		panic("ftl: physical slot space exceeds int32 packing")
	}
	f.mapping = make([]int32, f.userLPNs)
	f.rmap = make([]int32, f.numSBs*f.slotsPerSB)
	f.sbValid = make([]int32, f.numSBs)
	f.sbErases = make([]int32, f.numSBs)
	f.sbState = make([]uint8, f.numSBs)
	f.freeSBs = make([]int32, 0, f.numSBs)
	for i := f.numSBs - 1; i >= 0; i-- {
		f.freeSBs = append(f.freeSBs, int32(i))
	}
	f.host = frontier{sb: -1}
	f.gc = frontier{sb: -1}
	f.bufState = make([]uint8, f.userLPNs)
	f.pendingFIFO = make([]int64, max(0, cfg.WriteBufferBytes/cfg.LogicalPageSize))
	f.drainBusy = make([]int8, f.dies)
	return f
}

// Counters returns a snapshot of activity counters.
func (f *FTL) Counters() Counters { return f.counters }

// UserLPNs returns the number of host-visible logical pages.
func (f *FTL) UserLPNs() int64 { return f.userLPNs }

// FreeSuperblocks returns the current number of free superblocks.
func (f *FTL) FreeSuperblocks() int { return len(f.freeSBs) }

// NumSuperblocks returns the total number of superblocks.
func (f *FTL) NumSuperblocks() int { return f.numSBs }

// SlotsPerUnit returns logical pages per program unit.
func (f *FTL) SlotsPerUnit() int { return f.slotsPerUnit }

// GCActive reports whether garbage collection is currently running.
func (f *FTL) GCActive() bool { return f.gcActive }

// BufferBytes returns the bytes currently held in the write buffer.
func (f *FTL) BufferBytes() int64 { return f.bufUsed }

// InBuffer reports whether the LPN is currently buffered in DRAM (pending or
// in flight), i.e. a read of it is a DRAM hit.
func (f *FTL) InBuffer(lpn int64) bool { return f.bufState[lpn] != 0 }

// Mapped reports whether the LPN has flash-resident data.
func (f *FTL) Mapped(lpn int64) bool { return f.ppnOf(lpn) != unmapped }

// ppnOf returns the PPN backing lpn, or unmapped.
func (f *FTL) ppnOf(lpn int64) int32 { return f.mapping[lpn] - 1 }

// lpnAt returns the LPN stored in slot ppn, or unmapped.
func (f *FTL) lpnAt(ppn int32) int32 { return f.rmap[ppn] - 1 }

func (f *FTL) lowWaterSBs() int {
	n := int(f.cfg.GCLowWaterFrac * float64(f.numSBs))
	if n < f.cfg.ReserveSBs+1 {
		n = f.cfg.ReserveSBs + 1
	}
	return n
}

func (f *FTL) highWaterSBs() int {
	n := int(f.cfg.GCHighWaterFrac * float64(f.numSBs))
	if n <= f.lowWaterSBs() {
		n = f.lowWaterSBs() + 1
	}
	return n
}

// dieOfSlot returns the die a slot's unit stripes to. Slots are
// non-negative int32, so it divides in 32-bit unsigned arithmetic, which is
// cheaper than 64-bit signed division on this once-per-unit path.
func (f *FTL) dieOfSlot(slot int32) int {
	return int(uint32(slot) / uint32(f.slotsPerUnit) % uint32(f.dies))
}

func (f *FTL) pageOfPPN(ppn int32) int32 {
	return ppn / int32(f.slotsPerPage)
}

// invalidate drops the current mapping of lpn, if any.
func (f *FTL) invalidate(lpn int64) {
	old := f.ppnOf(lpn)
	if old == unmapped {
		return
	}
	f.mapping[lpn] = 0
	f.rmap[old] = 0
	f.sbValid[old/int32(f.slotsPerSB)]--
	f.counters.InvalidatedBytes += f.cfg.LogicalPageSize
}

// ensureOpen makes sure the frontier has an open superblock with room for at
// least one unit. reserve is the number of free superblocks that must remain
// after opening. Returns false if no superblock can be opened.
func (f *FTL) ensureOpen(fr *frontier, reserve int) bool {
	if fr.sb >= 0 && int(fr.next)+f.slotsPerUnit <= f.slotsPerSB {
		return true
	}
	if fr.sb >= 0 {
		f.sbState[fr.sb] = sbClosed
		fr.sb = -1
	}
	if len(f.freeSBs) <= reserve {
		return false
	}
	sb := f.freeSBs[len(f.freeSBs)-1]
	f.freeSBs = f.freeSBs[:len(f.freeSBs)-1]
	f.sbState[sb] = sbOpen
	fr.sb = sb
	fr.next = 0
	return true
}

// allocUnit reserves the next program unit on the frontier and binds the
// given LPNs to its slots, updating the mapping synchronously. It returns
// the die the unit lands on.
func (f *FTL) allocUnit(fr *frontier, lpns []int64) (die int) {
	die = f.dieOfSlot(fr.next)
	ppn := fr.sb*int32(f.slotsPerSB) + fr.next
	fr.next += int32(f.slotsPerUnit)
	for _, lpn := range lpns {
		f.invalidate(lpn)
		f.mapping[lpn] = ppn + 1
		f.rmap[ppn] = int32(lpn) + 1
		ppn++
	}
	f.sbValid[fr.sb] += int32(len(lpns))
	return die
}

// HostWrite buffers count logical pages starting at lpn and acknowledges
// (calls done) once all of them are admitted to the write buffer. Admission
// is immediate when the buffer has room and queues behind drain progress
// otherwise — the mechanism behind the local SSD's fast small writes and its
// GC-era stalls.
func (f *FTL) HostWrite(lpn, count int64, done func()) {
	if done == nil {
		done = func() {}
	}
	f.waiters = append(f.waiters, waiter{lpn: lpn, count: count, since: f.eng.Now(), done: done})
	f.admitWaiters()
	f.kickDrain()
}

// admitWaiters admits queued writes page by page, in FIFO order, as buffer
// space allows. Partial admission lets a single request larger than the
// whole buffer stream through it; the request acks when its last page is
// admitted.
func (f *FTL) admitWaiters() {
	for f.waitHead < len(f.waiters) {
		w := &f.waiters[f.waitHead]
		for w.count > 0 {
			p := w.lpn
			if f.bufState[p]&bufPending != 0 {
				f.counters.BufferCoalesced++
				w.lpn++
				w.count--
				continue
			}
			if f.bufUsed+f.cfg.LogicalPageSize > f.cfg.WriteBufferBytes {
				return // head waiter blocked: preserve FIFO order
			}
			f.bufState[p] |= bufPending
			f.pushPending(p)
			f.bufUsed += f.cfg.LogicalPageSize
			w.lpn++
			w.count--
		}
		f.counters.BufferStallNanos += f.eng.Now().Sub(w.since)
		done := w.done
		f.popWaiter()
		done()
	}
}

// popWaiter drops the head waiter in O(1) amortized: the queue resets when
// it empties and compacts once its popped prefix outgrows the live tail.
func (f *FTL) popWaiter() {
	f.waiters[f.waitHead] = waiter{} // release the callback
	f.waitHead++
	live := len(f.waiters) - f.waitHead
	switch {
	case live == 0:
		f.waiters = f.waiters[:0]
		f.waitHead = 0
	case f.waitHead >= live:
		n := copy(f.waiters, f.waiters[f.waitHead:])
		clear(f.waiters[n:])
		f.waiters = f.waiters[:n]
		f.waitHead = 0
	}
}

// pushPending appends lpn to the pending ring.
func (f *FTL) pushPending(lpn int64) {
	if f.pendLen == len(f.pendingFIFO) {
		panic("ftl: write-buffer ring overflow")
	}
	i := f.pendHead + f.pendLen
	if i >= len(f.pendingFIFO) {
		i -= len(f.pendingFIFO)
	}
	f.pendingFIFO[i] = lpn
	f.pendLen++
}

// popPending moves the oldest len(batch) pending LPNs into batch and marks
// them in flight.
func (f *FTL) popPending(batch []int64) {
	for i := range batch {
		p := f.pendingFIFO[f.pendHead]
		if f.pendHead++; f.pendHead == len(f.pendingFIFO) {
			f.pendHead = 0
		}
		batch[i] = p
		f.bufState[p] &^= bufPending
		f.bufState[p] += bufInflight
	}
	f.pendLen -= len(batch)
}

// Flush forces the write buffer to drain completely, then calls done.
func (f *FTL) Flush(done func()) {
	if f.bufUsed == 0 && len(f.waiters) == 0 {
		done()
		return
	}
	f.forceFlush++
	f.flushDone = append(f.flushDone, done)
	f.kickDrain()
}

func (f *FTL) checkFlushDone() {
	if f.forceFlush == 0 || f.bufUsed != 0 || len(f.waiters) != 0 {
		return
	}
	dones := f.flushDone
	f.forceFlush = 0
	f.flushDone = nil
	for _, d := range dones {
		d()
	}
}

// kickDrain starts as many program units as die scheduling and space allow.
func (f *FTL) kickDrain() {
	for f.pendLen > 0 {
		if f.pendLen < f.slotsPerUnit && f.forceFlush == 0 {
			return // wait for a full unit
		}
		if !f.ensureOpen(&f.host, f.cfg.ReserveSBs) {
			f.maybeGC() // out of space: GC will re-kick on frees
			return
		}
		die := f.dieOfSlot(f.host.next)
		if f.drainBusy[die] >= 4 {
			// Head-of-line: the frontier's next die is saturated. A deeper
			// per-die window tolerates the TLC program-time spread without
			// idling other dies behind one slow MSB program.
			return
		}
		n := min(f.slotsPerUnit, f.pendLen)
		batch := make([]int64, n)
		f.popPending(batch)
		f.allocUnit(&f.host, batch)
		f.counters.HostSlots += uint64(n)
		f.drainBusy[die]++
		released := int64(n) * f.cfg.LogicalPageSize
		f.arr.ProgramUnit(die, func() {
			f.drainBusy[die]--
			f.bufUsed -= released
			for _, p := range batch {
				f.bufState[p] -= bufInflight
			}
			f.admitWaiters()
			f.maybeGC()
			f.kickDrain()
			f.checkFlushDone()
		})
		f.maybeGC()
	}
}

// ReadLPNs reads count logical pages starting at lpn, calling done when all
// media reads complete. Buffered and unmapped pages cost no media time.
// It returns the number of flash page reads issued (useful for tests).
func (f *FTL) ReadLPNs(lpn, count int64, done func()) int {
	lpns := make([]int64, count)
	for i := range lpns {
		lpns[i] = lpn + int64(i)
	}
	return f.ReadList(lpns, done)
}

// ReadList reads an arbitrary set of logical pages, calling done when all
// media reads complete. Adjacent LPNs that share a flash page share one
// media read.
func (f *FTL) ReadList(lpns []int64, done func()) int {
	pages := f.pageScratch[:0]
	for _, p := range lpns {
		if f.bufState[p] != 0 {
			continue // DRAM hit
		}
		ppn := f.ppnOf(p)
		if ppn == unmapped {
			continue // never written: served from the zero map
		}
		pages = addPage(pages, f.pageOfPPN(ppn), f.dieOfSlot(ppn%int32(f.slotsPerSB)))
	}
	f.pageScratch = pages
	f.readPages(pages, done)
	return len(pages)
}

// pageRead is one distinct flash page a read or a GC batch fetches.
type pageRead struct {
	page int32
	die  int
}

// addPage appends the page unless pages already holds it. Pages keep
// first-seen order, so the media reads issue in a deterministic order. A
// call collects a handful of pages, so a linear scan beats a map; it
// starts from the end, where runs of adjacent slots find their page first.
func addPage(pages []pageRead, page int32, die int) []pageRead {
	for i := len(pages) - 1; i >= 0; i-- {
		if pages[i].page == page {
			return pages
		}
	}
	return append(pages, pageRead{page: page, die: die})
}

// readPages issues one media read per page and calls done after the last,
// or at once (as an event) when there is none. Reads complete only from
// later events, so callers may reuse pages as soon as it returns.
func (f *FTL) readPages(pages []pageRead, done func()) {
	if len(pages) == 0 {
		f.eng.Schedule(0, done)
		return
	}
	remaining := len(pages)
	read := func() {
		remaining--
		if remaining == 0 {
			done()
		}
	}
	for _, pg := range pages {
		f.arr.ReadPage(pg.die, read)
	}
}

// Trim invalidates count logical pages starting at lpn. Buffered copies are
// left to drain (they will be garbage immediately), matching real devices'
// simplest deallocate behaviour.
func (f *FTL) Trim(lpn, count int64) {
	for i := int64(0); i < count; i++ {
		f.invalidate(lpn + i)
	}
}

// maybeGC starts the GC worker if the free pool fell below the low water
// mark.
func (f *FTL) maybeGC() {
	if f.gcActive || len(f.freeSBs) >= f.lowWaterSBs() {
		return
	}
	f.gcActive = true
	f.gcStep()
}

func (f *FTL) gcStep() {
	if len(f.freeSBs) >= f.highWaterSBs() {
		f.gcActive = false
		return
	}
	v := f.pickVictim()
	if v < 0 {
		f.gcActive = false
		return
	}
	if f.sbValid[v] >= int32(f.slotsPerSB) {
		// Even the best victim is fully valid: relocation would free
		// nothing. Stop rather than churn write amplification forever;
		// the next invalidation re-arms GC.
		f.gcActive = false
		return
	}
	f.sbState[v] = sbVictim
	f.counters.GCVictims++
	f.relocate(v, func() {
		f.eraseSB(v, f.gcStep)
	})
}

// pickVictim returns the closed superblock with the fewest valid slots,
// breaking ties toward the least-worn block — greedy selection with a
// wear-leveling nudge. Returns -1 if no victim exists.
func (f *FTL) pickVictim() int32 {
	best := int32(-1)
	for i := 0; i < f.numSBs; i++ {
		if f.sbState[i] != sbClosed {
			continue
		}
		if best < 0 ||
			f.sbValid[i] < f.sbValid[best] ||
			(f.sbValid[i] == f.sbValid[best] && f.sbErases[i] < f.sbErases[best]) {
			best = int32(i)
		}
	}
	return best
}

// relocate moves all still-valid slots of victim v to the GC frontier using
// up to GCStreams concurrent read+program pipelines, then calls done.
func (f *FTL) relocate(v int32, done func()) {
	base := int32(f.slotsPerSB) * v
	var live []int32
	for s := int32(0); s < int32(f.slotsPerSB); s++ {
		if f.lpnAt(base+s) != unmapped {
			live = append(live, s)
		}
	}
	idx, active := 0, 0
	finished := false
	var pump func()
	finish := func() {
		if !finished && idx >= len(live) && active == 0 {
			finished = true
			done()
		}
	}
	pump = func() {
		for active < f.cfg.GCStreams && idx < len(live) {
			n := f.slotsPerUnit
			if n > len(live)-idx {
				n = len(live) - idx
			}
			batch := live[idx : idx+n]
			idx += n
			active++
			f.gcMoveBatch(v, batch, func() {
				active--
				pump()
				finish()
			})
		}
		finish()
	}
	pump()
}

// gcMoveBatch reads the flash pages backing a batch of victim slots and
// programs the still-live ones to the GC frontier.
func (f *FTL) gcMoveBatch(v int32, slots []int32, done func()) {
	base := int32(f.slotsPerSB) * v
	pages := f.pageScratch[:0]
	for _, s := range slots {
		if f.lpnAt(base+s) == unmapped {
			continue // overwritten since selection
		}
		pages = addPage(pages, f.pageOfPPN(base+s), f.dieOfSlot(s))
	}
	f.pageScratch = pages
	if len(pages) == 0 {
		f.eng.Schedule(0, done)
		return
	}
	f.readPages(pages, func() { f.gcProgramBatch(v, slots, done) })
}

func (f *FTL) gcProgramBatch(v int32, slots []int32, done func()) {
	base := int32(f.slotsPerSB) * v
	var lpns []int64
	for _, s := range slots {
		lpn := f.lpnAt(base + s)
		if lpn != unmapped {
			lpns = append(lpns, int64(lpn))
		}
	}
	if len(lpns) == 0 {
		f.eng.Schedule(0, done)
		return
	}
	// The GC frontier may dip into the reserve; progress is guaranteed
	// because erasing the victim frees more than relocation consumes.
	if !f.ensureOpen(&f.gc, 0) {
		panic("ftl: GC frontier could not open a superblock (reserve misconfigured)")
	}
	die := f.allocUnit(&f.gc, lpns)
	f.counters.GCSlots += uint64(len(lpns))
	f.arr.ProgramUnit(die, done)
}

// eraseSB erases all block columns of the victim in parallel, returns it to
// the free pool, and restarts stalled host drains.
func (f *FTL) eraseSB(v int32, done func()) {
	remaining := f.dies
	for d := 0; d < f.dies; d++ {
		f.arr.EraseBlockColumn(d, func() {
			remaining--
			if remaining > 0 {
				return
			}
			base := f.slotsPerSB * int(v)
			clear(f.rmap[base : base+f.slotsPerSB])
			f.sbValid[v] = 0
			f.sbErases[v]++
			f.sbState[v] = sbFree
			f.freeSBs = append(f.freeSBs, v)
			f.counters.Erases++
			f.kickDrain()
			done()
		})
	}
}

// Precondition fills fillFrac of the logical space instantly (no simulated
// time), as if it had been written once. With randomized=false pages are
// laid out sequentially (physically striped in LPN order, the layout after a
// sequential fill); with randomized=true LPN order is permuted, emulating a
// randomly written device. rng is only used when randomized.
func (f *FTL) Precondition(fillFrac float64, randomized bool, rng *sim.RNG) {
	if fillFrac <= 0 {
		return
	}
	if fillFrac > 1 {
		fillFrac = 1
	}
	n := int64(fillFrac * float64(f.userLPNs))
	// A sequential fill writes LPNs in order, so only a randomized one
	// needs the whole permutation; the sequential one builds each unit in
	// a reused scratch slice.
	var order []int64
	if randomized {
		order = make([]int64, n)
		for i := range order {
			order[i] = int64(i)
		}
		for i := int64(n - 1); i > 0; i-- {
			j := rng.Int64N(i + 1)
			order[i], order[j] = order[j], order[i]
		}
	}
	unit := make([]int64, f.slotsPerUnit)
	for i := int64(0); i < n; i += int64(f.slotsPerUnit) {
		end := min(i+int64(f.slotsPerUnit), n)
		lpns := unit[:end-i]
		if randomized {
			lpns = order[i:end]
		} else {
			for j := range lpns {
				lpns[j] = i + int64(j)
			}
		}
		if !f.ensureOpen(&f.host, f.cfg.ReserveSBs) {
			panic("ftl: precondition ran out of space")
		}
		f.allocUnit(&f.host, lpns)
		f.counters.PreconditionSlots += uint64(end - i)
	}
}

// Utilization returns the fraction of user LPNs currently mapped.
func (f *FTL) Utilization() float64 {
	var mappedCount int64
	for _, sb := range f.sbValid {
		mappedCount += int64(sb)
	}
	return float64(mappedCount) / float64(f.userLPNs)
}
