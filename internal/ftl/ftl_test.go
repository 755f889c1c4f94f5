package ftl

import (
	"slices"
	"testing"
	"testing/quick"

	"essdsim/internal/flash"
	"essdsim/internal/sim"
)

// smallSetup builds a tiny FTL (64 MiB user space) for fast tests.
func smallSetup(t *testing.T, userMB int64, op float64) (*sim.Engine, *FTL) {
	t.Helper()
	eng := sim.NewEngine()
	fc := flash.Config{
		Channels:       2,
		DiesPerChannel: 2,
		PlanesPerDie:   2,
		PagesPerBlock:  16,
		BlocksPerPlane: 4096,
		PageSize:       16 << 10,
		ReadLatency:    40 * sim.Microsecond,
		ProgramLatency: 190 * sim.Microsecond,
		EraseLatency:   2 * sim.Millisecond,
		ChannelBW:      1.2e9,
	}
	arr := flash.NewArray(eng, fc, sim.NewRNG(3, 3))
	cfg := Config{
		LogicalPageSize:  4096,
		UserCapacity:     userMB << 20,
		Overprovision:    op,
		WriteBufferBytes: 1 << 20,
		GCLowWaterFrac:   0.06,
		GCHighWaterFrac:  0.08,
		ReserveSBs:       2,
		GCStreams:        4,
	}
	return eng, New(eng, arr, cfg)
}

func TestGeometryDerivation(t *testing.T) {
	_, f := smallSetup(t, 64, 0.05)
	if f.slotsPerPage != 4 {
		t.Fatalf("slotsPerPage = %d", f.slotsPerPage)
	}
	if f.slotsPerUnit != 8 {
		t.Fatalf("slotsPerUnit = %d", f.slotsPerUnit)
	}
	// 8 slots/unit × 4 dies × 16 pages/block = 512 slots per superblock.
	if f.slotsPerSB != 512 {
		t.Fatalf("slotsPerSB = %d", f.slotsPerSB)
	}
	if f.userLPNs != 16384 {
		t.Fatalf("userLPNs = %d", f.userLPNs)
	}
	// At least user + OP superblocks.
	if f.numSBs < 33 {
		t.Fatalf("numSBs = %d", f.numSBs)
	}
}

func TestWriteAckFromBuffer(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	var acked sim.Time = -1
	f.HostWrite(0, 1, func() { acked = eng.Now() })
	if acked != 0 {
		t.Fatalf("buffered write not acked synchronously: %v", acked)
	}
	if f.BufferBytes() != 4096 {
		t.Fatalf("buffer bytes = %d", f.BufferBytes())
	}
	if !f.InBuffer(0) {
		t.Fatal("LPN not marked buffered")
	}
	eng.Run()
}

func TestBufferCoalescing(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	n := 0
	f.HostWrite(5, 1, func() { n++ })
	f.HostWrite(5, 1, func() { n++ }) // coalesces: same LPN still pending
	if n != 2 {
		t.Fatalf("acks = %d", n)
	}
	if f.BufferBytes() != 4096 {
		t.Fatalf("coalesced write double-charged: %d", f.BufferBytes())
	}
	if f.Counters().BufferCoalesced != 1 {
		t.Fatalf("coalesce counter = %d", f.Counters().BufferCoalesced)
	}
	eng.Run()
}

func TestDrainProgramsFullUnits(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	// 8 LPNs = exactly one program unit.
	f.HostWrite(0, 8, nil)
	eng.Run()
	if got := f.Counters().HostSlots; got != 8 {
		t.Fatalf("host slots = %d", got)
	}
	if f.BufferBytes() != 0 {
		t.Fatalf("buffer not drained: %d", f.BufferBytes())
	}
	for i := int64(0); i < 8; i++ {
		if !f.Mapped(i) {
			t.Fatalf("LPN %d unmapped after drain", i)
		}
		if f.InBuffer(i) {
			t.Fatalf("LPN %d still buffered", i)
		}
	}
}

func TestPartialUnitWaitsWithoutFlush(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	f.HostWrite(0, 3, nil) // less than one unit
	eng.Run()
	if f.Counters().HostSlots != 0 {
		t.Fatal("partial unit drained without flush")
	}
	if f.BufferBytes() != 3*4096 {
		t.Fatalf("buffer bytes = %d", f.BufferBytes())
	}
}

func TestFlushDrainsPartialUnit(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	f.HostWrite(0, 3, nil)
	flushed := false
	f.Flush(func() { flushed = true })
	eng.Run()
	if !flushed {
		t.Fatal("flush never completed")
	}
	if f.Counters().HostSlots != 3 {
		t.Fatalf("host slots = %d", f.Counters().HostSlots)
	}
	if f.BufferBytes() != 0 {
		t.Fatal("buffer not empty after flush")
	}
}

func TestFlushOnEmptyBufferImmediate(t *testing.T) {
	_, f := smallSetup(t, 64, 0.05)
	called := false
	f.Flush(func() { called = true })
	if !called {
		t.Fatal("empty flush must complete synchronously")
	}
}

func TestBufferBackpressure(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	// Buffer is 1 MiB = 256 LPNs. Write 512 LPNs in one request: must
	// stall until drain frees space, then ack.
	var ackAt sim.Time = -1
	f.HostWrite(0, 512, func() { ackAt = eng.Now() })
	if ackAt == 0 {
		t.Fatal("oversized write acked without stalling")
	}
	eng.Run()
	if ackAt <= 0 {
		t.Fatal("oversized write never acked")
	}
	if f.Counters().BufferStallNanos <= 0 {
		t.Fatal("stall time not accounted")
	}
}

func TestOverwriteInvalidates(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	f.HostWrite(0, 8, nil)
	eng.Run()
	before := f.Counters().InvalidatedBytes
	f.HostWrite(0, 8, nil)
	eng.Run()
	gained := f.Counters().InvalidatedBytes - before
	if gained != 8*4096 {
		t.Fatalf("invalidated %d bytes, want %d", gained, 8*4096)
	}
	if got := f.Counters().HostSlots; got != 16 {
		t.Fatalf("host slots = %d", got)
	}
}

func TestReadGroupsFlashPages(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	f.HostWrite(0, 8, nil)
	eng.Run()
	// 8 sequential LPNs = 2 flash pages (4 slots each).
	n := f.ReadLPNs(0, 8, func() {})
	if n != 2 {
		t.Fatalf("page reads = %d, want 2", n)
	}
	eng.Run()
}

func TestReadUnmappedAndBufferedFree(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	f.HostWrite(0, 2, nil) // stays in buffer (partial unit)
	done := false
	n := f.ReadLPNs(0, 4, func() { done = true }) // 2 buffered + 2 unmapped
	if n != 0 {
		t.Fatalf("media reads = %d, want 0", n)
	}
	eng.Run()
	if !done {
		t.Fatal("read completion lost")
	}
}

func TestTrimInvalidates(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	f.HostWrite(0, 8, nil)
	eng.Run()
	f.Trim(0, 8)
	for i := int64(0); i < 8; i++ {
		if f.Mapped(i) {
			t.Fatalf("LPN %d mapped after trim", i)
		}
	}
	if n := f.ReadLPNs(0, 8, func() {}); n != 0 {
		t.Fatalf("trimmed read cost %d media reads", n)
	}
	eng.Run()
}

func TestPreconditionSequential(t *testing.T) {
	_, f := smallSetup(t, 64, 0.05)
	f.Precondition(1.0, false, sim.NewRNG(1, 1))
	if got := f.Utilization(); got < 0.999 {
		t.Fatalf("utilization = %v", got)
	}
	for i := int64(0); i < f.userLPNs; i++ {
		if !f.Mapped(i) {
			t.Fatalf("LPN %d unmapped after full precondition", i)
		}
	}
	// Sequential layout: LPNs 0..7 share a unit => 2 flash pages.
	if n := f.ReadLPNs(0, 8, func() {}); n != 2 {
		t.Fatalf("sequential precondition layout: %d page reads", n)
	}
}

func TestPreconditionRandomScatters(t *testing.T) {
	_, f := smallSetup(t, 64, 0.05)
	f.Precondition(1.0, true, sim.NewRNG(1, 1))
	// Randomized layout: 8 sequential LPNs land on ~8 distinct pages.
	if n := f.ReadLPNs(0, 8, func() {}); n < 5 {
		t.Fatalf("randomized precondition too clustered: %d page reads", n)
	}
}

func TestPreconditionPartial(t *testing.T) {
	_, f := smallSetup(t, 64, 0.05)
	f.Precondition(0.5, false, sim.NewRNG(1, 1))
	u := f.Utilization()
	if u < 0.49 || u > 0.51 {
		t.Fatalf("utilization = %v, want ~0.5", u)
	}
}

// TestGCReclaimsSpace drives sustained random overwrites through a small
// device and verifies GC keeps it writable, conserves mapping integrity, and
// produces write amplification > 1.
func TestGCReclaimsSpace(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.10)
	rng := sim.NewRNG(11, 13)
	// Write 3× the user capacity in random 8-LPN bursts.
	totalUnits := 3 * int(f.userLPNs) / 8
	pendingAcks := 0
	for i := 0; i < totalUnits; i++ {
		lpn := rng.Int64N(f.userLPNs - 8)
		pendingAcks++
		f.HostWrite(lpn, 8, func() { pendingAcks-- })
		// Periodically drain the event loop to let GC interleave.
		if i%32 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if pendingAcks != 0 {
		t.Fatalf("%d writes never acked (deadlock?)", pendingAcks)
	}
	c := f.Counters()
	if c.GCVictims == 0 || c.Erases == 0 {
		t.Fatalf("GC never ran: %+v", c)
	}
	if wa := c.WriteAmplification(); wa <= 1.0 {
		t.Fatalf("write amplification = %v, want > 1", wa)
	}
	if f.FreeSuperblocks() == 0 {
		t.Fatal("device wedged with zero free superblocks")
	}
	checkIntegrity(t, f)
}

// checkIntegrity verifies mapping/rmap/valid-count consistency.
func checkIntegrity(t *testing.T, f *FTL) {
	t.Helper()
	// Every mapped LPN's rmap entry must point back at it.
	var mappedCount int64
	for lpn := int64(0); lpn < f.userLPNs; lpn++ {
		ppn := f.ppnOf(lpn)
		if ppn == unmapped {
			continue
		}
		mappedCount++
		if got := f.lpnAt(ppn); got != int32(lpn) {
			t.Fatalf("rmap[%d] = %d, want %d", ppn, got, lpn)
		}
	}
	// Per-superblock valid counts must equal live rmap entries.
	for sb := 0; sb < f.numSBs; sb++ {
		var live int32
		base := sb * f.slotsPerSB
		for s := 0; s < f.slotsPerSB; s++ {
			if f.lpnAt(int32(base+s)) != unmapped {
				live++
			}
		}
		if live != f.sbValid[sb] {
			t.Fatalf("sb %d: valid count %d, live %d", sb, f.sbValid[sb], live)
		}
	}
}

// Property: any sequence of small writes and trims preserves mapping
// integrity once the event loop drains.
func TestMappingIntegrityProperty(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		eng, f := smallSetup(t, 16, 0.10)
		rng := sim.NewRNG(seed, seed^0xabcdef)
		for _, op := range ops {
			lpn := int64(op) % (f.userLPNs - 8)
			if op%5 == 0 {
				f.Trim(lpn, 4)
			} else {
				f.HostWrite(lpn, int64(op%8)+1, nil)
			}
			_ = rng
		}
		f.Flush(func() {})
		eng.Run()
		// Inline integrity check (cannot use t.Fatalf inside quick).
		for lpn := int64(0); lpn < f.userLPNs; lpn++ {
			ppn := f.ppnOf(lpn)
			if ppn != unmapped && f.lpnAt(ppn) != int32(lpn) {
				return false
			}
		}
		for sb := 0; sb < f.numSBs; sb++ {
			var live int32
			base := sb * f.slotsPerSB
			for s := 0; s < f.slotsPerSB; s++ {
				if f.lpnAt(int32(base+s)) != unmapped {
					live++
				}
			}
			if live != f.sbValid[sb] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAmplificationCounter(t *testing.T) {
	c := Counters{HostSlots: 100, GCSlots: 50}
	if wa := c.WriteAmplification(); wa != 1.5 {
		t.Fatalf("WA = %v", wa)
	}
	if wa := (Counters{}).WriteAmplification(); wa != 1 {
		t.Fatalf("empty WA = %v", wa)
	}
}

func TestWearAccounting(t *testing.T) {
	eng, f := smallSetup(t, 16, 0.10)
	rng := sim.NewRNG(5, 5)
	for i := 0; i < 4*int(f.userLPNs)/8; i++ {
		f.HostWrite(rng.Int64N(f.userLPNs-8), 8, nil)
		if i%64 == 0 {
			eng.Run()
		}
	}
	eng.Run()
	if f.Counters().Erases == 0 {
		t.Skip("no GC in this configuration")
	}
	var total int32
	for _, e := range f.sbErases {
		total += e
	}
	if uint64(total) != f.Counters().Erases {
		t.Fatalf("per-sb erases %d != counter %d", total, f.Counters().Erases)
	}
}

// TestPreconditionSequentialLayoutPinned pins the sequential fill's layout:
// LPN i lands in PPN i, the superblocks fill in order, and the host
// frontier stops just past the last (partial) unit.
func TestPreconditionSequentialLayoutPinned(t *testing.T) {
	_, f := smallSetup(t, 64, 0.05)
	f.Precondition(0.7, false, nil)
	n := int64(0.7 * float64(f.userLPNs))
	if n%int64(f.slotsPerUnit) == 0 {
		t.Fatalf("fill of %d LPNs ends on a unit boundary; pick one that does not", n)
	}
	for lpn := int64(0); lpn < f.userLPNs; lpn++ {
		want := int32(lpn)
		if lpn >= n {
			want = unmapped
		}
		if got := f.ppnOf(lpn); got != want {
			t.Fatalf("LPN %d -> PPN %d, want %d", lpn, got, want)
		}
	}
	for ppn := int32(0); ppn < int32(len(f.rmap)); ppn++ {
		want := ppn
		if int64(ppn) >= n {
			want = unmapped
		}
		if got := f.lpnAt(ppn); got != want {
			t.Fatalf("PPN %d holds LPN %d, want %d", ppn, got, want)
		}
	}
	units := (n + int64(f.slotsPerUnit) - 1) / int64(f.slotsPerUnit)
	lastSB := int32((units - 1) * int64(f.slotsPerUnit) / int64(f.slotsPerSB))
	for sb := int32(0); sb < int32(f.numSBs); sb++ {
		valid := min(max(n-int64(sb)*int64(f.slotsPerSB), 0), int64(f.slotsPerSB))
		if f.sbValid[sb] != int32(valid) {
			t.Fatalf("sb %d valid = %d, want %d", sb, f.sbValid[sb], valid)
		}
		state := sbFree
		switch {
		case sb < lastSB:
			state = sbClosed
		case sb == lastSB:
			state = sbOpen
		}
		if f.sbState[sb] != state {
			t.Fatalf("sb %d state = %d, want %d", sb, f.sbState[sb], state)
		}
	}
	wantNext := int32(units*int64(f.slotsPerUnit) - int64(lastSB)*int64(f.slotsPerSB))
	if f.host != (frontier{sb: lastSB, next: wantNext}) {
		t.Fatalf("host frontier = %+v, want {sb:%d next:%d}", f.host, lastSB, wantNext)
	}
	if got := f.FreeSuperblocks(); got != f.numSBs-int(lastSB)-1 {
		t.Fatalf("free superblocks = %d, want %d", got, f.numSBs-int(lastSB)-1)
	}
	if got := f.Counters().PreconditionSlots; got != uint64(n) {
		t.Fatalf("PreconditionSlots = %d, want %d", got, n)
	}
	checkIntegrity(t, f)
}

// TestPreconditionRandomizedMatchesAllocUnit pins the randomized fill to
// its definition: the seeded Fisher-Yates permutation of the filled LPNs,
// written unit by unit through allocUnit on the host frontier.
func TestPreconditionRandomizedMatchesAllocUnit(t *testing.T) {
	_, got := smallSetup(t, 64, 0.05)
	got.Precondition(0.7, true, sim.NewRNG(21, 22))

	_, want := smallSetup(t, 64, 0.05)
	n := int64(0.7 * float64(want.userLPNs))
	order := make([]int64, n)
	for i := range order {
		order[i] = int64(i)
	}
	rng := sim.NewRNG(21, 22)
	for i := n - 1; i > 0; i-- {
		j := rng.Int64N(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	for i := int64(0); i < n; i += int64(want.slotsPerUnit) {
		if !want.ensureOpen(&want.host, want.cfg.ReserveSBs) {
			t.Fatal("reference fill ran out of space")
		}
		want.allocUnit(&want.host, order[i:min(i+int64(want.slotsPerUnit), n)])
	}

	if !slices.Equal(got.mapping, want.mapping) || !slices.Equal(got.rmap, want.rmap) {
		t.Fatal("randomized precondition mapping differs from the allocUnit reference")
	}
	if !slices.Equal(got.sbValid, want.sbValid) || !slices.Equal(got.sbState, want.sbState) ||
		!slices.Equal(got.freeSBs, want.freeSBs) {
		t.Fatal("randomized precondition superblock state differs from the allocUnit reference")
	}
	if got.host != want.host {
		t.Fatalf("host frontier = %+v, want %+v", got.host, want.host)
	}
	if c := got.Counters().PreconditionSlots; c != uint64(n) {
		t.Fatalf("PreconditionSlots = %d, want %d", c, n)
	}
	checkIntegrity(t, got)
}

// TestWriteBufferQueueBoundedAndFIFO floods the write buffer with far more
// sequential LPNs than it holds, all submitted at once, so the buffer stays
// full until the very end. At every event the pending queue must fit in
// twice the buffer's page count and hold a run of consecutive LPNs that
// starts right after the last one drained; acks must come in submission
// order.
func TestWriteBufferQueueBoundedAndFIFO(t *testing.T) {
	eng, f := smallSetup(t, 64, 0.05)
	bufPages := int(f.cfg.WriteBufferBytes / f.cfg.LogicalPageSize)
	const reqPages = 8
	reqs := int(f.userLPNs) / reqPages
	var acks []int
	for i := 0; i < reqs; i++ {
		f.HostWrite(int64(i*reqPages), reqPages, func() { acks = append(acks, i) })
	}
	check := func() {
		t.Helper()
		if c := cap(f.pendingFIFO); c > 2*bufPages {
			t.Fatalf("pending queue capacity %d exceeds 2x the buffer's %d pages", c, bufPages)
		}
		if f.pendLen > bufPages {
			t.Fatalf("%d pending LPNs in a %d-page buffer", f.pendLen, bufPages)
		}
		if f.pendLen == 0 {
			return
		}
		head := f.pendingFIFO[f.pendHead]
		for k := 0; k < f.pendLen; k++ {
			if got := f.pendingFIFO[(f.pendHead+k)%len(f.pendingFIFO)]; got != head+int64(k) {
				t.Fatalf("pending[%d] = LPN %d, want %d: admission order lost", k, got, head+int64(k))
			}
		}
		// Everything before the head has left the queue (in flight or
		// programmed); nothing after its tail has been admitted.
		if head > 0 && f.bufState[head-1]&bufPending != 0 {
			t.Fatalf("LPN %d still pending behind head %d", head-1, head)
		}
		if tail := head + int64(f.pendLen); tail < f.userLPNs && (f.bufState[tail] != 0 || f.Mapped(tail)) {
			t.Fatalf("LPN %d admitted ahead of the queue tail", tail)
		}
	}
	check()
	steps, full := 0, 0
	for eng.Step() {
		check()
		steps++
		if f.bufUsed+f.cfg.LogicalPageSize > f.cfg.WriteBufferBytes {
			full++
		}
	}
	if full < steps/2 {
		t.Fatalf("buffer full on only %d of %d events; the stream did not keep it saturated", full, steps)
	}
	if len(acks) != reqs {
		t.Fatalf("%d of %d writes acked", len(acks), reqs)
	}
	for k, id := range acks {
		if id != k {
			t.Fatalf("ack %d went to request %d: acks out of submission order", k, id)
		}
	}
	if f.BufferBytes() != 0 || len(f.waiters) != 0 {
		t.Fatalf("buffer not drained: %d bytes, %d waiters", f.BufferBytes(), len(f.waiters))
	}
	checkIntegrity(t, f)
}
