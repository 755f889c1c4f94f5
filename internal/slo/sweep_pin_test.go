package slo

import (
	"fmt"
	"testing"

	"essdsim/internal/expgrid"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// TestSweepPinned pins the cache fingerprint and cell seed of one SLO
// probe at the ucexperiments -exp slo -quick settings (gp2, seed 7). A
// change to either re-seeds the probe or orphans persisted probe results.
func TestSweepPinned(t *testing.T) {
	s := Search{
		Device:    expgrid.NamedFactory{Name: "gp2"},
		Pattern:   workload.RandWrite,
		Target:    Target{P99: 20 * sim.Millisecond},
		MaxRate:   3000,
		Tolerance: 100,
		Horizon:   3 * sim.Second,
		Seed:      7,
	}.withDefaults()
	sw := s.probeSweep(1550)
	cells := sw.Cells()
	got := fmt.Sprintf("fp=%016x cells=%d first=%016x last=%016x",
		sw.Fingerprint(), len(cells), cells[0].Seed, cells[len(cells)-1].Seed)
	if want := "fp=10aa68e4ed8651f4 cells=1 first=c4a15757c3a416c7 last=c4a15757c3a416c7"; got != want {
		t.Errorf("probe at 1550/s: %s, pinned %s", got, want)
	}
}
