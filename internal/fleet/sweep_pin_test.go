package fleet

import (
	"fmt"
	"testing"

	"essdsim/internal/sim"
)

// TestSweepPinned pins the cache fingerprint and cell seeds of the fleet
// study's tenant-mix sweep on the integration golden spec (six synthetic
// tenants, two backends, seed 7). A change to any value re-seeds every
// fleet cell or orphans its persisted cache entries.
func TestSweepPinned(t *testing.T) {
	s := Spec{
		Demands:  SyntheticDemands(6, 2),
		Backends: 2,
		SLOP999:  5 * sim.Millisecond,
		Seed:     7,
		Label:    "fleet-golden",
	}.withDefaults()
	// Plan the cells as Run does: every policy places the catalog.
	assignments := make([][]int, len(s.Policies))
	for i, p := range s.Policies {
		assignments[i] = p.Place(s.constraints(), s.Demands)
	}
	defs, _ := s.cells(assignments)
	mix := make([]MixCell, len(defs))
	for i, def := range defs {
		for _, di := range def.members {
			mix[i].Members = append(mix[i].Members, s.Demands[di])
		}
		mix[i].Name, mix[i].Solo = def.name, def.solo
	}
	sw := s.MixSweep(mix)
	cells := sw.Cells()
	got := fmt.Sprintf("fp=%016x cells=%d first=%016x last=%016x",
		sw.Fingerprint(), len(cells), cells[0].Seed, cells[len(cells)-1].Seed)
	if want := "fp=c5380459b3d3802d cells=10 first=5a271b146ea2a56f last=d0db9aa5cefbb3a4"; got != want {
		t.Errorf("fleet sweep: %s, pinned %s", got, want)
	}
}
