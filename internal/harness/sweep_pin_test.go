package harness

import (
	"fmt"
	"testing"

	"essdsim/internal/expgrid"
	"essdsim/internal/sim"
)

// sweepPin renders what TestSweepPinned compares: the sweep's cache
// fingerprint, its cell count, and its first and last cell seeds.
func sweepPin(sw expgrid.Sweep) string {
	cells := sw.Cells()
	return fmt.Sprintf("fp=%016x cells=%d first=%016x last=%016x",
		sw.Fingerprint(), len(cells), cells[0].Seed, cells[len(cells)-1].Seed)
}

// TestSweepPinned pins the cache fingerprints and cell seeds of the
// harness's closed-loop sweeps at their ucexperiments -quick settings.
// A change to any value re-seeds every cell of the figure or orphans its
// persisted cache entries.
func TestSweepPinned(t *testing.T) {
	opts := Options{Seed: 7, CellDuration: 150 * sim.Millisecond, Warmup: 30 * sim.Millisecond}.withDefaults()
	sustained := sustainedSweep(opts, 1.5)
	sustained.Devices = []expgrid.NamedFactory{{Name: "essd1"}, {Name: "essd2"}, {Name: "ssd"}}
	for _, tc := range []struct {
		name string
		sw   expgrid.Sweep
		want string
	}{
		{"fig2-quick", latencyGridSweep(nil, Fig2Patterns, []int64{4 << 10, 64 << 10, 256 << 10}, []int{1, 4, 16}, opts),
			"fp=0ad7202c088166d3 cells=36 first=3d6cf108a9836330 last=fc6ecb171bffa2e4"},
		{"fig3-quick", sustained,
			"fp=74562966ccd5237f cells=3 first=365916976cad9c56 last=ba0ec10cf40d8217"},
	} {
		if got := sweepPin(tc.sw); got != tc.want {
			t.Errorf("%s: %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
