package scenario

import (
	"fmt"
	"testing"

	"essdsim/internal/expgrid"
	"essdsim/internal/qos"
	"essdsim/internal/workload"
)

// sweepPin renders what TestSweepPinned compares: the sweep's cache
// fingerprint, its cell count, and its first and last cell seeds.
func sweepPin(sw expgrid.Sweep) string {
	cells := sw.Cells()
	return fmt.Sprintf("fp=%016x cells=%d first=%016x last=%016x",
		sw.Fingerprint(), len(cells), cells[0].Seed, cells[len(cells)-1].Seed)
}

// TestSweepPinned pins the cache fingerprints and cell seeds of the
// scenario suites' sweeps at their ucexperiments -quick settings (seed 7).
// A change to any value re-seeds the suite's cells or orphans its
// persisted cache entries.
func TestSweepPinned(t *testing.T) {
	burst := BurstSweep{
		Devices:        []expgrid.NamedFactory{{Name: "gp2"}, {Name: "gp2s"}},
		WriteRatiosPct: []int{0, 50, 100},
		RatesPerSec:    []float64{3000},
		Ops:            3000,
		Seed:           7,
	}
	neighbor := NeighborSweep{
		AggressorArrival:     workload.Bursty,
		AggressorCounts:      []int{0, 2, 4},
		AggressorRatesPerSec: []float64{1600},
		VictimOps:            1200,
		Seed:                 7,
	}
	wfq := neighbor
	wfq.Isolation = qos.Isolation{Policy: qos.IsolationWFQ}
	kvmix := KVMixSweep{
		Engines:      []string{"lsm", "pagestore"},
		Skews:        []float64{0, 0.99},
		ValueSizes:   []int64{1024},
		Tiers:        []string{"essd1"},
		Tenants:      2,
		RatePerSec:   4000,
		ReadFracPct:  50,
		OpsPerTenant: 600,
		Seed:         7,
	}
	for _, tc := range []struct {
		name string
		sw   expgrid.Sweep
		want string
	}{
		{"burst-quick", burst.withDefaults().sweep(),
			"fp=988a9da05d6872e2 cells=12 first=d79865c7eb0b24ae last=7f33af2d09659514"},
		{"neighbor-quick-fifo", neighbor.withDefaults().sweep(),
			"fp=c5380459b3d3802d cells=3 first=e3a12e460ce65710 last=04b1dd6333fe06f2"},
		{"neighbor-quick-wfq", wfq.withDefaults().sweep(),
			"fp=816643a360493145 cells=3 first=e3a12e460ce65710 last=04b1dd6333fe06f2"},
		{"kv-quick", kvmix.withDefaults().sweep(),
			"fp=511497f1d00a2d14 cells=4 first=4eef24133294aa88 last=2f79b74e75f315fa"},
	} {
		if got := sweepPin(tc.sw); got != tc.want {
			t.Errorf("%s: %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
