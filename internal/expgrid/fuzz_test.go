package expgrid

import (
	"math"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// FuzzSweepValidate builds a one-device sweep of every kind from fuzzed
// axis values and checks that Validate never panics, and that every sweep
// it accepts has each axis value inside its documented range (and
// enumerates exactly one cell). The committed corpus covers NaN and
// infinite rates and skews.
func FuzzSweepValidate(f *testing.F) {
	f.Add(int64(4096), 1, 50, 1000.0, 2, 0.5, int64(1024), "lsm", uint8(1))
	f.Fuzz(func(t *testing.T, bs int64, qd, wr int, rate float64, aggr int, skew float64, vs int64, engine string, records uint8) {
		devices := []NamedFactory{{Name: "d", New: func(uint64) blockdev.Device { return nil }}}
		mixed := []workload.Pattern{workload.Mixed}
		ratioOK := wr >= -1 && wr <= 100
		rateOK := rate > 0 && !math.IsInf(rate, 1)
		for _, tc := range []struct {
			kind CellKind
			ok   bool // every axis value is in its documented range
		}{
			{Closed{Patterns: mixed, BlockSizes: []int64{bs}, QueueDepths: []int{qd}, WriteRatiosPct: []int{wr}},
				bs > 0 && qd > 0 && ratioOK},
			{Open{Patterns: mixed, BlockSizes: []int64{bs}, Arrivals: []workload.Arrival{workload.Bursty},
				RatesPerSec: []float64{rate}, WriteRatiosPct: []int{wr}},
				bs > 0 && rateOK && ratioOK},
			{Replay{Trace: testTrace(int(records%4), sim.Microsecond)}, records%4 > 0},
			{Tenants{AggressorCounts: []int{aggr}, RatesPerSec: []float64{rate}, WriteRatiosPct: []int{wr}, Build: tenantHook},
				aggr >= 0 && rateOK && ratioOK},
			{KV{Engines: []string{engine}, Skews: []float64{skew}, ValueSizes: []int64{vs}, Build: kvHook},
				engine != "" && skew >= 0 && skew < 1 && vs > 0},
		} {
			sw := Sweep{Devices: devices, Kind: tc.kind}
			err := sw.Validate()
			if err == nil && !tc.ok {
				t.Fatalf("%T accepted an out-of-range axis value: %+v", tc.kind, tc.kind)
			}
			if err == nil && len(sw.Cells()) != 1 {
				t.Fatalf("%T: accepted one-point sweep enumerates %d cells", tc.kind, len(sw.Cells()))
			}
		}
	})
}
