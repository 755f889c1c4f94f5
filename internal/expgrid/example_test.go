package expgrid_test

import (
	"context"
	"fmt"

	"essdsim/internal/blockdev"
	"essdsim/internal/expgrid"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// ExampleRunner_Run declares a 2×2 open-loop grid on a burstable tier and
// runs it on the worker pool, then re-runs it against the attached cache.
// Results stream back in enumeration order regardless of which worker
// finishes first, and the warm pass simulates nothing.
func ExampleRunner_Run() {
	cache := expgrid.NewCache(0)
	sweep := expgrid.Sweep{
		Devices: expgrid.Devices("gp2", func(seed uint64) blockdev.Device {
			dev, err := profiles.ByName("gp2", sim.NewEngine(), sim.NewRNG(seed, seed^0x5c))
			if err != nil {
				panic(err)
			}
			return dev
		}),
		Kind: expgrid.Open{
			Patterns:    []workload.Pattern{workload.RandWrite},
			BlockSizes:  []int64{256 << 10},
			Arrivals:    []workload.Arrival{workload.Uniform, workload.Bursty},
			RatesPerSec: []float64{1500, 3000},
			Ops:         500,
		},
		Cache: cache,
		Seed:  42,
	}
	for _, pass := range []string{"cold", "warm"} {
		results, err := expgrid.Runner{Workers: 4}.Run(context.Background(), sweep)
		if err != nil {
			panic(err)
		}
		for _, r := range results {
			fmt.Printf("%s: %s %s@%.0f/s ops=%d cached=%v\n",
				pass, r.DeviceName, r.Arrival, r.RatePerSec, r.Open.Ops, r.Cached)
		}
	}
	// Output:
	// cold: gp2 uniform@1500/s ops=500 cached=false
	// cold: gp2 uniform@3000/s ops=500 cached=false
	// cold: gp2 bursty@1500/s ops=500 cached=false
	// cold: gp2 bursty@3000/s ops=500 cached=false
	// warm: gp2 uniform@1500/s ops=500 cached=true
	// warm: gp2 uniform@3000/s ops=500 cached=true
	// warm: gp2 bursty@1500/s ops=500 cached=true
	// warm: gp2 bursty@3000/s ops=500 cached=true
}
