package scenario

// Observability wiring for the neighbor suite: the cliff-attribution
// bridge from measured cells to obs.Explain.

import (
	"fmt"

	"essdsim/internal/expgrid"
	"essdsim/internal/obs"
	"essdsim/internal/sim"
)

// neighborCellLabel names a cell's capture after its grid coordinates, so
// trace and probe rows are self-identifying across a sweep.
func neighborCellLabel(c expgrid.Cell) string {
	return fmt.Sprintf("a%d-r%g-w%d", c.Aggressors, c.RatePerSec, c.WriteRatioPct)
}

// neighborExplain builds one cell's attribution input from its capture,
// measured result, and folded cell: the victim's windowed tail timeline,
// the throttle onset InspectNeighbors recorded, the pooled-debt threshold
// the limiter engages at, and the probe series naming conventions of
// essd/cluster probes.
func neighborExplain(cap *obs.Capture, r expgrid.CellResult, cell NeighborCell, debtThreshold float64) *obs.Explanation {
	in := obs.ExplainInput{
		Cell:              cap.Label,
		Victim:            "victim",
		ThrottleOnset:     sim.Time(cell.ThrottleOnset),
		CreditExhaustedAt: -1,
		DebtThreshold:     debtThreshold,
		Probes:            cap.Prober,
		PooledDebtSeries:  "cluster/debt_bytes",
		VictimBytesSeries: "victim/net-up-bytes",
	}
	for i := 0; i < r.Aggressors; i++ {
		in.AggrBytesSeries = append(in.AggrBytesSeries,
			fmt.Sprintf("aggr%d/net-up-bytes", i))
	}
	if ls := r.Mix[0].Open.LatSeries; ls != nil {
		iv := ls.Interval()
		for i := 0; i < ls.Len(); i++ {
			if ls.Count(i) == 0 {
				continue
			}
			in.Tail = append(in.Tail, obs.TailPoint{
				T:   sim.Time(int64(i) * int64(iv)),
				Lat: ls.Mean(i),
			})
		}
	}
	return obs.Explain(in)
}
