package main

import (
	"fmt"
	"strings"
	"testing"

	"essdsim"
)

// msrTrace is the two-record MSR-Cambridge trace the CI smoke replays.
const msrTrace = "128166372003061629,src1,0,Write,8192,16384,1331\n" +
	"128166372003061639,src1,0,Read,1048576000,4096,551\n"

// TestSweepPinned pins the cache fingerprints and cell seeds of
// essdbench's open-loop sweep (the CI smoke's gp2,gp2s grid) and its
// fitted MSR trace-replay sweep, at the default seed and
// preconditioning. A change to any value re-seeds the sweep's cells or
// orphans a user's -cache file.
func TestSweepPinned(t *testing.T) {
	recs, err := essdsim.ReadTraceFormat(strings.NewReader(msrTrace), "msr")
	if err != nil {
		t.Fatal(err)
	}
	open, openErr := openSweep("gp2,gp2s", "randwrite", "256k", "uniform,bursty", []float64{1500, 3000}, 800, 50, essdsim.PrecondAuto, 1)
	msr, msrErr := traceSweep(recs, "msr", "essd1,essd2", essdsim.PrecondAuto, 1)
	for _, tc := range []struct {
		name string
		sw   essdsim.Sweep
		err  error
		want string
	}{
		{"open", open, openErr,
			"fp=6cd171610a800f08 cells=8 first=57f33f957fb0c275 last=0844c1b28220f6de"},
		{"trace-msr", msr, msrErr,
			"fp=c33563280a2f4f44 cells=2 first=742f2e440ff29a82 last=62000e3e5f657250"},
	} {
		if tc.err != nil {
			t.Fatalf("%s: %v", tc.name, tc.err)
		}
		cells := tc.sw.Cells()
		got := fmt.Sprintf("fp=%016x cells=%d first=%016x last=%016x",
			tc.sw.Fingerprint(), len(cells), cells[0].Seed, cells[len(cells)-1].Seed)
		if got != tc.want {
			t.Errorf("%s: %s, pinned %s", tc.name, got, tc.want)
		}
	}
}
