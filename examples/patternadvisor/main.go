// patternadvisor sweeps a write workload's I/O size and queue depth on an
// ESSD and reports where random writes beat sequential writes
// (Observation #3), advising whether log-structuring is still worth it
// (Implication #3).
//
// The whole size × depth × {random, sequential} grid is declared as one
// essdsim.Sweep and measured in parallel on -workers cells.
package main

import (
	"context"
	"flag"
	"fmt"

	"essdsim"
)

func main() {
	device := flag.String("device", "essd2", "device profile to advise on")
	workers := flag.Int("workers", 0, "parallel sweep cells (0 = GOMAXPROCS)")
	flag.Parse()

	sizes := []int64{4 << 10, 16 << 10, 64 << 10, 256 << 10}
	qds := []int{1, 8, 32}
	sw := essdsim.Sweep{
		Devices: essdsim.ProfileDevices(*device),
		Kind: essdsim.SweepClosed{
			Patterns:     []essdsim.Pattern{essdsim.RandWrite, essdsim.SeqWrite},
			BlockSizes:   sizes,
			QueueDepths:  qds,
			CellDuration: 300 * essdsim.Millisecond,
			Warmup:       50 * essdsim.Millisecond,
			Precondition: essdsim.PrecondWrites,
		},
		Seed:  3,
		Label: "patternadvisor",
	}
	results, err := essdsim.RunSweep(context.Background(), sw, *workers)
	if err != nil {
		panic(err)
	}
	// Pattern is the outermost axis after the (single) device: the first
	// half of the results is the random sweep, the second the sequential
	// sweep, both in (size, qd) row-major order.
	half := len(results) / 2

	fmt.Printf("Random-vs-sequential write advisor for %q\n", *device)
	fmt.Println("(gain > 1: random writes are FASTER than sequential — Observation #3)")
	fmt.Println()
	fmt.Printf("%-8s", "bs\\QD")
	for _, qd := range qds {
		fmt.Printf("%10d", qd)
	}
	fmt.Println()
	best, bestBS, bestQD := 0.0, int64(0), 0
	for i, rnd := range results[:half] {
		seq := results[i+half]
		if i%len(qds) == 0 {
			fmt.Printf("%-8s", fmt.Sprintf("%dK", rnd.BlockSize>>10))
		}
		gain := rnd.Res.Throughput() / seq.Res.Throughput()
		if gain > best {
			best, bestBS, bestQD = gain, rnd.BlockSize, rnd.QueueDepth
		}
		fmt.Printf("%9.2fx", gain)
		if i%len(qds) == len(qds)-1 {
			fmt.Println()
		}
	}
	fmt.Println()
	switch {
	case best >= 1.5:
		fmt.Printf("Max gain %.2fx at %dK/QD%d: converting random writes to sequential\n",
			best, bestBS>>10, bestQD)
		fmt.Println("(log-structuring, copy-on-write) actively HURTS on this volume.")
		fmt.Println("Consider spreading writes across the LBA space instead (Implication #3).")
	case best >= 1.1:
		fmt.Printf("Max gain %.2fx at %dK/QD%d: sequentializing buys nothing here;\n",
			best, bestBS>>10, bestQD)
		fmt.Println("keep update-in-place layouts as they are (Implication #3).")
	default:
		fmt.Printf("Max gain %.2fx: this device is pattern-neutral for writes.\n", best)
	}
}
