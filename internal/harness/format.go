package harness

import (
	"fmt"
	"io"

	"essdsim/internal/blockdev"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// Metric selects which Figure 2 statistic to print.
type Metric int

// Figure 2 metrics.
const (
	MetricAvg Metric = iota
	MetricP999
)

// String returns the metric's figure caption name.
func (m Metric) String() string {
	if m == MetricP999 {
		return "P99.9 Latency"
	}
	return "Average Latency"
}

func sizeLabel(bs int64) string {
	switch {
	case bs >= 1<<20:
		return fmt.Sprintf("%dM", bs>>20)
	default:
		return fmt.Sprintf("%dK", bs>>10)
	}
}

// FormatTableI writes the paper's Table I from the given device envelopes.
func FormatTableI(w io.Writer, rows []blockdev.Config) {
	fmt.Fprintf(w, "TABLE I: THE CONFIGURATIONS OF TWO ESSDS AND SSD\n")
	fmt.Fprintf(w, "%-10s %-15s %-8s %-18s %-10s %-9s\n",
		"", "Provider", "Model", "Max. BW (GB/s)", "Max. IOPS", "Cap. (TB)")
	names := []string{"ESSD-1", "ESSD-2", "SSD"}
	for i, r := range rows {
		name := ""
		if i < len(names) {
			name = names[i]
		}
		bw := fmt.Sprintf("~%.1f", blockdev.GBps(r.MaxReadBW))
		if r.MaxReadBW != r.MaxWriteBW {
			bw = fmt.Sprintf("R %.1f / W %.1f", blockdev.GBps(r.MaxReadBW), blockdev.GBps(r.MaxWriteBW))
		}
		iops := fmt.Sprintf("%.1fK", r.MaxIOPS/1000)
		fmt.Fprintf(w, "%-10s %-15s %-8s %-18s %-10s %-9.0f\n",
			name, r.Provider, r.Model, bw, iops, float64(r.Capacity)/1e12)
	}
}

// FormatFig2 writes one Figure 2 panel: the ESSD/SSD latency-gap grid with
// the ESSD's absolute latency beneath each gap, exactly like the paper's
// pixels ("31.9x (333u)").
func FormatFig2(w io.Writer, essd, ssd *LatencyGrid, m Metric) {
	fmt.Fprintf(w, "Figure 2 — %s of %s (gap vs %s; cell = gap (ESSD latency))\n",
		m, essd.Device, ssd.Device)
	for _, p := range Fig2Patterns {
		fmt.Fprintf(w, "\n  %s\n  %8s", p, "")
		for _, bs := range Fig2Sizes {
			fmt.Fprintf(w, " %16s", "I/O "+sizeLabel(bs))
		}
		fmt.Fprintln(w)
		for _, qd := range Fig2QDs {
			fmt.Fprintf(w, "  QD %-5d", qd)
			for _, bs := range Fig2Sizes {
				ec := essd.Cell(p, bs, qd)
				sc := ssd.Cell(p, bs, qd)
				if ec == nil || sc == nil {
					fmt.Fprintf(w, " %16s", "-")
					continue
				}
				var e, s sim.Duration
				if m == MetricP999 {
					e, s = ec.P999, sc.P999
				} else {
					e, s = ec.Avg, sc.Avg
				}
				gap := 0.0
				if s > 0 {
					gap = float64(e) / float64(s)
				}
				fmt.Fprintf(w, " %7.1fx (%5s)", gap, compactDur(e))
			}
			fmt.Fprintln(w)
		}
	}
}

// compactDur renders a duration like the paper's pixel annotations
// ("333u", "1.4m").
func compactDur(d sim.Duration) string {
	switch {
	case d < sim.Millisecond:
		return fmt.Sprintf("%du", int64(d)/int64(sim.Microsecond))
	case d < 10*sim.Millisecond:
		return fmt.Sprintf("%.1fm", float64(d)/float64(sim.Millisecond))
	default:
		return fmt.Sprintf("%dm", int64(d)/int64(sim.Millisecond))
	}
}

// FormatFig3 writes the Figure 3 sustained-write summary and a coarse
// throughput timeline for each device; capMultiple is the volume the
// results wrote, in device capacities (RunSustainedWrites' argument).
func FormatFig3(w io.Writer, capMultiple float64, results []*SustainedResult) {
	fmt.Fprintf(w, "Figure 3 — Runtime throughput, random write of %gx capacity\n", capMultiple)
	for _, r := range results {
		knee := "none"
		if r.KneeCapFrac >= 0 {
			knee = fmt.Sprintf("%.2fx capacity", r.KneeCapFrac)
		}
		extra := ""
		if r.Throttled {
			extra = " [flow limiter engaged]"
		}
		if r.WriteAmp > 1.001 {
			extra += fmt.Sprintf(" [final WA %.1f]", r.WriteAmp)
		}
		fmt.Fprintf(w, "\n  %s (cap %.0f GiB scaled): peak %.2f GB/s, knee at %s, tail %.0f MB/s%s\n",
			r.Device, float64(r.Capacity)/(1<<30), r.PeakRate/1e9, knee, r.TailRate/1e6, extra)
		fmt.Fprintf(w, "  timeline (GB/s per %v):", r.Interval)
		step := len(r.Rates)/24 + 1
		for i := 0; i < len(r.Rates); i += step {
			fmt.Fprintf(w, " %.1f", r.Rates[i]/1e9)
		}
		fmt.Fprintln(w)
	}
}

// FormatFig4 writes the Figure 4 random-write throughput and
// random/sequential gain table.
func FormatFig4(w io.Writer, results []*RandSeqResult) {
	fmt.Fprintln(w, "Figure 4 — Random-write throughput and rand/seq gain")
	for _, r := range results {
		maxGain, at := r.MaxGain()
		fmt.Fprintf(w, "\n  %s (max gain %.2fx at %s QD%d)\n",
			r.Device, maxGain, sizeLabel(at.BlockSize), at.QueueDepth)
		fmt.Fprintf(w, "  %8s", "")
		qds := fig4QDsOf(r)
		for _, qd := range qds {
			fmt.Fprintf(w, " %14s", fmt.Sprintf("QD %d", qd))
		}
		fmt.Fprintln(w)
		for _, bs := range fig4SizesOf(r) {
			fmt.Fprintf(w, "  %-8s", sizeLabel(bs))
			for _, qd := range qds {
				c := r.Cell(bs, qd)
				if c == nil {
					fmt.Fprintf(w, " %14s", "-")
					continue
				}
				fmt.Fprintf(w, " %5.2fGB(%4.2fx)", c.RandBW/1e9, c.Gain())
			}
			fmt.Fprintln(w)
		}
	}
}

func fig4SizesOf(r *RandSeqResult) []int64 {
	var sizes []int64
	seen := map[int64]bool{}
	for _, c := range r.Cells {
		if !seen[c.BlockSize] {
			seen[c.BlockSize] = true
			sizes = append(sizes, c.BlockSize)
		}
	}
	return sizes
}

func fig4QDsOf(r *RandSeqResult) []int {
	var qds []int
	seen := map[int]bool{}
	for _, c := range r.Cells {
		if !seen[c.QueueDepth] {
			seen[c.QueueDepth] = true
			qds = append(qds, c.QueueDepth)
		}
	}
	return qds
}

// FormatFig5 writes the Figure 5 mixed read/write throughput table.
func FormatFig5(w io.Writer, results []*MixedResult) {
	fmt.Fprintln(w, "Figure 5 — Throughput under mixed read/write workloads")
	for _, r := range results {
		min, max := r.MinMax()
		fmt.Fprintf(w, "\n  %s (total %.2f-%.2f GB/s, spread %.1f%%)\n",
			r.Device, min/1e9, max/1e9, r.Spread()*100)
		fmt.Fprintf(w, "  %-12s %-14s %-14s\n", "write ratio", "total GB/s", "write GB/s")
		for _, p := range r.Points {
			fmt.Fprintf(w, "  %-12d %-14.2f %-14.2f\n",
				p.WriteRatioPct, p.TotalBW/1e9, p.WriteBW/1e9)
		}
	}
}

// FormatWorkloadResult prints a fio-like summary of a single run.
func FormatWorkloadResult(w io.Writer, r *workload.Result) {
	s := r.Lat.Summarize()
	fmt.Fprintf(w, "%s: %s bs=%s qd=%d\n", r.Device, r.Spec.Pattern,
		sizeLabel(r.Spec.BlockSize), r.Spec.QueueDepth)
	fmt.Fprintf(w, "  ops=%d bytes=%d elapsed=%v\n", r.Ops, r.Bytes, r.Elapsed)
	fmt.Fprintf(w, "  throughput=%.2f MB/s iops=%.0f\n", r.Throughput()/1e6, r.IOPS())
	fmt.Fprintf(w, "  lat avg=%v p50=%v p99=%v p99.9=%v max=%v\n",
		s.Mean, s.P50, s.P99, s.P999, s.Max)
	if r.ReadLat.Count() > 0 && r.WriteLat.Count() > 0 {
		rs, ws := r.ReadLat.Summarize(), r.WriteLat.Summarize()
		fmt.Fprintf(w, "  read  avg=%v p99.9=%v (n=%d)\n", rs.Mean, rs.P999, rs.Count)
		fmt.Fprintf(w, "  write avg=%v p99.9=%v (n=%d)\n", ws.Mean, ws.P999, ws.Count)
	}
}
