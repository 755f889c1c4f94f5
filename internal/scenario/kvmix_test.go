package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"essdsim/internal/expgrid"
)

func smallKVSweep() KVMixSweep {
	return KVMixSweep{
		Engines:      []string{"lsm", "pagestore"},
		Skews:        []float64{0, 0.9},
		ValueSizes:   []int64{1024},
		Tiers:        []string{"essd1"},
		Tenants:      2,
		OpsPerTenant: 200,
		RatePerSec:   8000,
		Seed:         7,
	}
}

// TestRunKVMixSmall checks the suite end to end on a tiny grid: every
// cell measures all tenants' ops, coordinates land in the right cells,
// and the shared-backend inspection decodes.
func TestRunKVMixSmall(t *testing.T) {
	rep, err := RunKVMix(context.Background(), smallKVSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 4 {
		t.Fatalf("cells = %d, want 4 (2 engines x 2 skews)", len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Tier != "essd1" {
			t.Errorf("cell tier %q", c.Tier)
		}
		if c.Engine != "lsm" && c.Engine != "pagestore" {
			t.Errorf("cell engine %q", c.Engine)
		}
		if want := uint64(2 * 200); c.Ops != want {
			t.Errorf("%s skew=%g: %d ops, want %d", c.Engine, c.Skew, c.Ops, want)
		}
		if c.Puts+c.Gets != c.Ops {
			t.Errorf("%s skew=%g: puts %d + gets %d != ops %d", c.Engine, c.Skew, c.Puts, c.Gets, c.Ops)
		}
		if c.OpsPerSec <= 0 || c.Elapsed <= 0 {
			t.Errorf("%s skew=%g: rate %.0f elapsed %v", c.Engine, c.Skew, c.OpsPerSec, c.Elapsed)
		}
		if c.Engine == "lsm" && c.WriteAmp < 1 {
			t.Errorf("lsm skew=%g: write amp %.2f < 1", c.Skew, c.WriteAmp)
		}
		if c.Throttled < 0 || c.Throttled > 2 {
			t.Errorf("%s skew=%g: %d throttled tenants of 2", c.Engine, c.Skew, c.Throttled)
		}
	}
}

// TestRunKVMixWorkerDeterminism checks the suite is byte-identical
// between a serial and a parallel run.
func TestRunKVMixWorkerDeterminism(t *testing.T) {
	s1 := smallKVSweep()
	s1.Workers = 1
	r1, err := RunKVMix(context.Background(), s1)
	if err != nil {
		t.Fatal(err)
	}
	s8 := smallKVSweep()
	s8.Workers = 8
	r8, err := RunKVMix(context.Background(), s8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("kv suite differs between 1 and 8 workers")
	}
}

// TestRunKVMixCacheWarm checks a warm re-run serves every cell from the
// cache and reproduces the cold measurements and CSV bytes.
func TestRunKVMixCacheWarm(t *testing.T) {
	cache := expgrid.NewCache(0)
	s := smallKVSweep()
	s.Cache = cache
	cold, err := RunKVMix(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CachedCells != 0 {
		t.Fatalf("cold run reported %d cached cells", cold.CachedCells)
	}
	warm, err := RunKVMix(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CachedCells != len(warm.Cells) {
		t.Fatalf("warm run cached %d of %d cells", warm.CachedCells, len(warm.Cells))
	}
	var coldCSV, warmCSV bytes.Buffer
	if err := WriteKVCSV(&coldCSV, cold); err != nil {
		t.Fatal(err)
	}
	if err := WriteKVCSV(&warmCSV, warm); err != nil {
		t.Fatal(err)
	}
	// The cached column is bookkeeping; measurements must match byte for
	// byte once it is normalized.
	c := strings.ReplaceAll(coldCSV.String(), ",false\n", ",-\n")
	w := strings.ReplaceAll(warmCSV.String(), ",true\n", ",-\n")
	if c != w {
		t.Fatalf("cache-warm CSV differs:\n%s\n%s", coldCSV.String(), warmCSV.String())
	}
}

// TestRunKVMixValidation checks bad axes are rejected before simulation.
func TestRunKVMixValidation(t *testing.T) {
	for name, mutate := range map[string]func(*KVMixSweep){
		"unknown engine": func(s *KVMixSweep) { s.Engines = []string{"rocksdb"} },
		"local-ssd tier": func(s *KVMixSweep) { s.Tiers = []string{"ssd"} },
		"unknown tier":   func(s *KVMixSweep) { s.Tiers = []string{"nvme9"} },
		"read frac":      func(s *KVMixSweep) { s.ReadFracPct = 150 },
		"bad skew":       func(s *KVMixSweep) { s.Skews = []float64{1.5} },
	} {
		s := smallKVSweep()
		mutate(&s)
		if _, err := RunKVMix(context.Background(), s); err == nil {
			t.Errorf("%s: sweep accepted", name)
		}
	}
}

// TestKVMixInfoRoundTrip checks the shared-backend inspection encodes
// under its persisted-cache names and decodes back through
// expgrid.DecodeInfo.
func TestKVMixInfoRoundTrip(t *testing.T) {
	want := KVMixInfo{SharedDebt: 123456, Throttled: 2}
	const wire = `{"shared_debt":123456,"throttled":2}`
	if raw, err := json.Marshal(want); err != nil || string(raw) != wire {
		t.Fatalf("encoded %s (%v), want %s", raw, err, wire)
	}
	cell := func(raw string) expgrid.CellResult {
		return expgrid.CellResult{Measurement: expgrid.Measurement{Info: json.RawMessage(raw)}}
	}
	got, err := expgrid.DecodeInfo[KVMixInfo](cell(wire))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
	if _, err := expgrid.DecodeInfo[KVMixInfo](cell("{")); err == nil {
		t.Fatal("malformed info accepted")
	}
}

// TestFormatKVMix smoke-checks the table renderer.
func TestFormatKVMix(t *testing.T) {
	rep, err := RunKVMix(context.Background(), smallKVSweep())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	FormatKVMix(&buf, rep)
	out := buf.String()
	for _, want := range []string{"KV tenant mix", "lsm", "pagestore", "essd1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "\n"); got != 2+len(rep.Cells) {
		t.Errorf("report has %d lines, want %d", got, 2+len(rep.Cells))
	}
}

// TestKVCellsTableSchema pins the kv_cells.csv header documented in
// docs/formats.md.
func TestKVCellsTableSchema(t *testing.T) {
	rep, err := RunKVMix(context.Background(), smallKVSweep())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteKVCSV(&buf, rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+len(rep.Cells) {
		t.Fatalf("CSV has %d lines, want header + %d cells", len(lines), len(rep.Cells))
	}
	wantHeader := "tier,engine,skew,value_size,tenants,ops_per_tenant,rate_per_s,read_frac_pct," +
		"ops,puts,gets,elapsed_s,ops_per_sec," +
		"lat_mean_ms,lat_p50_ms,lat_p99_ms,lat_p999_ms,lat_max_ms,max_outstanding," +
		"read_amp,write_amp,cache_hit_pct,stalls,flushes,compactions," +
		"shared_debt_bytes,throttled_tenants,cached"
	if lines[0] != wantHeader {
		t.Fatalf("header\n %s\nwant\n %s", lines[0], wantHeader)
	}
}
