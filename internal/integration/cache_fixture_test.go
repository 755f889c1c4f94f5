package integration

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"essdsim/internal/expgrid"
	"essdsim/internal/scenario"
	"essdsim/internal/workload"
)

// fixtureFile is a persisted sweep cache written by Cache.SaveFile from
// one small sweep of each cache-persisted kind family: open loop (burst),
// tenant mix (neighbor), and KV mix.
var fixtureFile = filepath.Join("testdata", "sweep_cache_fixture.json")

// fixtureRun is one fixture sweep: its golden file and a run that renders
// the suite's CSV through the given cache.
type fixtureRun struct {
	golden string
	run    func(*expgrid.Cache) (csv []byte, cached, cells int, err error)
}

var fixtureRuns = []fixtureRun{
	{"fixture_burst_golden.csv", func(c *expgrid.Cache) ([]byte, int, int, error) {
		rep, err := scenario.RunBurst(context.Background(), scenario.BurstSweep{
			Devices:        []expgrid.NamedFactory{cliFactory("gp2")},
			WriteRatiosPct: []int{50},
			Arrivals:       []workload.Arrival{workload.Bursty},
			RatesPerSec:    []float64{3000},
			Ops:            300,
			Cache:          c,
			Seed:           quickSeed,
			Label:          "fixture",
		})
		if err != nil {
			return nil, 0, 0, err
		}
		var buf bytes.Buffer
		err = scenario.WriteBurstCSV(&buf, rep)
		return buf.Bytes(), rep.CachedCells, len(rep.Cells), err
	}},
	{"fixture_neighbor_golden.csv", func(c *expgrid.Cache) ([]byte, int, int, error) {
		rep, err := scenario.RunNeighbor(context.Background(), scenario.NeighborSweep{
			AggressorCounts:      []int{0, 2},
			AggressorRatesPerSec: []float64{1600},
			VictimOps:            200,
			Cache:                c,
			Seed:                 quickSeed,
			Label:                "fixture",
		})
		if err != nil {
			return nil, 0, 0, err
		}
		var buf bytes.Buffer
		err = scenario.WriteNeighborCSV(&buf, rep)
		return buf.Bytes(), rep.CachedCells, len(rep.Cells), err
	}},
	{"fixture_kv_golden.csv", func(c *expgrid.Cache) ([]byte, int, int, error) {
		rep, err := scenario.RunKVMix(context.Background(), scenario.KVMixSweep{
			Engines:      []string{"lsm"},
			Skews:        []float64{0.99},
			ValueSizes:   []int64{1024},
			Tiers:        []string{"essd1"},
			Tenants:      2,
			OpsPerTenant: 200,
			Cache:        c,
			Seed:         quickSeed,
			Label:        "fixture",
		})
		if err != nil {
			return nil, 0, 0, err
		}
		var buf bytes.Buffer
		err = scenario.WriteKVCSV(&buf, rep)
		return buf.Bytes(), rep.CachedCells, len(rep.Cells), err
	}},
}

// TestCacheFixtureServesPersistedCells loads a committed cache file and
// reruns the sweeps that wrote it: every cell must be served from the
// file (zero simulated) and every CSV must match its golden byte for
// byte. It pins the cache's wire format, the sweep fingerprints, and the
// cell seeds together. With -update it first rewrites the fixture from
// cold runs, then the goldens from the cache-warm reruns.
func TestCacheFixtureServesPersistedCells(t *testing.T) {
	if *update {
		cache := expgrid.NewCache(0)
		for _, f := range fixtureRuns {
			if _, _, _, err := f.run(cache); err != nil {
				t.Fatal(err)
			}
		}
		if err := cache.SaveFile(fixtureFile); err != nil {
			t.Fatal(err)
		}
	}
	cache := expgrid.NewCache(0)
	if err := cache.LoadFile(fixtureFile); err != nil {
		t.Fatal(err)
	}
	if cache.Len() == 0 {
		t.Fatalf("%s is missing or empty (run with -update on a known-good tree)", fixtureFile)
	}
	for _, f := range fixtureRuns {
		out, cached, cells, err := f.run(cache)
		if err != nil {
			t.Fatal(err)
		}
		if cached != cells {
			t.Errorf("%s: %d of %d cells served from the fixture", f.golden, cached, cells)
		}
		checkGolden(t, f.golden, out)
	}
	if _, misses := cache.Stats(); misses != 0 {
		t.Errorf("%d cells simulated, want 0", misses)
	}
}

// TestCacheFixtureColdRunsWriteIt pins the cache's write side: the
// fixture sweeps run cold into a fresh cache must save exactly the
// committed fixture bytes.
func TestCacheFixtureColdRunsWriteIt(t *testing.T) {
	cache := expgrid.NewCache(0)
	for _, f := range fixtureRuns {
		if _, _, _, err := f.run(cache); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "cache.json")
	if err := cache.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fixtureFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cold runs saved %d bytes that differ from the %d-byte %s", len(got), len(want), fixtureFile)
	}
}

// TestCacheFixtureBadInfoFailsCell corrupts one neighbor capture in the
// fixture ("throttled" becomes a string): the cell that reads it must
// fail the suite with an error naming the cell, not re-simulate or fold
// a zero capture.
func TestCacheFixtureBadInfoFailsCell(t *testing.T) {
	raw, err := os.ReadFile(fixtureFile)
	if err != nil {
		t.Fatal(err)
	}
	const good, bad = `"info":{"throttled":false,"throttled_at"`, `"info":{"throttled":"yes","throttled_at"`
	if !bytes.Contains(raw, []byte(good)) {
		t.Fatalf("%s has no neighbor capture to corrupt", fixtureFile)
	}
	cache := expgrid.NewCache(0)
	if err := cache.Load(bytes.NewReader(bytes.Replace(raw, []byte(good), []byte(bad), 1))); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = fixtureRuns[1].run(cache)
	if err == nil || !strings.HasPrefix(err.Error(), "expgrid: cell ") ||
		!strings.Contains(err.Error(), "(shared)") || !strings.Contains(err.Error(), "throttled") {
		t.Fatalf("corrupt neighbor capture: err = %v, want a named cell error", err)
	}
	if _, misses := cache.Stats(); misses != 0 {
		t.Errorf("%d cells simulated, want 0", misses)
	}
}
