package expgrid

import (
	"bytes"
	"context"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"essdsim/internal/blockdev"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

func cacheTestKind() Open {
	return Open{
		Patterns:    []workload.Pattern{workload.RandWrite},
		BlockSizes:  []int64{256 << 10},
		Arrivals:    []workload.Arrival{workload.Uniform, workload.Bursty},
		RatesPerSec: []float64{1500, 3000},
		Ops:         600,
	}
}

func cacheTestSweep(cache *Cache) Sweep {
	return Sweep{
		Devices: Devices("gp2", func(seed uint64) blockdev.Device { return mustDevice("gp2", seed) }),
		Kind:    cacheTestKind(),
		Cache:   cache,
		Seed:    11,
		Label:   "cache-test",
	}
}

func mustDevice(name string, seed uint64) blockdev.Device {
	dev, err := profiles.ByName(name, sim.NewEngine(), sim.NewRNG(seed, seed^0x5c))
	if err != nil {
		panic(err)
	}
	return dev
}

// TestCacheWarmSweepIdentical runs the same sweep cold and warm and
// asserts the warm pass executes zero cells yet returns deeply equal
// measurements.
func TestCacheWarmSweepIdentical(t *testing.T) {
	cache := NewCache(0)
	cold, err := Runner{Workers: 4}.Run(context.Background(), cacheTestSweep(cache))
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits != 0 || misses != uint64(len(cold)) {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/%d", hits, misses, len(cold))
	}
	warm, err := Runner{Workers: 4}.Run(context.Background(), cacheTestSweep(cache))
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Stats(); hits != uint64(len(cold)) {
		t.Fatalf("warm run hit %d entries, want %d", hits, len(cold))
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Fatalf("warm cell %d not served from cache", i)
		}
		warm[i].Cached = false
		if !reflect.DeepEqual(cold[i], warm[i]) {
			t.Fatalf("cell %d differs between cold and warm run", i)
		}
	}
}

// TestCachePersistenceRoundTrip saves a populated cache to a tempdir file,
// loads it into a fresh cache (a simulated process restart), and asserts
// the warm sweep reproduces the cold measurements without simulating.
func TestCachePersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.json")
	cache := NewCache(0)
	cold, err := Runner{}.Run(context.Background(), cacheTestSweep(cache))
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	reloaded := NewCache(0)
	if err := reloaded.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	warm, err := Runner{}.Run(context.Background(), cacheTestSweep(reloaded))
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := reloaded.Stats(); hits != uint64(len(cold)) || misses != 0 {
		t.Fatalf("restart-warm run: hits=%d misses=%d, want %d/0", hits, misses, len(cold))
	}
	for i := range warm {
		if warm[i].Err != nil {
			t.Fatalf("warm cell %d errored: %v", i, warm[i].Err)
		}
		warm[i].Cached = false
		if !reflect.DeepEqual(cold[i], warm[i]) {
			t.Fatalf("cell %d differs after persistence round trip", i)
		}
	}
}

// TestCacheMissOnChangedSettings asserts that result-shaping settings
// outside the cell coordinates still change the cache key.
func TestCacheMissOnChangedSettings(t *testing.T) {
	cache := NewCache(0)
	sw := cacheTestSweep(cache)
	if _, err := (Runner{}).Run(context.Background(), sw); err != nil {
		t.Fatal(err)
	}
	more := sw
	k := cacheTestKind()
	k.Ops = 700 // same coordinates, different measurement length
	more.Kind = k
	if _, err := (Runner{}).Run(context.Background(), more); err != nil {
		t.Fatal(err)
	}
	if hits, _ := cache.Stats(); hits != 0 {
		t.Fatalf("sweep with different Ops hit the cache %d times", hits)
	}
}

// TestCacheEviction bounds the cache by capacity, evicting LRU entries.
func TestCacheEviction(t *testing.T) {
	cache := NewCache(2)
	sw := cacheTestSweep(cache) // 4 cells
	if _, err := (Runner{Workers: 1}).Run(context.Background(), sw); err != nil {
		t.Fatal(err)
	}
	if n := cache.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, capacity 2", n)
	}
}

// TestCacheInspectMismatch: a cell cached without an Inspect capture must
// not satisfy a sweep that needs one.
func TestCacheInspectMismatch(t *testing.T) {
	cache := NewCache(0)
	sw := cacheTestSweep(cache)
	if _, err := (Runner{}).Run(context.Background(), sw); err != nil {
		t.Fatal(err)
	}
	withInspect := sw
	k := cacheTestKind()
	k.Inspect = func(dev blockdev.Device, c Cell) any {
		return map[string]int{"x": 1}
	}
	withInspect.Kind = k
	res, err := Runner{}.Run(context.Background(), withInspect)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Cached {
			t.Fatalf("cell %d served from cache despite missing Inspect capture", i)
		}
		if r.Info == nil {
			t.Fatalf("cell %d missing Info", i)
		}
	}
}

// TestCacheVersionRejected rejects unknown persisted formats.
func TestCacheVersionRejected(t *testing.T) {
	c := NewCache(0)
	if err := c.Load(bytes.NewReader([]byte(`{"version":99,"entries":[]}`))); err == nil {
		t.Fatal("want error for unknown cache file version")
	}
}

// TestInspectCaptureMustEncode: an Inspect capture that cannot encode as
// JSON fails its cell with a named error, never a panic, and nothing of
// the failed cell is cached.
func TestInspectCaptureMustEncode(t *testing.T) {
	for name, capture := range map[string]any{"chan": make(chan int), "NaN": math.NaN()} {
		cache := NewCache(0)
		sw := cacheTestSweep(cache)
		k := cacheTestKind()
		k.Inspect = func(blockdev.Device, Cell) any { return capture }
		sw.Kind = k
		_, err := Runner{Workers: 1}.Run(context.Background(), sw)
		if err == nil || !strings.HasPrefix(err.Error(), "expgrid: cell 0 (gp2 ") ||
			!strings.Contains(err.Error(), "inspect capture") {
			t.Errorf("%s capture: err = %v, want a named cell 0 error", name, err)
		}
		if n := cache.Len(); n != 0 {
			t.Errorf("%s capture: %d failed cells cached", name, n)
		}
	}
	if _, err := DecodeInfo[int](CellResult{Cell: Cell{Index: 3, DeviceName: "d"}}); err == nil ||
		!strings.HasPrefix(err.Error(), "expgrid: cell 3 (d)") {
		t.Errorf("decoding a missing capture: err = %v, want a named cell 3 error", err)
	}
}
