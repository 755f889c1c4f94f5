package expgrid

import (
	"bytes"
	"context"
	"path/filepath"
	"reflect"
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

// countingInfo counts how many times it is JSON-marshalled.
type countingInfo struct{ marshals *int }

func (c countingInfo) MarshalJSON() ([]byte, error) {
	*c.marshals++
	return []byte(`{"x":1}`), nil
}

// TestCacheInfoMarshalsLazilyAndOnce pins the store-path fix: storing a
// cell's Inspect capture must not serialize it (store runs once per cell on
// the sweep hot path), and repeated Saves must serialize it exactly once —
// the first Save memoizes the bytes on the entry.
func TestCacheInfoMarshalsLazilyAndOnce(t *testing.T) {
	cache := NewCache(0)
	marshals := 0
	cache.store(1, CellResult{
		Cell: Cell{Seed: 42},
		Info: countingInfo{marshals: &marshals},
	})
	if marshals != 0 {
		t.Fatalf("store marshalled the Info %d times; must defer to Save", marshals)
	}
	// An in-process lookup is served from the live capture, no marshal.
	if res, ok := cache.lookup(1, Cell{Seed: 42}, true, nil); !ok || res.Info == nil {
		t.Fatal("in-process lookup with inspect must hit without serialization")
	}
	if marshals != 0 {
		t.Fatalf("lookup marshalled the Info %d times", marshals)
	}
	for i := 0; i < 3; i++ {
		if err := cache.Save(&bytes.Buffer{}); err != nil {
			t.Fatal(err)
		}
	}
	if marshals != 1 {
		t.Fatalf("three Saves marshalled the Info %d times, want exactly 1 (memoized)", marshals)
	}
}

// TestCacheUnmarshalableInfoStaysInMemory: an Inspect capture that cannot
// serialize keeps its entry usable in-process but out of the persisted file.
func TestCacheUnmarshalableInfoStaysInMemory(t *testing.T) {
	cache := NewCache(0)
	cache.store(1, CellResult{Cell: Cell{Seed: 7}, Info: make(chan int)})
	if res, ok := cache.lookup(1, Cell{Seed: 7}, true, nil); !ok || res.Info == nil {
		t.Fatal("in-memory entry with unmarshalable Info must still hit")
	}
	var buf bytes.Buffer
	if err := cache.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte(cellKey(1, 7))) {
		t.Fatalf("unmarshalable entry leaked into the persisted file: %s", buf.String())
	}
	// The failed marshal is memoized too: a second Save must not re-try
	// and must stay well-formed.
	if err := cache.Save(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}
