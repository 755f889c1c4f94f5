package expgrid

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"essdsim/internal/essd"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
	"essdsim/kv"
)

// kvHook builds a tiny two-tenant shared-backend KV mix from the cell
// coordinates: each tenant an engine of the cell's design on its own
// volume, driven by a short zipfian read/write stream.
func kvHook(c Cell) (*sim.Engine, []kv.MixTenant) {
	eng := sim.AcquireEngine()
	rng := sim.NewRNG(c.Seed, c.Seed^0x91)
	bcfg, vcfg := profiles.ESSD1Config().Split()
	be := essd.NewBackend(eng, bcfg, rng.Derive("backend"))
	var tenants []kv.MixTenant
	for i := 0; i < 2; i++ {
		cfg := vcfg
		cfg.Name = "kv"
		vol := be.Attach(cfg, rng)
		vol.Precondition(1)
		var e kv.Engine
		if c.KVEngine == "lsm" {
			lcfg := kv.DefaultLSMConfig()
			lcfg.MemtableBytes = 64 << 10
			lcfg.L0CompactTrigger = 2
			e = kv.NewLSM(vol, lcfg)
		} else {
			e = kv.NewPageStore(vol, kv.DefaultPageStoreConfig(vol))
		}
		tenants = append(tenants, kv.MixTenant{Name: cfg.Name, Engine: e, Spec: kv.MixSpec{
			Ops: 150, ValueSize: c.ValueSize, ReadFrac: 0.5, RatePerSec: 10000,
			KeySpace: 1 << 10, ZipfTheta: c.KVSkew, Seed: c.Seed ^ uint64(i),
		}})
	}
	return eng, tenants
}

func kvKind() KV {
	return KV{
		Engines:    []string{"lsm", "pagestore"},
		Skews:      []float64{0, 0.99},
		ValueSizes: []int64{1024},
		Build:      kvHook,
	}
}

func kvSweep() Sweep {
	return Sweep{
		Devices: []NamedFactory{{Name: "essd1"}},
		Kind:    kvKind(),
		Seed:    5,
		Label:   "kv-test",
	}
}

// TestKVMixEnumeration checks the KV grid's shape, order, and seed
// coordinates. The seeds are literal: changing one re-seeds the cell and
// orphans its persisted cache entries.
func TestKVMixEnumeration(t *testing.T) {
	cells := kvSweep().Cells()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	seeds := []uint64{0x060050c44c686bb8, 0x099be262b5640831, 0x2a57c21d2e83968f, 0x592f1e080895849e}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		if c.Seed != seeds[i] {
			t.Fatalf("cell %d seed %016x, pinned %016x", i, c.Seed, seeds[i])
		}
		if c.ValueSize != 1024 {
			t.Fatalf("cell %d value size %d", i, c.ValueSize)
		}
	}
	if cells[0].KVEngine != "lsm" || cells[2].KVEngine != "pagestore" {
		t.Fatal("engine axis not outer of skews")
	}
	if cells[0].KVSkew != 0 || cells[1].KVSkew != 0.99 {
		t.Fatal("skew axis not inner")
	}
}

// kvSeed is the seed of the single cell of a one-device, one-coordinate
// KV sweep.
func kvSeed(root uint64, label, device, engine string, skew float64, valueSize int64) uint64 {
	return Sweep{
		Devices: []NamedFactory{{Name: device}},
		Kind:    KV{Engines: []string{engine}, Skews: []float64{skew}, ValueSizes: []int64{valueSize}},
		Seed:    root,
		Label:   label,
	}.Cells()[0].Seed
}

// TestKVCellSeedDecorrelated checks each coordinate contributes to the
// cell seed, against literal values.
func TestKVCellSeedDecorrelated(t *testing.T) {
	for _, tc := range []struct {
		root      uint64
		label     string
		device    string
		engine    string
		skew      float64
		valueSize int64
		want      uint64
	}{
		{5, "l", "essd1", "lsm", 0.5, 1024, 0xda98c31076554c6d},
		{6, "l", "essd1", "lsm", 0.5, 1024, 0x57d964ec06a40403},
		{5, "m", "essd1", "lsm", 0.5, 1024, 0x26862f48f9bd1356},
		{5, "l", "essd2", "lsm", 0.5, 1024, 0xcea7661e6e4df424},
		{5, "l", "essd1", "pagestore", 0.5, 1024, 0x58251f077ad58e53},
		{5, "l", "essd1", "lsm", 0.99, 1024, 0x0a4fae3d9d673457},
		{5, "l", "essd1", "lsm", 0.5, 4096, 0x338daee5c11cda3e},
	} {
		if got := kvSeed(tc.root, tc.label, tc.device, tc.engine, tc.skew, tc.valueSize); got != tc.want {
			t.Errorf("%+v: seed %016x", tc, got)
		}
	}
}

// TestKVMixParallelDeterminism checks KV cells are byte-identical at any
// worker count and return per-tenant results in tenant order.
func TestKVMixParallelDeterminism(t *testing.T) {
	r1, err := Runner{Workers: 1}.Run(context.Background(), kvSweep())
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Runner{Workers: 8}.Run(context.Background(), kvSweep())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("kv sweep differs between 1 and 8 workers")
	}
	for _, r := range r1 {
		if r.Err != nil {
			t.Fatalf("cell %d: %v", r.Index, r.Err)
		}
		if len(r.KV) != 2 {
			t.Fatalf("cell %d has %d tenant results, want 2", r.Index, len(r.KV))
		}
		if r.KV[0].Ops != 150 || r.KV[1].Ops != 150 {
			t.Fatalf("cell %d tenants acked %d/%d ops", r.Index, r.KV[0].Ops, r.KV[1].Ops)
		}
		if r.KV[0].Engine != r.KVEngine {
			t.Fatalf("cell %d result engine %q, cell coordinate %q", r.Index, r.KV[0].Engine, r.KVEngine)
		}
		if r.Res != nil || r.Open != nil || r.Replay != nil || r.Mix != nil {
			t.Fatalf("cell %d carries non-kv measurements", r.Index)
		}
	}
}

// TestKVMixValidation checks the KV-kind validation rules.
func TestKVMixValidation(t *testing.T) {
	ok := kvSweep()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid kv sweep rejected: %v", err)
	}
	for name, mutate := range map[string]func(*KV){
		"no hook":        func(k *KV) { k.Build = nil },
		"no engines":     func(k *KV) { k.Engines = nil },
		"empty engine":   func(k *KV) { k.Engines = []string{""} },
		"no skews":       func(k *KV) { k.Skews = nil },
		"skew too big":   func(k *KV) { k.Skews = []float64{1} },
		"skew negative":  func(k *KV) { k.Skews = []float64{-0.1} },
		"skew NaN":       func(k *KV) { k.Skews = []float64{0.5, math.NaN()} },
		"skew +Inf":      func(k *KV) { k.Skews = []float64{math.Inf(1)} },
		"skew -Inf":      func(k *KV) { k.Skews = []float64{math.Inf(-1)} },
		"no value sizes": func(k *KV) { k.ValueSizes = nil },
		"bad value size": func(k *KV) { k.ValueSizes = []int64{0} },
	} {
		k := kvKind()
		mutate(&k)
		s := kvSweep()
		s.Kind = k
		if err := s.Validate(); err == nil {
			t.Errorf("%s: kv sweep accepted", name)
		}
	}
}

// TestKVMixCacheRoundTrip checks KV results survive the persistent cache:
// a warm re-run skips every cell, and a save/load cycle reproduces the
// measurements from disk.
func TestKVMixCacheRoundTrip(t *testing.T) {
	cache := NewCache(0)
	sw := kvSweep()
	sw.Cache = cache
	cold, err := Runner{Workers: 2}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Runner{Workers: 2}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Fatalf("cell %d not served from cache", i)
		}
		warm[i].Cached = false
		if !reflect.DeepEqual(cold[i], warm[i]) {
			t.Fatalf("cell %d cached result differs", i)
		}
	}
	var buf bytes.Buffer
	if err := cache.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded := NewCache(0)
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	sw.Cache = loaded
	disk, err := Runner{Workers: 2}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range disk {
		if !disk[i].Cached {
			t.Fatalf("cell %d not served from loaded cache", i)
		}
		disk[i].Cached = false
		if !reflect.DeepEqual(cold[i], disk[i]) {
			t.Fatalf("cell %d disk-cached result differs", i)
		}
	}
}
