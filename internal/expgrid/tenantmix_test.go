package expgrid

import (
	"context"
	"math"
	"reflect"
	"testing"

	"essdsim/internal/essd"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
	"essdsim/internal/workload"
)

// tenantHook builds a tiny two-volume shared-backend mix from the cell
// coordinates: one fixed-rate "victim" plus c.Aggressors copies of a
// bursty writer at c.RatePerSec.
func tenantHook(c Cell) (*sim.Engine, []workload.Tenant) {
	eng := sim.NewEngine()
	rng := sim.NewRNG(c.Seed, c.Seed^0x91)
	bcfg, vcfg := profiles.ESSD1Config().Split()
	be := essd.NewBackend(eng, bcfg, rng.Derive("backend"))
	mk := func(name string, rate float64, arrival workload.Arrival, n uint64, seed uint64) workload.Tenant {
		cfg := vcfg
		cfg.Name = name
		vol := be.Attach(cfg, rng)
		vol.Precondition(1)
		return workload.Tenant{Name: name, Dev: vol, Open: &workload.OpenSpec{
			Pattern: workload.RandWrite, BlockSize: 64 << 10,
			RatePerSec: rate, Arrival: arrival, Count: n, Seed: seed,
		}}
	}
	tenants := []workload.Tenant{mk("victim", 500, workload.Uniform, 300, c.Seed^1)}
	for i := 0; i < c.Aggressors; i++ {
		tenants = append(tenants, mk("aggr", c.RatePerSec, workload.Bursty, 200, c.Seed^uint64(2+i)))
	}
	return eng, tenants
}

func tenantKind() Tenants {
	return Tenants{
		AggressorCounts: []int{0, 2},
		RatesPerSec:     []float64{1000, 2000},
		Build:           tenantHook,
	}
}

func tenantSweep() Sweep {
	return Sweep{
		Devices: []NamedFactory{{Name: "shared"}},
		Kind:    tenantKind(),
		Seed:    5,
		Label:   "tenant-test",
	}
}

// TestTenantMixEnumeration checks the tenant grid's shape, order, and
// seed coordinates. The seeds are literal: changing one re-seeds the cell
// and orphans its persisted cache entries.
func TestTenantMixEnumeration(t *testing.T) {
	cells := tenantSweep().Cells()
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	seeds := []uint64{0x8e33d9e1435aca32, 0xf42e2f67e22d49f4, 0x574b7dc6d20c1b97, 0x999fee1ce5eff3ce}
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d has index %d", i, c.Index)
		}
		if c.Seed != seeds[i] || c.WriteRatioPct != -1 {
			t.Fatalf("cell %d seed %016x ratio %d, pinned %016x and -1", i, c.Seed, c.WriteRatioPct, seeds[i])
		}
	}
	if cells[0].Aggressors != 0 || cells[2].Aggressors != 2 {
		t.Fatal("aggressor axis not outer of rates")
	}
	if cells[0].RatePerSec != 1000 || cells[1].RatePerSec != 2000 {
		t.Fatal("rate axis not inner")
	}
}

// TestTenantMixParallelDeterminism checks tenant-mix cells are
// byte-identical at any worker count and return per-tenant results in
// tenant order.
func TestTenantMixParallelDeterminism(t *testing.T) {
	r1, err := Runner{Workers: 1}.Run(context.Background(), tenantSweep())
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Runner{Workers: 8}.Run(context.Background(), tenantSweep())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r8) {
		t.Fatal("tenant-mix sweep differs between 1 and 8 workers")
	}
	for _, r := range r1 {
		if len(r.Mix) != 1+r.Aggressors {
			t.Fatalf("cell %d has %d tenant results, want %d", r.Index, len(r.Mix), 1+r.Aggressors)
		}
		if r.Mix[0].Name != "victim" || r.Mix[0].Open == nil {
			t.Fatalf("cell %d victim result malformed: %+v", r.Index, r.Mix[0])
		}
		if r.Res != nil || r.Open != nil || r.Replay != nil {
			t.Fatalf("cell %d carries non-mix measurements", r.Index)
		}
	}
}

// TestTenantMixValidation checks the tenant-kind validation rules,
// including that nil device factories are allowed only for this kind.
func TestTenantMixValidation(t *testing.T) {
	ok := tenantSweep()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid tenant sweep rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Tenants){
		"no hook":       func(k *Tenants) { k.Build = nil },
		"no counts":     func(k *Tenants) { k.AggressorCounts = nil },
		"no rates":      func(k *Tenants) { k.RatesPerSec = nil },
		"bad rate":      func(k *Tenants) { k.RatesPerSec = []float64{0} },
		"NaN rate":      func(k *Tenants) { k.RatesPerSec = []float64{1000, math.NaN()} },
		"+Inf rate":     func(k *Tenants) { k.RatesPerSec = []float64{math.Inf(1)} },
		"-Inf rate":     func(k *Tenants) { k.RatesPerSec = []float64{math.Inf(-1)} },
		"negative aggr": func(k *Tenants) { k.AggressorCounts = []int{-1} },
		"bad ratio":     func(k *Tenants) { k.WriteRatiosPct = []int{101} },
	} {
		k := tenantKind()
		mutate(&k)
		s := tenantSweep()
		s.Kind = k
		if err := s.Validate(); err == nil {
			t.Errorf("%s: tenant sweep accepted", name)
		}
	}
	// A nil factory stays an error for non-tenant kinds.
	closed := quickSweep()
	closed.Devices = []NamedFactory{{Name: "nil"}}
	if err := closed.Validate(); err == nil {
		t.Error("closed sweep accepted a nil device factory")
	}
}

// TestProgressCachedCount checks the cache-warm skip counter: a warm
// re-run reports every completion as cached, cumulatively.
func TestProgressCachedCount(t *testing.T) {
	cache := NewCache(0)
	sw := tenantSweep()
	sw.Cache = cache
	if _, err := (Runner{Workers: 2}).Run(context.Background(), sw); err != nil {
		t.Fatal(err)
	}
	var last Progress
	r := Runner{Workers: 2, OnProgress: func(p Progress) {
		if p.Cached > p.Done {
			t.Errorf("cached %d > done %d", p.Cached, p.Done)
		}
		last = p
	}}
	if _, err := r.Run(context.Background(), sw); err != nil {
		t.Fatal(err)
	}
	if last.Done != 4 || last.Cached != 4 {
		t.Fatalf("warm progress = %+v, want 4/4 cached", last)
	}
}
