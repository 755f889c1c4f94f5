package workload

import (
	"math"
	"sync"
	"testing"
)

// forgetZeta drops (n, theta) from the process-wide memo so the next
// build of that pair sums it cold.
func forgetZeta(n int64, theta float64) {
	zetaMemo.Lock()
	delete(zetaMemo.m, zetaKey{n, math.Float64bits(theta)})
	zetaMemo.Unlock()
}

// memoized reports the value the memo holds for (n, theta), if any.
func memoized(n int64, theta float64) (float64, bool) {
	zetaMemo.Lock()
	defer zetaMemo.Unlock()
	v, ok := zetaMemo.m[zetaKey{n, math.Float64bits(theta)}]
	return v, ok
}

// TestZetaMemoExact pins the memo to the direct sum bit for bit, cold and
// warm, including an n past the summation cap (the integral-tail branch).
func TestZetaMemoExact(t *testing.T) {
	for _, c := range []struct {
		n     int64
		theta float64
	}{
		{1 << 18, 0.99},
		{1 << 20, 0.9},
		{1<<22 + 1<<16, 0.99},
	} {
		want := math.Float64bits(sumZeta(c.n, c.theta))
		forgetZeta(c.n, c.theta)
		for _, pass := range []string{"cold", "warm"} {
			if got := math.Float64bits(zeta(c.n, c.theta)); got != want {
				t.Errorf("zeta(%d, %v) %s = %x, direct sum %x", c.n, c.theta, pass, got, want)
			}
		}
		if v, ok := memoized(c.n, c.theta); !ok || math.Float64bits(v) != want {
			t.Errorf("memo entry for (%d, %v) = %v, %v; want the direct sum", c.n, c.theta, v, ok)
		}
	}
}

// TestZetaMemoConcurrent races 8 cold builds of one generator: every one
// must get the same constants, equal to a build from a fresh sum.
func TestZetaMemoConcurrent(t *testing.T) {
	const n, theta = 1 << 18, 0.99
	forgetZeta(n, theta)
	zs := make([]*Zipf, 8)
	var wg sync.WaitGroup
	for i := range zs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			zs[i] = NewZipf(n, theta)
		}(i)
	}
	wg.Wait()
	forgetZeta(n, theta)
	want := *NewZipf(n, theta)
	for i, z := range zs {
		if math.Float64bits(z.zetan) != math.Float64bits(want.zetan) ||
			math.Float64bits(z.eta) != math.Float64bits(want.eta) || *z != want {
			t.Errorf("goroutine %d built %+v, want %+v", i, *z, want)
		}
	}
}

// TestZipfThetaZeroSkipsNormalizer: a uniform generator never reads the
// normalizer, so building one must not sum or memoize it.
func TestZipfThetaZeroSkipsNormalizer(t *testing.T) {
	const n = 1<<18 + 3 // a key space no other test builds
	z := NewZipf(n, 0)
	if _, ok := memoized(n, 0); ok {
		t.Error("NewZipf(n, 0) memoized a normalizer it never reads")
	}
	if z.zetan != 0 || z.eta != 0 {
		t.Errorf("theta=0 generator carries zetan=%v eta=%v", z.zetan, z.eta)
	}
}

var zipfSink *Zipf

// TestNewZipfWarmAllocs: once a pair is memoized, building its generator
// allocates only the *Zipf itself.
func TestNewZipfWarmAllocs(t *testing.T) {
	zipfSink = NewZipf(1<<18, 0.99)
	allocs := testing.AllocsPerRun(100, func() { zipfSink = NewZipf(1<<18, 0.99) })
	if allocs != 1 {
		t.Errorf("warm NewZipf allocates %v objects, want 1", allocs)
	}
}

// BenchmarkNewZipf is the per-layer gauge for generator set-up: a cold
// key sums 2^18 terms, a warm key is a map lookup.
func BenchmarkNewZipf(b *testing.B) {
	const n, theta = 1 << 18, 0.99
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			forgetZeta(n, theta)
			zipfSink = NewZipf(n, theta)
		}
	})
	b.Run("warm", func(b *testing.B) {
		zipfSink = NewZipf(n, theta)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			zipfSink = NewZipf(n, theta)
		}
	})
}
