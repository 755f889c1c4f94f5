package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"testing"
	"time"

	"essdsim/internal/blockdev"
	"essdsim/internal/profiles"
	"essdsim/internal/sim"
)

// TestSmoke runs every workload at tiny size untraced and traced: both
// passes must succeed, account for work, and produce the same digest.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			s, err := newSuite(name, defaultSeed, tiny, poolWorkers)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := s.pass(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if plain.ops == 0 || plain.cells == 0 || plain.cached != 0 {
				t.Fatalf("untraced pass: %d ops, %d cells, %d cached", plain.ops, plain.cells, plain.cached)
			}
			p := &probe{}
			traced, err := s.pass(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			if traced.digest != plain.digest {
				t.Fatalf("traced digest %s, untraced %s", traced.digest, plain.digest)
			}
			switch name {
			case "paper-grid":
				if len(p.dev.cells) != plain.cells {
					t.Fatalf("wrapped %d devices for %d cells", len(p.dev.cells), plain.cells)
				}
				var d devSummary
				d.add(&p.dev)
				if d.steps == 0 || d.submits.count == 0 || d.callbacks == 0 {
					t.Fatalf("device trace empty: %d steps, %d submits, %d callbacks", d.steps, d.submits.count, d.callbacks)
				}
				if err := plain.fidelity.check(); err != nil {
					t.Error(err)
				}
			case "kv-mix":
				if p.kvOps != plain.ops || p.kv.Gets == 0 || p.kv.Puts == 0 {
					t.Fatalf("kv progress saw %d ops (%d gets, %d puts), report %d", p.kvOps, p.kv.Gets, p.kv.Puts, plain.ops)
				}
			case "neighbor-wfq":
				if p.done != plain.cells {
					t.Fatalf("progress saw %d completions for %d cells", p.done, plain.cells)
				}
			}
		})
	}
}

func TestBucketOfStack(t *testing.T) {
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{"essdsim/internal/sim.(*Engine).pop", "/src/internal/sim/engine.go"}}, "sim.engine"},
		{[]frame{
			{"math.archExp", "/go/src/math/exp_asm.go"},
			{"math.Exp", "/go/src/math/exp.go"},
			{"essdsim/internal/sim.LogNormal.Sample", "/src/internal/sim/rand.go"},
			{"essdsim/internal/essd.(*ESSD).Submit", "/src/internal/essd/essd.go"},
		}, "sim.rand"},
		{[]frame{
			{"runtime.scanobject", "/go/src/runtime/mgcmark.go"},
			{"runtime.gcDrain", "/go/src/runtime/mgcmark.go"},
			{"runtime.gcBgMarkWorker.func2", "/go/src/runtime/mgc.go"},
			{"runtime.systemstack", "/go/src/runtime/asm_amd64.s"},
		}, "runtime.bg"},
		{[]frame{{"essdsim/internal/sim.(*FlowQueue).Push", "/src/internal/sim/flowsched.go"}}, "sim.flowsched"},
		{[]frame{{"essdsim/internal/stats.Pool[go.shape.struct { essdsim/internal/x.T }].Get", "/src/internal/stats/pool.go"}}, "stats"},
		{[]frame{{"essdsim/kv.(*LSM).Put", "/src/kv/lsm.go"}}, "kv"},
		{[]frame{{"essdsim/internal/fleet.Run", "/src/internal/fleet/fleet.go"}}, "suite"},
		{[]frame{{"essdsim/internal/blockdev.Validate", "/src/internal/blockdev/blockdev.go"}}, "other"},
		{[]frame{{"time.Now", "/go/src/time/time.go"}, {"main.(*tracedDev).Submit", "/src/perfbench/device.go"}}, "bench"},
	}
	for _, c := range cases {
		if got := bucketOfStack(c.stack); got != c.want {
			t.Errorf("%s: got %s, want %s", c.stack[0].fn, got, c.want)
		}
	}
}

// TestCPUProfileDecode profiles real sampling work and checks that the
// decoder attributes it to the sim.rand bucket.
func TestCPUProfileDecode(t *testing.T) {
	d := sim.LogNormal{Median: sim.Microsecond, Sigma: 0.5}
	r := sim.NewRNG(1, 2)
	var sink sim.Duration
	cpu, samples, err := cpuProfile(func() error {
		for t0 := time.Now(); time.Since(t0) < 300*time.Millisecond; {
			for i := 0; i < 1000; i++ {
				sink += d.Sample(r)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("no CPU profile samples on this platform")
	}
	// Samples with no repository frame go to runtime.bg. Under the race
	// detector many samples land in its C runtime, whose stacks the
	// profiler cannot unwind, so only repository-attributed time counts.
	var attributed int64
	for k, v := range cpu {
		if k != "runtime.bg" {
			attributed += v
		}
	}
	if attributed == 0 || cpu["sim.rand"] < attributed/2 {
		t.Fatalf("sim.rand got %d of %d attributed ns (%v); sink %d", cpu["sim.rand"], attributed, cpu, sink)
	}
}

// plainDev implements blockdev.Device and none of the optional interfaces.
type plainDev struct{ eng *sim.Engine }

func (d plainDev) Name() string               { return "plain" }
func (d plainDev) Capacity() int64            { return 1 << 20 }
func (d plainDev) BlockSize() int             { return 4096 }
func (d plainDev) Engine() *sim.Engine        { return d.eng }
func (d plainDev) Submit(r *blockdev.Request) {}

// releaseOnly has an interface set no wrapper type covers.
type releaseOnly struct{ plainDev }

func (releaseOnly) ReleaseResources() {}

func TestWrapperForwarding(t *testing.T) {
	for _, name := range []string{"essd1", "ssd"} {
		d, err := profiles.ByName(name, sim.NewEngine(), sim.NewRNG(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		ct := &cellTrace{}
		w, err := wrapDevice(d, ct)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := capsOf(w), capsOf(d); got != want || want == 0 {
			t.Fatalf("%s: wrapper interface set %05b, device %05b", name, got, want)
		}
		switch w := w.(type) {
		case preconditioner:
			w.Precondition(0.1)
		case randPreconditioner:
			w.Precondition(0.1, false)
		}
		if ct.precond <= 0 {
			t.Errorf("%s: Precondition was not timed", name)
		}
		if tw, ok := w.(throttler); ok && tw.Throttled() != d.(throttler).Throttled() {
			t.Errorf("%s: Throttled not forwarded", name)
		}
		if fw, ok := w.(ftlWriteAmper); ok && fw.FTLWriteAmp() != d.(ftlWriteAmper).FTLWriteAmp() {
			t.Errorf("%s: FTLWriteAmp not forwarded", name)
		}

		done := 0
		w.Submit(&blockdev.Request{Op: blockdev.Write, Size: 4096, OnComplete: func(*blockdev.Request, sim.Time) { done++ }})
		w.Engine().Run()
		w.Engine() // expgrid's last call, before it releases the engine
		if done != 1 || ct.callbacks != 1 || ct.submits.count != 1 || ct.steps == 0 {
			t.Errorf("%s: %d completions, %d callbacks, %d submits, %d steps", name, done, ct.callbacks, ct.submits.count, ct.steps)
		}
		if r, ok := w.(releaser); ok {
			r.ReleaseResources()
		}
	}

	w, err := wrapDevice(plainDev{sim.NewEngine()}, &cellTrace{})
	if err != nil || capsOf(w) != 0 {
		t.Fatalf("plain device: %v, interface set %05b", err, capsOf(w))
	}
	if _, err := wrapDevice(releaseOnly{plainDev{sim.NewEngine()}}, &cellTrace{}); err == nil {
		t.Fatal("wrapped a device whose interface set has no wrapper type")
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{{50, 0.5}, {100, 0.9}, {240, 0.9}, {1000, 0.99}, {1_000_000, 0.99999}} {
		if got := tailQuantile(c.n); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("tailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := uint64(1); v <= 1000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := q * 1000
		if got := h.quantile(q); got > want || got < want*0.875 {
			t.Errorf("quantile(%g) = %g, want within 12.5%% below %g", q, got, want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "kv-mix", "--trace", "2"},
		{"--workload", "kv-mix", "--seconds", "0"},
		{"--workload", "kv-mix", "extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v: exit code 0", args)
		}
	}
}

// TestFailedPassesAreCounted runs the traced benchmark on a suite whose
// passes fail: it must still return a result, with every pass's cells
// failed and correct false.
func TestFailedPassesAreCounted(t *testing.T) {
	calls := 0
	s := &suite{name: "flaky", pass: func(context.Context, *probe) (outcome, error) {
		calls++
		if calls == 1 {
			return outcome{digest: "d", ops: 10, cells: 3}, nil
		}
		return outcome{}, errors.New("cell panicked")
	}}
	res := benchmark(context.Background(), options{seconds: 0.01, trace: 1}, s, io.Discard)
	if res.Correct || res.Attempted != 3*calls || res.Failed != 3*(calls-1) {
		t.Fatalf("%d passes: correct %v, attempted %d, failed %d", calls, res.Correct, res.Attempted, res.Failed)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}

	s.pass = func(context.Context, *probe) (outcome, error) { return outcome{}, errors.New("no device") }
	res = benchmark(context.Background(), options{seconds: 0.01, trace: 1}, s, io.Discard)
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("failing cold pass: correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
	}
}
