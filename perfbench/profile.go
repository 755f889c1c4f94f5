package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
)

// The CPU profile is bucketed by repo module. Each sample is charged to
// its innermost frame from this repository, so time in the standard
// library counts toward the repo code that called it (math.Exp under
// sim.LogNormal.Sample is sim.rand). Samples with no repo frame — GC
// workers, the scheduler — are runtime.bg.

// layerBuckets lists every bucket, in report order.
var layerBuckets = []string{
	"sim.engine", "sim.rand", "sim.resource", "sim.flowsched",
	"stats", "qos", "cluster", "netsim", "essd", "ssd", "ftl", "flash",
	"kv", "workload", "expgrid", "obs", "suite", "bench", "other", "runtime.bg",
}

// simFiles splits package sim by source file.
var simFiles = map[string]string{
	"engine.go":    "sim.engine",
	"pool.go":      "sim.engine",
	"rand.go":      "sim.rand",
	"resource.go":  "sim.resource",
	"flowsched.go": "sim.flowsched",
}

// frame is one function of a call stack.
type frame struct{ fn, file string }

// bucketOfStack returns the bucket of a stack given leaf first.
func bucketOfStack(stack []frame) string {
	for _, f := range stack {
		if b, ok := bucketOfFrame(f); ok {
			return b
		}
	}
	return "runtime.bg"
}

// bucketOfFrame maps a repo frame to its bucket; ok is false for frames
// outside the repository.
func bucketOfFrame(f frame) (string, bool) {
	if strings.HasPrefix(f.fn, "main.") {
		return "bench", true // the benchmark's own code
	}
	pkg := packageOf(f.fn)
	if pkg != "essdsim" && !strings.HasPrefix(pkg, "essdsim/") {
		return "", false
	}
	switch rel := strings.TrimPrefix(strings.TrimPrefix(pkg, "essdsim/"), "internal/"); rel {
	case "sim":
		if b, ok := simFiles[path.Base(f.file)]; ok {
			return b, true
		}
		return "other", true
	case "stats", "qos", "cluster", "netsim", "essd", "ssd", "ftl", "flash",
		"kv", "workload", "expgrid", "obs":
		return rel, true
	case "fleet", "scenario", "harness":
		return "suite", true
	default:
		return "other", true
	}
}

// packageOf extracts the import path from a symbol name such as
// "essdsim/internal/sim.(*Engine).pop" or "essdsim/internal/stats.Pool[...].Get".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuByBucket decodes a gzipped pprof CPU profile and sums its CPU
// nanoseconds per bucket.
func cpuByBucket(gz []byte) (map[string]int64, int, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("cpu profile: %w", err)
	}
	out := map[string]int64{}
	samples := 0
	for _, s := range p.samples {
		if p.valueIndex >= len(s.values) {
			return nil, 0, errors.New("cpu profile: sample without a cpu value")
		}
		var stack []frame
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				fn := p.functions[fid]
				stack = append(stack, frame{p.str(fn.name), p.str(fn.file)})
			}
		}
		out[bucketOfStack(stack)] += s.values[p.valueIndex]
		samples++
	}
	return out, samples, nil
}

// profile is the part of a pprof profile.proto message the bucketing
// reads: samples, locations (as function ids, innermost inlined frame
// first) and function names and files.
type profile struct {
	samples    []sample
	locations  map[uint64][]uint64
	functions  map[uint64]function
	strings    []string
	valueIndex int // index of the "cpu" sample value
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

type function struct{ name, file int64 }

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSampleType = 1
	profSample     = 2
	profLocation   = 4
	profFunction   = 5
	profString     = 6
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]function{}}
	var sampleTypes [][]byte
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSampleType:
			sampleTypes = append(sampleTypes, data)
		case profSample:
			var s sample
			err := fields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					return varints(v, d, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return varints(v, d, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, d []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return fields(d, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var fn function
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					fn.name = int64(v)
				case 4:
					fn.file = int64(v)
				}
				return nil
			})
			p.functions[id] = fn
			return err
		case profString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p.valueIndex = len(sampleTypes) - 1
	for i, st := range sampleTypes {
		var typ int64
		if err := fields(st, func(num int, v uint64, _ []byte) error {
			if num == 1 {
				typ = int64(v)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if p.str(typ) == "cpu" {
			p.valueIndex = i
		}
	}
	if p.valueIndex < 0 {
		return nil, errors.New("no sample types")
	}
	return p, nil
}

// fields walks a protobuf message, calling fn with each field's number
// and either its varint value (wire type 0) or its bytes (wire type 2).
// Fixed-width fields are skipped.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("truncated field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("truncated varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated bytes")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated varint field in either encoding: one value,
// or a packed run.
func varints(v uint64, packed []byte, add func(uint64)) error {
	if packed == nil {
		add(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("truncated packed varint")
		}
		add(x)
		packed = packed[n:]
	}
	return nil
}
