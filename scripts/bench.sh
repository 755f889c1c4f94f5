#!/bin/sh
# Repeatable perf-trajectory bench run: executes the simulator-throughput
# benchmarks and writes BENCH_PR10.json (ns/op, cells/sec, allocs/op, and
# every custom metric per benchmark) via cmd/benchreport.
#
# Usage:
#   scripts/bench.sh                 # write BENCH_PR10.json
#   BENCH_GATE=1 scripts/bench.sh    # also gate FleetPack cells/sec and the
#                                    # KV ingest hot path against
#                                    # BENCH_BASELINE.json (fail on >20% drop)
#
# The benchmark selection is the perf-critical core: the fleet/neighbor
# sweep throughput the PR 6 optimization targets, the per-policy QoS
# isolation cost and signal added in PR 7, the churn control plane's
# epoch throughput added in PR 8, the allocation-free KV hot path and the
# KV tenant-mix suite added in PR 9, the observability-plane overhead
# (tracing off vs on, probe sampling) added in PR 10, the raw engine and
# device-op costs underneath them, the local-SSD cell set-up (device
# build plus full sequential precondition, whose B/op is exact), the
# cache-overhead proof, and the two-fidelity screen. BENCHTIME defaults
# to 5x — enough to average the shared-VM noise without taking minutes.
set -eu
cd "$(dirname "$0")/.."

BENCHTIME="${BENCHTIME:-5x}"
OUT="${BENCH_OUT:-BENCH_PR10.json}"
PATTERN='^(BenchmarkFleetPack|BenchmarkChurnEpochs|BenchmarkNeighborSweep|BenchmarkNeighborIsolation|BenchmarkFleetScreen|BenchmarkSweepCacheOverhead|BenchmarkEngineThroughput|BenchmarkDeviceIO|BenchmarkSSDCellSetup|BenchmarkKVIngest|BenchmarkKVMix|BenchmarkTraceOverhead|BenchmarkProbeSampling)$'

GATE_ARGS=""
if [ "${BENCH_GATE:-0}" = "1" ]; then
    GATE_ARGS="-baseline BENCH_BASELINE.json -gate FleetPack:cells/sec:0.20 -gate KVIngest/lsm:puts/sec:0.20 -gate KVMix:ops/sec:0.20"
fi

# shellcheck disable=SC2086 # GATE_ARGS is deliberately word-split
go test -bench "$PATTERN" -benchtime "$BENCHTIME" -run '^$' . \
    | go run ./cmd/benchreport -o "$OUT" $GATE_ARGS
echo "wrote $OUT"
