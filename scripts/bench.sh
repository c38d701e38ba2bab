#!/usr/bin/env bash
# Record the kernel-layer microbenchmarks into BENCH_kernels.json at the
# repo root: one object per benchmark with ns/op, B/op, and allocs/op, plus
# a small header identifying the toolchain. Compare runs with
#   git diff BENCH_kernels.json
# or, without overwriting the committed baseline, benchstat-style:
#   scripts/bench.sh -compare [benchtime]
# which reruns the benchmarks and prints old/new ns/op and the speedup ratio
# for every row shared with the committed BENCH_kernels.json.
# Usage: scripts/bench.sh [-compare] [benchtime]   (default 1s per benchmark)
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

COMPARE=0
if [ "${1:-}" = "-compare" ]; then
    COMPARE=1
    shift
fi
BENCHTIME="${1:-1s}"
OUT="BENCH_kernels.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' \
    -bench '^BenchmarkKernel(Axpy|AxpyVariants|AsyncStripeAccumulate|PanelMultiply|PanelVariants)$' \
    -benchmem -benchtime "$BENCHTIME" . | tee "$RAW"

# to_json RAW > json  — shared by both modes. Strips the -GOMAXPROCS suffix
# so rows are stable across machines.
to_json() {
    awk -v goversion="$(go env GOVERSION)" '
    BEGIN {
        printf "{\n  \"go\": \"%s\",\n  \"benchmarks\": [\n", goversion
        n = 0
    }
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = ""; bytes = ""; allocs = ""
        for (i = 2; i <= NF; i++) {
            if ($i == "ns/op")     ns = $(i - 1)
            if ($i == "B/op")      bytes = $(i - 1)
            if ($i == "allocs/op") allocs = $(i - 1)
        }
        if (ns == "") next
        if (n++) printf ",\n"
        printf "    {\"name\": \"%s\", \"ns_per_op\": %s", name, ns
        if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
        if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
        printf "}"
    }
    END { printf "\n  ]\n}\n" }
    ' "$1"
}

if [ "$COMPARE" = 1 ]; then
    # Join the fresh run against the committed baseline on benchmark name and
    # print a benchstat-style table. The committed file is left untouched.
    echo
    echo "== comparison vs committed $OUT"
    awk '
    # Pass 1: committed baseline rows — {"name": "...", "ns_per_op": N, ...}
    NR == FNR {
        if (match($0, /"name": "[^"]+"/)) {
            name = substr($0, RSTART + 9, RLENGTH - 10)
            if (match($0, /"ns_per_op": [0-9.e+-]+/))
                old[name] = substr($0, RSTART + 13, RLENGTH - 13)
        }
        next
    }
    # Pass 2: fresh raw benchmark output.
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        ns = ""
        for (i = 2; i <= NF; i++) if ($i == "ns/op") ns = $(i - 1)
        if (ns == "") next
        seen[name] = 1
        if (name in old) {
            printf "%-60s %12.4g %12.4g %8.2fx\n", name, old[name], ns, old[name] / ns
        } else {
            printf "%-60s %12s %12.4g %9s\n", name, "-", ns, "(new)"
        }
    }
    BEGIN {
        printf "%-60s %12s %12s %9s\n", "benchmark", "old ns/op", "new ns/op", "speedup"
    }
    END {
        for (name in old) if (!(name in seen))
            printf "%-60s %12.4g %12s %9s\n", name, old[name], "-", "(gone)"
    }
    ' "$OUT" "$RAW"
    exit 0
fi

to_json "$RAW" > "$OUT"
echo "wrote $OUT"

# Communication-aggregation deltas: per registry matrix, one-sided request
# and byte counts for the per-stripe twin, batched-cold, and batched-warm runs, plus
# the sync-pipelining comparison (modeled_serial_seconds vs
# modeled_pipelined_seconds and the overlap_gain ratio — the serial
# accounting, the same ledger with SyncOverlap zeroed, is never faster). Compare runs with  git diff BENCH_comm.json
COMM_OUT="BENCH_comm.json"
go run ./cmd/twoface-bench -exp comm -scale 0.25 -comm-out "$COMM_OUT" >/dev/null
echo "wrote $COMM_OUT"
