#!/usr/bin/env bash
# Tier-1 gate: formatting, vet, build, race-enabled tests, a smoke pass over
# the kernel microbenchmarks, and an end-to-end observability smoke.
# ROADMAP.md documents this as the check every PR must keep green. Run from
# anywhere inside the repo.
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== GOOS=linux GOARCH=arm64 go build ./... (NEON kernel cross-compile)"
GOOS=linux GOARCH=arm64 go build ./...

echo "== GOOS=linux GOARCH=riscv64 go build ./... (no-SIMD dispatch compiles)"
# No assembly kernels on riscv64: every kernel binds the generic set, and
# AxpyGather falls back to its Axpy2-pairs loop.
GOOS=linux GOARCH=riscv64 go build ./...

echo "== GOOS=linux GOARCH=s390x go vet ./internal/transport/tcp ./internal/serve (big-endian paths compile)"
# The TCP backend sends float64s from memory, so tcp.New refuses a big-endian
# host instead of keeping a converting codec; the serve daemon reads octet
# operands into memory and swaps them in place there. This keeps the refusal,
# the swap, and the unsafeptr pass over both byte views building where they
# would fire.
GOOS=linux GOARCH=s390x go vet ./internal/transport/tcp ./internal/serve

echo "== go test -race ./... (SIMD dispatch)"
go test -race ./...

echo "== go test -race ./... (TWOFACE_FORCE_GENERIC=1)"
# internal/kernels reads the variable at package initialisation, which the
# test cache does not record: without -count=1 this pass replays the SIMD
# pass's cached results.
TWOFACE_FORCE_GENERIC=1 go test -race -count=1 ./...

echo "== JSON ingress fuzz smoke (scanner vs encoding/json, 10 s)"
go test -run '^$' -fuzz '^FuzzDecodeMultiplyRequest$' -fuzztime 10s ./internal/serve

echo "== single-writer rows vs shared rows, SDDMM's single-writer ranges, multicast views vs copies, and the pinned-worker ledger (-race -count=10, both dispatch modes)"
# C is its own accumulator: panel workers sum single-writer rows in place
# while async workers CAS into the rows they share. The forced-generic pass
# is the one in which the race detector can see the in-place stores. On the
# simulator, panels read the root's window in place, memory shared across
# rank goroutines; the view tests hold that path to the copying one.
for generic in "" 1; do
    TWOFACE_FORCE_GENERIC=$generic go test -race -count=10 \
        -run '^(TestExecRowMixesMatchReference|TestLiveAndStagedSinksBitIdentical|TestSyncRowsMatchChainedAxpy|TestSDDMMBitIdenticalToReference|TestMulticastViewMatchesCopy|TestMulticastViewMatchesCopyUnderFaults)$' ./internal/core
    TWOFACE_FORCE_GENERIC=$generic go test -race -count=10 \
        -run '^(TestMulticastPull|TestMulticastPullThroughDecoratorCopies|TestMemTransportViewRefusals)$' ./internal/cluster
    TWOFACE_FORCE_GENERIC=$generic go test -race -count=10 \
        -run '^TestInstrumentationOffBitIdentical$' .
done

echo "== SDDMM end to end (attention example: exits non-zero unless SDDMM matches the reference)"
go run ./examples/attention

echo "== kernel benchmark smoke (1 iteration each)"
go test -run '^$' \
    -bench '^BenchmarkKernel(Axpy|AxpyVariants|AsyncStripeAccumulate|PanelMultiply|PanelVariants)$' \
    -benchtime 1x .

echo "== harness benchmark smoke (1 iteration each, scale 0.02)"
# The table/figure and ablation benches drive the experiment harness's API;
# one small iteration keeps them running, not only compiling.
TWOFACE_BENCH_SCALE=0.02 go test -run '^$' \
    -bench '^Benchmark(Table1_Matrices|Figure8_K128|Figure12_Sensitivity|Ablation_)' \
    -benchtime 1x .

echo "== transport benchmark smoke (1 iteration each)"
go test -run '^$' -bench '^BenchmarkGetRoundTrip$' -benchtime 1x ./internal/transport/tcp

echo "== set-up benchmark smoke (1 iteration each)"
go test -run '^$' -bench '^Benchmark(Preprocess|ReadPrep)$' -benchtime 1x ./internal/core

echo "== observability smoke (trace + report on a small run)"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go run ./cmd/twoface-run -matrix web -scale 0.05 -algo twoface -verify=false \
    -trace -trace-out "$tmp/run.trace.json" -report "$tmp/run.json" >/dev/null
grep -q '"traceEvents"' "$tmp/run.trace.json"
grep -q '"go_version"' "$tmp/run.json"
grep -q '"modeled_seconds"' "$tmp/run.json"

echo "== reproduction reference (results_reference.txt regenerates byte for byte)"
# The paper's tables and figures as this code reproduces them. Line 1 of the
# file is the command that wrote the rest; ~100 s and ~3 GB peak RSS.
go build -o "$tmp/twoface-bench" ./cmd/twoface-bench
"$tmp/twoface-bench" -exp all -scale 0.25 >"$tmp/reference.txt"
tail -n +2 results_reference.txt | diff - "$tmp/reference.txt" || {
    echo "results_reference.txt no longer reproduces (diff above: file vs this build)" >&2
    exit 1
}

echo "== live ops smoke (-listen endpoint scrapeable during a run)"
go build -o "$tmp/twoface-run" ./cmd/twoface-run
# -explain asserts the attribution equals the ledger bit for bit, which holds
# only when each rank's charges are added in one order: one worker per queue.
"$tmp/twoface-run" -matrix web -scale 0.1 -algo twoface -K 128 \
    -sync-workers 1 -async-workers 1 \
    -listen 127.0.0.1:0 -explain -report "$tmp/live.json" >"$tmp/live.out" &
live_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's|^ops endpoint: http://\([^ ]*\) .*|\1|p' "$tmp/live.out")
    [ -n "$addr" ] && break
    sleep 0.05
done
if [ -z "$addr" ]; then
    echo "ops endpoint never announced its address" >&2
    kill "$live_pid" 2>/dev/null || true
    exit 1
fi
# Scrape while the run is (probably) still alive; the exposition must be
# well-formed OpenMetrics whenever we catch it.
curl -sf "http://$addr/metrics" >"$tmp/metrics.out" || true
curl -sf "http://$addr/healthz" >"$tmp/healthz.out" || true
wait "$live_pid"
if [ -s "$tmp/metrics.out" ]; then
    grep -q '^# EOF$' "$tmp/metrics.out"
fi
if [ -s "$tmp/healthz.out" ]; then
    grep -q '^ok ' "$tmp/healthz.out"
fi
# The -explain attribution printed and reconciled (the CLI fails otherwise).
grep -q '^critical path: rank ' "$tmp/live.out"
grep -q '"critical_path"' "$tmp/live.json"

echo "== report compare soft gate (same config twice => no modeled regressions)"
"$tmp/twoface-run" -matrix web -scale 0.1 -algo twoface -K 128 \
    -sync-workers 1 -async-workers 1 -report "$tmp/base.json" >/dev/null
go run ./cmd/twoface-bench -compare-report "$tmp/base.json,$tmp/live.json" \
    >"$tmp/compare.out" || true
cat "$tmp/compare.out"
# Identical configs on a deterministic simulator: modeled metrics must not
# regress. Wall-clock rows jitter freely and are thresholded generously, so
# this stays a soft signal unless a modeled row regresses.
if go run ./cmd/twoface-bench -compare-report "$tmp/base.json,$tmp/live.json" \
    -compare-fail >/dev/null 2>&1; then
    :
else
    echo "note: compare gate saw regressions between identical-config runs (see above)" >&2
fi

echo "== chaos smoke (seeded fault injection, bit-exact degradation)"
go run -race ./cmd/twoface-run -matrix web -scale 0.05 -algo twoface \
    -chaos-seed 7 >"$tmp/chaos.out"
grep -Eq 'chaos: (bit-exact with|matches) the fault-free run' "$tmp/chaos.out"

echo "== crash-recovery smoke (checkpointed fail-recover, twin bit-exactness)"
# A mid-run crash with -recover must complete without aborting, re-execute
# the dead rank's work on the survivors, keep C bit-identical to the
# fault-free twin, and -explain must still reconcile the makespan with the
# checkpoint/recovery charges included (the CLI exits non-zero otherwise).
cat >"$tmp/crash.json" <<'EOF'
{"seed": 7, "crashes": [{"rank": 1, "at": 3e-6}]}
EOF
# Pinned workers for the same reason as the live ops smoke's -explain.
go run -race ./cmd/twoface-run -matrix web -scale 0.05 -algo twoface -K 64 \
    -fault-plan "$tmp/crash.json" -recover -checkpoint-interval 1e-6 \
    -sync-workers 1 -async-workers 1 -explain >"$tmp/crash.out"
grep -q 'chaos: recovered 1 crashed rank' "$tmp/crash.out"
grep -Eq 'chaos: (bit-exact with|matches) the fault-free run' "$tmp/crash.out"
grep -q '^critical path: rank ' "$tmp/crash.out"

echo "== multicast-leg chaos smoke (delayed legs under pipelining, -race)"
# A delayed multicast leg must stall only the panels that need the afflicted
# stripe: the run completes, verifies, and matches its fault-free twin.
cat >"$tmp/legs.json" <<'EOF'
{"seed": 1, "legs": [{"origin": -1, "root": -1, "prob": 0.5, "fails": 1, "delay": 1e-4}]}
EOF
go run -race ./cmd/twoface-run -matrix web -scale 0.05 -algo twoface \
    -fault-plan "$tmp/legs.json" >"$tmp/chaos_legs.out"
grep -Eq 'chaos: (bit-exact with|matches) the fault-free run' "$tmp/chaos_legs.out"

echo "== two-process TCP smoke (real sockets, C bit-identical to the simulator)"
# Two OS processes, one rank each, rendezvous on 127.0.0.1. Single-worker
# execution pins the accumulation order, so the gathered C must be
# bit-for-bit the simulator's C — any drift means the transport moved
# wrong data. Both ranks must exit 0 (clean shutdown, no hung barrier).
"$tmp/twoface-run" -matrix web -scale 0.1 -algo twoface -K 64 -p 2 \
    -sync-workers 1 -async-workers 1 -write-c "$tmp/c_sim.bin" \
    >"$tmp/tcp_sim.out"
"$tmp/twoface-run" -matrix web -scale 0.1 -algo twoface -K 64 -p 2 \
    -sync-workers 1 -async-workers 1 -rank 0 -rendezvous "$tmp/rv" \
    -write-c "$tmp/c_tcp.bin" >"$tmp/tcp_rank0.out" &
rank0_pid=$!
"$tmp/twoface-run" -matrix web -scale 0.1 -algo twoface -K 64 -p 2 \
    -sync-workers 1 -async-workers 1 -rank 1 -rendezvous "$tmp/rv" &
rank1_pid=$!
wait "$rank0_pid"
wait "$rank1_pid"
grep -q 'multi-process TCP' "$tmp/tcp_rank0.out"
grep -q 'verified against the reference kernel' "$tmp/tcp_rank0.out"
grep -q '^measured time: ' "$tmp/tcp_rank0.out"
cmp "$tmp/c_tcp.bin" "$tmp/c_sim.bin" || {
    echo "TCP-backend C differs from the simulator's C" >&2
    exit 1
}

echo "== serve smoke (resident-plan daemon: multiply, coalesce, metrics, drain)"
go build -o "$tmp/twoface-serve" ./cmd/twoface-serve
# Both kernel-dispatch modes: SIMD (default) and the forced-generic loops.
for genflag in "" "-force-generic"; do
    "$tmp/twoface-serve" -plans web:0.05 -K 32 -p 4 -listen 127.0.0.1:0 \
        -allow-hold $genflag >"$tmp/serve.out" 2>&1 &
    serve_pid=$!
    saddr=""
    for _ in $(seq 1 200); do
        saddr=$(sed -n 's|^serving on http://\([^ ]*\) .*|\1|p' "$tmp/serve.out")
        [ -n "$saddr" ] && break
        sleep 0.05
    done
    if [ -z "$saddr" ]; then
        echo "serve daemon never announced its address" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    # One multiply over plain HTTP answers with a result checksum.
    curl -sf -X POST "http://$saddr/v1/multiply" -H 'Content-Type: application/json' \
        -d '{"plan":"web","seed":1}' | grep -q '"checksum":'
    # Two identical concurrent requests: a leader held in flight for 500 ms
    # (-allow-hold) and, inside that window, a duplicate that must ride it.
    curl -s -o "$tmp/lead.json" -w '%{http_code}' -X POST "http://$saddr/v1/multiply" \
        -H 'Content-Type: application/json' \
        -d '{"plan":"web","seed":12345,"hold_ms":500}' >"$tmp/lead.code" &
    lead_pid=$!
    sleep 0.15
    follow_code=$(curl -s -o "$tmp/follow.json" -w '%{http_code}' -X POST \
        "http://$saddr/v1/multiply" -H 'Content-Type: application/json' \
        -d '{"plan":"web","seed":12345}') || true
    wait "$lead_pid" || true
    lead_code=$(cat "$tmp/lead.code")
    if [ "$lead_code" != 200 ] || [ "$follow_code" != 200 ] ||
        ! grep -q '"coalesced":false' "$tmp/lead.json" ||
        ! grep -q '"coalesced":true' "$tmp/follow.json"; then
        echo "coalesce probe: leader HTTP $lead_code, follower HTTP $follow_code;" \
            "want 200 each, the leader executed and the duplicate coalesced" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    curl -sf "http://$saddr/metrics" >"$tmp/serve_metrics.out"
    grep -q '^# EOF$' "$tmp/serve_metrics.out"
    coalesced=$(sed -n 's/^serve_coalesced_total \([0-9]*\)$/\1/p' "$tmp/serve_metrics.out")
    if [ -z "$coalesced" ] || [ "$coalesced" -lt 1 ]; then
        echo "metrics show no coalesced request (serve_coalesced_total=$coalesced)" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    # The outcome counters partition the admitted traffic exactly.
    awk '
        /^serve_requests_total /  { req = $2 }
        /^serve_completed_total / { done += $2 }
        /^serve_shed_total /      { done += $2 }
        /^serve_drained_total /   { done += $2 }
        /^serve_failed_total /    { done += $2 }
        END { exit !(req == done) }
    ' "$tmp/serve_metrics.out" || {
        echo "serve outcome counters do not sum to serve_requests_total" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    }
    # SIGTERM drains and exits cleanly (non-zero exit fails the gate).
    kill -TERM "$serve_pid"
    wait "$serve_pid"
    grep -q 'drained; exiting cleanly' "$tmp/serve.out"
done

echo "== check.sh: all green"
