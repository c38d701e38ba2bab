#!/usr/bin/env bash
# Diff two run reports benchstat-style: which metrics
# moved past their noise thresholds, which phase moved the makespan, whether
# the configs are even comparable. Wraps twoface-bench -compare-report.
#
#   scripts/compare.sh old.json new.json          # print the diff, exit 0
#   scripts/compare.sh -fail old.json new.json    # exit 1 on any regression
#
# Each file is a -report output (twoface-run or twoface-bench).
set -euo pipefail
cd "$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"

fail=""
if [ "${1:-}" = "-fail" ]; then
    fail="-compare-fail"
    shift
fi
if [ $# -ne 2 ]; then
    echo "usage: scripts/compare.sh [-fail] OLD.json NEW.json" >&2
    exit 2
fi

go run ./cmd/twoface-bench -compare-report "$1,$2" $fail
