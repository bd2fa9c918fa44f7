#!/usr/bin/env bash
#
# Rebuild the perf harness in Release mode and regenerate the
# committed benchmark results (BENCH_PR24.json) reproducibly:
#
#   scripts/bench.sh                     # portable codegen
#   scripts/bench.sh --quick             # fewer repetitions
#   PAD_NATIVE=ON scripts/bench.sh       # tune for this machine
#   BENCH_OUT=my.json scripts/bench.sh
#
# Benchmark numbers are only meaningful from Release binaries (O3 +
# LTO, no sanitizers); the default developer build is RelWithDebInfo,
# which is why this script maintains its own build tree.

set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-rel}
BENCH_OUT=${BENCH_OUT:-BENCH_PR24.json}
PAD_NATIVE=${PAD_NATIVE:-OFF}
JOBS=${JOBS:-$(nproc)}

# Extra flags (e.g. --quick) pass straight through to perfbench.

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=Release \
    -DPAD_NATIVE="$PAD_NATIVE" >/dev/null
cmake --build "$BUILD_DIR" --target perfbench padtrace -j "$JOBS"

"$BUILD_DIR/bench/perfbench" "$@" --json "$BENCH_OUT" \
    | tee "$BENCH_OUT.txt"
echo "benchmark results written to $BENCH_OUT"

# Engine rows at a glance. The bars that matter: alert_eval
# stays in the tens of ns per sample, single_run_alerts stays
# within ~10% of single_run_telemetry (the fair baseline — enabling
# alerts also turns the telemetry hub on), and single_run_push — the
# same run plus a full end-of-run export through the pad-rw-v1 push
# pipeline to an in-process receiver (DESIGN.md §14) — prices the
# whole export envelope, not just the snapshot.
echo
echo "engine and alert rows:"
grep -A 6 -E '^(fine_tick|alert_eval|single_run|single_run_telemetry|single_run_alerts|single_run_profiled|single_run_push)$' \
    "$BENCH_OUT.txt" || echo "  (no engine rows in perfbench output?)"
rm -f "$BENCH_OUT.txt"

# Per-phase engine breakdown from the profiled row (schema v3), and
# the profiling-overhead check: single_run_profiled should stay
# within ~5% of single_run.
PADTRACE="$BUILD_DIR/examples/padtrace"
if [ -x "$PADTRACE" ]; then
    echo
    "$PADTRACE" perf "$BENCH_OUT"
else
    echo "(padtrace not built; skip phase table)"
fi
