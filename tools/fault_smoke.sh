#!/usr/bin/env bash
# Fault-injection recovery smoke (docs/robustness.md), shared by run_bench.sh SMOKE=1
# and the sanitizer CI jobs: inject a mid-run per-job fault, recover the job from its
# checkpoint, and require the recovered run to be equivalent to a fault-free run —
#
#   (1) the process survives the fault (per-job failure isolation, no abort);
#   (2) the recovered run's schedule-invariant compute columns (COMPUTE_COLUMNS in
#       report_lib.sh) equal the clean run's. The charge columns are excluded by
#       design: they couple through the shared cache simulation, whose history
#       extends through the failed attempt;
#   (3) the converged values of every job — min-accumulator programs only, so
#       equality is exact — are byte-identical to the clean run's;
#   (4) checkpointing at the documented K=8 cadence costs at most 5% of the run's
#       modeled time (checkpoint_overhead_ratio, modeled analytically from
#       checkpoint_bytes — checkpoints add no hierarchy charge).
#
# Usage: tools/fault_smoke.sh [BUILD_DIR] (default: build); needs jq.

set -euo pipefail
shopt -s inherit_errexit
cd "$(dirname "$0")/.."
# shellcheck source=tools/report_lib.sh
. tools/report_lib.sh

BUILD_DIR=${1:-build}
CLI="$BUILD_DIR/tools/cgraph_cli"

# The min-accumulator mix on the bench service graph; trigger@60 lands mid-flight for
# job 1 (wcc, ~6 iterations), after its first --checkpoint-every=2 boundary.
RMAT="12,8"
JOBS="sssp,wcc,bfs"
PARTITIONS=16
FAULT="trigger@60:1"
CHECKPOINT_EVERY=2

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

run() {  # $1 = report name, $2... = extra flags
  "$CLI" --rmat="$RMAT" --jobs="$JOBS" --partitions="$PARTITIONS" \
    --report-json="$TMP/$1.json" "${@:2}" >/dev/null
}

run clean --values-out="$TMP/clean.values"
run fault --checkpoint-every="$CHECKPOINT_EVERY" --inject-fault="$FAULT" \
  --values-out="$TMP/fault.values"
INJECTED=$(field .robustness.injected "$TMP/fault.json")
RECOVERIES=$(field .robustness.recoveries "$TMP/fault.json")
UNRECOVERED=$(field .robustness.unrecovered "$TMP/fault.json")
echo "fault smoke: injected=$INJECTED recoveries=$RECOVERIES unrecovered=$UNRECOVERED"
holds "$INJECTED == 1 and $RECOVERIES == 1 and $UNRECOVERED == 0" ||
  fail "expected exactly one injected fault, one recovery, nothing unrecovered"

CLEAN_COLUMNS=$(field -c "$COMPUTE_COLUMNS" "$TMP/clean.json")
FAULT_COLUMNS=$(field -c "$COMPUTE_COLUMNS" "$TMP/fault.json")
if [ "$CLEAN_COLUMNS" != "$FAULT_COLUMNS" ]; then
  diff <(jq . <<<"$CLEAN_COLUMNS") <(jq . <<<"$FAULT_COLUMNS") >&2 || true
  fail "recovered run's compute columns differ from the fault-free run"
fi
cmp -s "$TMP/clean.values" "$TMP/fault.values" ||
  fail "recovered run's converged values differ from the fault-free run"
echo "OK: fault injected, job recovered from its checkpoint, results byte-identical"

run k8 --checkpoint-every=8
OVERHEAD=$(field .robustness.checkpoint_overhead_ratio "$TMP/k8.json")
echo "fault smoke: checkpoint_overhead_ratio=$OVERHEAD at --checkpoint-every=8"
holds "$OVERHEAD <= 0.05" ||
  fail "checkpoint overhead ratio $OVERHEAD exceeds 0.05 at --checkpoint-every=8"
echo "OK: checkpoint overhead within 5% of modeled time"
