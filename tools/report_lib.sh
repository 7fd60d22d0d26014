# shellcheck shell=bash
# Readers for cgraph_cli --report-json documents, sourced by run_bench.sh and
# fault_smoke.sh. Every gate input is read through field(), so a gate cannot pass on a
# value the CLI stopped writing.

fail() { echo "FAIL: $*" >&2; exit 1; }

# field [JQ_OPTIONS...] FILTER FILE...: prints FILTER's result; fails when the result is
# missing or null. jq -e also fails on false, so read a boolean as '.x | tostring' and
# compare the text.
field() {
  jq -e "$@" || {
    echo "error: missing or null report field: jq $*" >&2
    return 1
  }
}

# The schedule-invariant compute columns of every report row, for comparing a recovered
# run with a fault-free one (docs/robustness.md).
# Used by the scripts that source this file:
# shellcheck disable=SC2034
COMPUTE_COLUMNS='[.jobs[], .total] | map({executor, job, iterations, vertex_computes,
  edge_traversals, push_updates, compute_units})'

# holds EXPR: whether a jq expression over numbers already read by field() is true.
holds() { [ "$(jq -n "$1")" = true ]; }
