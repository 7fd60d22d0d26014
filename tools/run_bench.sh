#!/usr/bin/env bash
# Runs fixed concurrent-jobs LTP workloads through cgraph_cli and writes BENCH_ltp.json,
# the throughput record tracked across changes. Every number is read with jq from a
# cgraph_cli --report-json document, and one jq -n assembles the record. Each section
# writes its own scratch reports, so none can overwrite another's. Wall-clock fields
# vary by machine; every other field is modeled: exact and machine-independent.
#
#   headline    4 jobs up front + 2 online arrivals, RUNS_PER_POINT runs per worker count:
#               runs[] holds each point's min/median/max wall, wall_seconds the best
#               point's median (best_workers), the modeled columns the last run's.
#   admission   fifo vs overlap on a staggered-arrival mix sharing 2 slots (docs/scheduling.md)
#   service     a 1000-request bursty daemon replay, median-wall run (docs/service.md)
#   robustness  a checkpoint-recovered fault vs a fault-free run; K=8 overhead (docs/robustness.md)
#   execution   bsp vs async on the monotonic mix, and an async replay (docs/execution_modes.md)
#   partition   every partitioner's quality indices on the headline graph (docs/partitioning.md)
#
# Usage: tools/run_bench.sh [BUILD_DIR] (default: build/release-all, configured on demand);
#        needs jq.
# Env:   OUT=path/to/record.json   override the output path (default: BENCH_ltp.json)
#        SMOKE=1                   skip the record; run the six CI gates (1)-(6) below

set -euo pipefail
shopt -s inherit_errexit
cd "$(dirname "$0")/.."
# shellcheck source=tools/report_lib.sh
. tools/report_lib.sh

BUILD_DIR=${1:-build/release-all}
OUT=${OUT:-BENCH_ltp.json}
CLI=$BUILD_DIR/tools/cgraph_cli

# Headline workload: big enough for a stable wall-clock signal, small enough for CI.
RMAT="14,16,7" JOBS="pagerank,sssp,wcc,bfs" ARRIVALS="kcore@200,ppr@400" PARTITIONS=32
WORKERS_SWEEP="1 4" RUNS_PER_POINT=3

# Admission workload: two full-coverage jobs hold both slots while a staggered queue
# builds up. Traversals root at the default (lowest positive out-degree) source, so
# their footprints stay localized and the overlap policy has real reordering room.
ADM_RMAT="12,8" ADM_JOBS="pagerank,wcc" ADM_PARTITIONS=32 ADM_MAX_JOBS=2
ADM_ARRIVALS="bfs@5,sssp@10,wcc@15,bfs@20,sssp@25,wcc@30"

# Service workload: a small source pool, so identical queries recur while earlier ones
# are still in flight and the fan-in path gets real coverage.
SVC_RMAT="12,8" SVC_JOBS="pagerank,sssp,wcc,bfs" SVC_PARTITIONS=16 SVC_QUEUE_BOUND=64
SVC_TRACE_JOBS=1000 SVC_PATTERN=bursty SVC_BURST=32 SVC_GAP=2 SVC_SOURCES=8 SVC_SEED=42

# Execution-mode workload on the headline graph; async accepts monotonic programs only.
EXEC_JOBS="sssp,wcc,kcore" EXEC_PARTITIONS=32 EXEC_STALENESS=1
EXEC_SVC_JOBS="sssp,wcc,bfs,kcore"

# Robustness workload: the tools/fault_smoke.sh scenario on the service graph.
ROB_JOBS="sssp,wcc,bfs" ROB_FAULT="trigger@60:1" ROB_CHECKPOINT_EVERY=2

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
# Always refresh the CLI: an existing binary may predate flags this script uses.
cmake --build "$BUILD_DIR" -j --target cgraph_cli >/dev/null

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

# Runners take the report name first: NAME writes $TMP/NAME.json.
cli() {  # $1 = report name, $2... = flags
  "$CLI" "${@:2}" --report-json="$TMP/$1.json" >/dev/null
}
headline() {  # $1 = report name, $2 = workers, $3... = extra flags
  cli "$1" --rmat="$RMAT" --jobs="$JOBS" --arrivals="$ARRIVALS" \
    --partitions="$PARTITIONS" --workers="$2" "${@:3}"
}
admission() {  # $1 = report name, $2 = policy, $3 = workers
  cli "$1" --rmat="$ADM_RMAT" --jobs="$ADM_JOBS" --arrivals="$ADM_ARRIVALS" \
    --partitions="$ADM_PARTITIONS" --max-jobs="$ADM_MAX_JOBS" --admission="$2" \
    --workers="$3"
}
service() {  # $1 = report name, $2 = workers, $3... = extra flags
  cli "$1" --serve --rmat="$SVC_RMAT" --jobs="$SVC_JOBS" \
    --trace-jobs="$SVC_TRACE_JOBS" --trace-pattern="$SVC_PATTERN" \
    --trace-burst="$SVC_BURST" --trace-gap="$SVC_GAP" --trace-sources="$SVC_SOURCES" \
    --trace-seed="$SVC_SEED" --partitions="$SVC_PARTITIONS" \
    --queue-bound="$SVC_QUEUE_BOUND" --workers="$2" "${@:3}"
}
execution() {  # $1 = report name, $2 = workers, $3... = extra flags
  cli "$1" --rmat="$RMAT" --jobs="$EXEC_JOBS" --partitions="$EXEC_PARTITIONS" \
    --workers="$2" "${@:3}"
}
robustness() {  # $1 = report name, $2... = extra flags
  cli "$1" --rmat="$SVC_RMAT" --jobs="$ROB_JOBS" --partitions="$SVC_PARTITIONS" "${@:2}"
}
# repeat NAME WALL RUNNER ARGS...: RUNS_PER_POINT runs, reports NAME_1 ... NAME_N, and
# NAME.json is the run with the median WALL (a jq path every report must have).
repeat() {
  local i
  for i in $(seq "$RUNS_PER_POINT"); do
    "$3" "$1_$i" "${@:4}"
  done
  field -s "select(all(.[]; $2 | type == \"number\")) | sort_by($2) | .[length / 2 | floor]" \
    "$TMP/$1"_[0-9]*.json > "$TMP/$1.json"
}
# Every --report-json row field except the wall clock.
NO_WALL='[.jobs[], .total] | map(del(.wall_seconds))'

if [ "${SMOKE:-0}" = "1" ]; then
  # (1) Overlap admission must reduce mean wait steps vs fifo; fifo never scores an
  # admission, and overlap must score the contended ones. Modeled, so one run each.
  admission fifo fifo 1
  admission overlap overlap 1
  FIFO_MEAN=$(field .admission.mean_wait_steps "$TMP/fifo.json")
  FIFO_SCORED=$(field .admission.scored_jobs "$TMP/fifo.json")
  OV_MEAN=$(field .admission.mean_wait_steps "$TMP/overlap.json")
  OV_SCORED=$(field .admission.scored_jobs "$TMP/overlap.json")
  holds "$OV_MEAN < $FIFO_MEAN" ||
    fail "overlap admission no longer reduces mean wait steps vs fifo ($FIFO_MEAN -> $OV_MEAN)"
  holds "$FIFO_SCORED == 0 and $OV_SCORED > 0" ||
    fail "scored-admission counts are wrong (fifo=$FIFO_SCORED overlap=$OV_SCORED)"
  echo "OK: overlap reduces mean wait steps ($FIFO_MEAN -> $OV_MEAN, workers=1)"

  # (2) The workers=4 median wall must stay within 5% of workers=1: enough for CI wall
  # noise, too little for an oversubscription regression (historically ~4% at workers=4
  # on single-core runners) to slip through.
  repeat w1 .total.wall_seconds headline 1
  repeat w4 .total.wall_seconds headline 4
  SCALE_W1=$(field .total.wall_seconds "$TMP/w1.json")
  SCALE_W4=$(field .total.wall_seconds "$TMP/w4.json")
  holds "$SCALE_W4 <= $SCALE_W1 * 1.05" ||
    fail "workers=4 median wall ($SCALE_W4 s) exceeds workers=1 ($SCALE_W1 s) by >5%"
  echo "OK: workers=4 keeps pace with workers=1 (${SCALE_W1}s -> ${SCALE_W4}s)"

  # (3) A repeated-query daemon trace must coalesce, and completed + shed + failed must
  # equal requests, the daemon's accounting invariant (docs/robustness.md).
  service svc 1
  SVC_TOTAL=$(field .service.requests "$TMP/svc.json")
  SVC_DONE=$(field .service.completed "$TMP/svc.json")
  SVC_SHED=$(field .service.shed "$TMP/svc.json")
  SVC_FAILED=$(field .service.failed "$TMP/svc.json")
  SVC_DEDUP=$(field .service.dedup_ratio "$TMP/svc.json")
  holds "$SVC_DEDUP > 0" ||
    fail "service daemon coalesced nothing on a repeated-query trace"
  holds "$SVC_DONE + $SVC_SHED + $SVC_FAILED == $SVC_TOTAL" ||
    fail "service requests unaccounted for"
  echo "OK: service daemon coalesces (dedup_ratio=$SVC_DEDUP) and accounts for all" \
       "$SVC_TOTAL requests ($SVC_DONE completed, $SVC_SHED shed, $SVC_FAILED failed)"

  # (4) Async must spend fewer modeled compute units than bsp on the monotonic mix.
  execution bsp 1
  execution async 1 --execution=async --staleness="$EXEC_STALENESS"
  BSP_CU=$(field .total.compute_units "$TMP/bsp.json")
  AS_CU=$(field .total.compute_units "$TMP/async.json")
  holds "$AS_CU < $BSP_CU" ||
    fail "async execution no longer reduces compute units (bsp=$BSP_CU async=$AS_CU)"
  echo "OK: async reduces compute units ($BSP_CU -> $AS_CU)"

  tools/fault_smoke.sh "$BUILD_DIR"  # (5) Fault recovery and checkpoint overhead.

  # (6) The default layout must equal an explicit --partitioner=even_edge run on every
  # job row except wall time, and greedy must beat even_edge on replication factor.
  headline default 1
  headline even_edge 1 --partitioner=even_edge
  cli greedy --rmat="$RMAT" --jobs=bfs --partitions="$PARTITIONS" --partitioner=greedy
  DEFAULT_ROWS=$(field -c "$NO_WALL" "$TMP/default.json")
  EVEN_EDGE_ROWS=$(field -c "$NO_WALL" "$TMP/even_edge.json")
  [ "$DEFAULT_ROWS" = "$EVEN_EDGE_ROWS" ] ||
    fail "--partitioner=even_edge is not identical to the default layout"
  EE_RF=$(field .partition.replication_factor "$TMP/default.json")
  GR_RF=$(field .partition.replication_factor "$TMP/greedy.json")
  holds "$GR_RF < $EE_RF" ||
    fail "greedy no longer beats even_edge on replication factor ($EE_RF -> $GR_RF)"
  echo "OK: default layout is identical to even_edge; greedy replicates less" \
       "($EE_RF -> $GR_RF)"
  exit 0
fi

# Headline sweep, then its guards: every run reports the configured job count and the
# same modeled totals (the counters; the modeled times follow from them and workers).
for W in $WORKERS_SWEEP; do
  repeat "w$W" .total.wall_seconds headline "$W"
  field -s '{workers: .[0].workers} + (map(.total.wall_seconds)
    | select(all(type == "number")) | sort | {wall_seconds_min: .[0],
      wall_seconds_median: .[length / 2 | floor], wall_seconds_max: .[-1]})' \
    "$TMP/w$W"_[0-9]*.json >> "$TMP/points"
done
cp "$TMP/w${W}_$RUNS_PER_POINT.json" "$TMP/head.json"
IFS=, read -ra CONFIGURED <<<"$JOBS,$ARRIVALS"
CONFIGURED_JOBS=${#CONFIGURED[@]}
HEADLINE_JOBS=$(field -sc 'map(.jobs | length) | unique' "$TMP"/w*_[0-9]*.json)
[ "$HEADLINE_JOBS" = "[$CONFIGURED_JOBS]" ] ||
  fail "headline reports have $HEADLINE_JOBS jobs, configured $CONFIGURED_JOBS"
TOTALS=$(field -s 'map(.total | del(.wall_seconds, .modeled_compute, .modeled_access,
  .modeled_time)) | unique | length' "$TMP"/w*_[0-9]*.json)
[ "$TOTALS" = 1 ] || fail "headline sweep runs report $TOTALS different modeled totals"

admission fifo fifo 4
admission overlap overlap 4
repeat svc .service.wall_seconds service 4

# The recovered run is compared with a fault-free one on the schedule-invariant compute
# columns and on the converged values (see tools/fault_smoke.sh).
robustness rob_clean --values-out="$TMP/clean.values"
robustness rob_fault --checkpoint-every="$ROB_CHECKPOINT_EVERY" \
  --inject-fault="$ROB_FAULT" --values-out="$TMP/fault.values"
robustness rob_k8 --checkpoint-every=8
CLEAN_COLUMNS=$(field -c "$COMPUTE_COLUMNS" "$TMP/rob_clean.json")
FAULT_COLUMNS=$(field -c "$COMPUTE_COLUMNS" "$TMP/rob_fault.json")
COLUMNS_MATCH=false
[ "$CLEAN_COLUMNS" = "$FAULT_COLUMNS" ] && COLUMNS_MATCH=true
VALUES_MATCH=false
cmp -s "$TMP/clean.values" "$TMP/fault.values" && VALUES_MATCH=true

repeat bsp .total.wall_seconds execution 4
repeat async .total.wall_seconds execution 4 --execution=async --staleness="$EXEC_STALENESS"
repeat async_svc .service.wall_seconds service 4 --jobs="$EXEC_SVC_JOBS" --execution=async \
  --staleness="$EXEC_STALENESS"

for P in even_edge hash_source greedy degree; do
  cli "part_$P" --rmat="$RMAT" --jobs=bfs --partitions="$PARTITIONS" --partitioner="$P"
done

# config KEY=VALUE...: a section's settings as a JSON object; numbers stay numbers.
config() {
  jq -cn '$ARGS.positional | map(capture("(?<k>[^=]*)=(?<v>.*)") | {(.k): (.v | tonumber? // .)})
    | add' --args "$@"
}
HEAD_CONFIG=$(config rmat="$RMAT" jobs="$JOBS" arrivals="$ARRIVALS" partitions="$PARTITIONS" \
  workers_sweep="$WORKERS_SWEEP" runs_per_point="$RUNS_PER_POINT")
ADM_CONFIG=$(config rmat="$ADM_RMAT" source=low-degree-default jobs="$ADM_JOBS" \
  arrivals="$ADM_ARRIVALS" partitions="$ADM_PARTITIONS" max_jobs="$ADM_MAX_JOBS" workers=4)
SVC_CONFIG=$(config rmat="$SVC_RMAT" jobs="$SVC_JOBS" trace_jobs="$SVC_TRACE_JOBS" \
  pattern="$SVC_PATTERN" burst="$SVC_BURST" gap="$SVC_GAP" sources="$SVC_SOURCES" \
  seed="$SVC_SEED" partitions="$SVC_PARTITIONS" queue_bound="$SVC_QUEUE_BOUND" workers=4)
ROB_CONFIG=$(config rmat="$SVC_RMAT" jobs="$ROB_JOBS" partitions="$SVC_PARTITIONS" \
  fault="$ROB_FAULT" checkpoint_every="$ROB_CHECKPOINT_EVERY")
EXEC_CONFIG=$(config rmat="$RMAT" jobs="$EXEC_JOBS" partitions="$EXEC_PARTITIONS" workers=4 \
  staleness="$EXEC_STALENESS" runs_per_point="$RUNS_PER_POINT")

# One jq -n over the reports, each bound by its name: $r.head is $TMP/head.json.
jq -n --slurpfile points "$TMP/points" --argjson columns_match "$COLUMNS_MATCH" \
  --argjson values_match "$VALUES_MATCH" --argjson head_config "$HEAD_CONFIG" \
  --argjson adm_config "$ADM_CONFIG" --argjson svc_config "$SVC_CONFIG" \
  --argjson rob_config "$ROB_CONFIG" --argjson exec_config "$EXEC_CONFIG" \
  --arg exec_svc_jobs "$EXEC_SVC_JOBS" '
  reduce inputs as $doc ({}; .[input_filename | split("/")[-1] | rtrimstr(".json")] = $doc)
  | . as $r
  | ($r.head.jobs | length) as $n
  | ($points | min_by(.wall_seconds_median)) as $best
  | def rate($d; $time): if $time > 0 then ($d.jobs | length) / $time else 0 end;
    def policy($d): $d.admission | {mean_wait_steps, max_wait_steps, scored_jobs,
      mean_admit_overlap_scored: .mean_admit_overlap, wall_seconds: $d.total.wall_seconds,
      jobs_per_second_wall: rate($d; $d.total.wall_seconds)};
    def mode($d): $d.total | {compute_units, push_updates, modeled_time,
      jobs_per_modeled_unit: rate($d; .modeled_time)};
    def wall($d): $d.total | {wall_seconds_median: .wall_seconds,
      jobs_per_second_wall: rate($d; .wall_seconds)};
    def quality($d): $d.partition | {edge_cut_fraction, replication_factor, mirror_count,
      edge_balance, vertex_balance};
  {bench: "ltp_throughput",
   config: $head_config,
   jobs_completed: $n,
   runs: ($points | map(. + {jobs_per_second_wall: ($n / .wall_seconds_median)})),
   best_workers: $best.workers,
   wall_seconds: $best.wall_seconds_median,
   jobs_per_second_wall: ($n / $best.wall_seconds_median),
   jobs_per_modeled_unit: rate($r.head; $r.head.total.modeled_time),
   total_compute_units: $r.head.total.compute_units,
   bytes_below_cache: ($r.head.total.mem_bytes + $r.head.total.disk_bytes),
   admission: {config: $adm_config, fifo: policy($r.fifo), overlap: policy($r.overlap)},
   service: ({config: $svc_config} + ($r.svc.service | {requests, completed, shed, coalesced,
       executed_jobs, dedup_ratio, p50_latency_steps, p95_latency_steps, p99_latency_steps,
       mean_latency_steps, final_step, wall_seconds, sustained_jobs_per_second})),
   robustness: ({config: $rob_config, injected_faults: $r.rob_fault.robustness.injected}
     + ($r.rob_fault.robustness | {recoveries, unrecovered, checkpoints, checkpoint_bytes})
     + {recovered_compute_columns_identical: $columns_match,
        recovered_values_identical: $values_match,
        checkpoint_overhead_ratio_k8: $r.rob_k8.robustness.checkpoint_overhead_ratio}),
   execution: {config: $exec_config, bsp: (mode($r.bsp) + wall($r.bsp)),
     async: (mode($r.async) + ($r.async.execution | {redrain_computes, deferred_pushes})
             + wall($r.async)),
     compute_units_ratio_async_over_bsp:
       ($r.async.total.compute_units / $r.bsp.total.compute_units),
     modeled_time_ratio_async_over_bsp:
       ($r.async.total.modeled_time / $r.bsp.total.modeled_time),
     async_service: ({jobs: $exec_svc_jobs}
       + ($r.async_svc.service | {completed, shed, p95_latency_steps,
           wall_seconds_median: .wall_seconds, sustained_jobs_per_second}))},
   partition: {config: ($head_config | {rmat, partitions}),
     quality: {even_edge: quality($r.part_even_edge),
               hash_source: quality($r.part_hash_source), greedy: quality($r.part_greedy),
               degree: quality($r.part_degree)}}}' \
  "$TMP"/{head,fifo,overlap,svc,rob_fault,rob_k8,bsp,async,async_svc}.json \
  "$TMP"/part_*.json > "$OUT"
field '[..] | all(. != null)' "$OUT" >/dev/null || fail "$OUT has missing or null fields"

echo "wrote $OUT"
