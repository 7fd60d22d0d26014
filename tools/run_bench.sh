#!/usr/bin/env bash
# Runs a fixed concurrent-jobs LTP workload through cgraph_cli and emits BENCH_ltp.json,
# a machine-readable throughput record for tracking the engine's perf trajectory across
# PRs. The workload mixes up-front jobs with online arrivals so the job-service admission
# path is part of what gets measured.
#
# Each worker-count point is run 3 times and the *median* wall clock is recorded (wall
# noise on shared CI machines easily exceeds the deltas being tracked), sweeping
# workers in {1, 4}. The headline jobs_per_second_wall / wall_seconds are the *best*
# sweep point (lowest median wall), with best_workers recording which point that was —
# the per-worker medians live in "runs", keyed by worker count, so the headline is an
# explicit aggregate rather than an alias of whichever point ran last. Modeled columns
# are identical across runs and worker counts by construction (asserted by the engine's
# tests), so they are taken from the last run.
#
# The record additionally carries an "admission" section comparing the fifo and overlap
# job-admission policies (docs/scheduling.md) on a staggered-arrival
# overlapping job mix with a constrained slot pool: per-policy mean/max wait steps
# (deterministic for a fixed workload), scored-admission overlap means (only contended
# decisions are scored; unscored jobs are excluded from the mean), wall seconds, and
# jobs/s — and a "service" section from a graph-service daemon replay (docs/service.md):
# a 1000-request bursty arrival trace driven through cgraph_cli --serve, recording
# p50/p95/p99/mean completion latency in scheduling steps (deterministic), the query
# fan-in dedup ratio, shed counts, and sustained completed-requests/s (wall). The replay
# runs 3 times and the median-wall run is recorded (the step/latency figures are
# identical across runs by construction).
#
# An "execution" section compares the bsp and async iteration models
# (docs/execution_modes.md) on the monotonic job mix: modeled compute units and push
# updates (exact, machine-independent), 3x-median walls and jobs/s, the async re-drain /
# deferred-push diagnostics, and an async service-daemon replay of a monotonic request
# mix.
#
# A "robustness" section (docs/robustness.md) records the fault-injection recovery
# story on the service graph: a mid-run injected trigger-stage fault recovered from an
# iteration-boundary checkpoint, with byte-identity of the recovered run's compute
# columns and converged values vs a fault-free run recorded as booleans, plus the
# injected/recovered counters and the modeled checkpoint overhead ratio at the
# documented K=8 cadence. All fields are modeled — exact and machine-independent.
#
# A "partition" section (docs/partitioning.md) records the build-time quality indices
# (edge-cut fraction, replication factor, mirror count, edge/vertex balance) of every
# edge-placement strategy on the headline graph. All fields are modeled — exact and
# machine-independent.
#
# Every section runs the CLI against its own scratch files, so no section can overwrite
# the headline workload's report; the script fails if the headline's job count differs
# from the configured $JOBS + $ARRIVALS.
#
# Usage: tools/run_bench.sh [BUILD_DIR] (default: build/release-all, configured on demand)
# Env:   OUT=path/to/record.json   override the output path (default: BENCH_ltp.json)
#        SMOKE=1                   skip the full sweep; run the deterministic CI gates:
#                                  (1) admission policy — overlap must reduce mean
#                                  wait steps vs fifo (modeled, exact); (2) multi-worker
#                                  scaling — the
#                                  workers=4 median wall must not exceed the workers=1
#                                  median by more than 5% (guards the oversubscription
#                                  regression where extra workers cost throughput);
#                                  (3) service fan-in — a repeated-query daemon trace
#                                  must report dedup_ratio > 0 and account for every
#                                  request; (4) execution mode — async must spend fewer
#                                  modeled compute units than bsp on the monotonic mix
#                                  (exact); (5) fault recovery — tools/fault_smoke.sh:
#                                  an injected per-job fault must recover from its
#                                  checkpoint with results byte-identical to a clean
#                                  run, and K=8 checkpointing must cost <= 5% of
#                                  modeled time; (6) partitioner — the default layout
#                                  must be byte-identical to an explicit
#                                  --partitioner=even_edge run (modeled CSV columns),
#                                  and greedy placement must strictly beat even_edge
#                                  on replication factor (exact)

set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${1:-build/release-all}
OUT=${OUT:-BENCH_ltp.json}

# Fixed workload: deterministic R-MAT graph, four heterogeneous jobs up front, two online
# arrivals. Big enough for a stable wall-clock signal, small enough for CI.
RMAT="14,16,7"
JOBS="pagerank,sssp,wcc,bfs"
ARRIVALS="kcore@200,ppr@400"
PARTITIONS=32
WORKERS_SWEEP="1 4"
RUNS_PER_POINT=3

# Admission-comparison workload: two full-coverage jobs hold both slots while a
# staggered queue of traversal and full-coverage jobs builds up, so the footprint-aware
# policy has real reordering room. Traversals root at the default source — deterministically the lowest-positive-
# out-degree vertex, so their footprints stay localized instead of replicating
# hub-style into every partition. Wait steps are a pure function of the modeled
# schedule: identical across runs, machines, and worker counts.
ADM_RMAT="12,8"
ADM_JOBS="pagerank,wcc"
ADM_ARRIVALS="bfs@5,sssp@10,wcc@15,bfs@20,sssp@25,wcc@30"
ADM_PARTITIONS=32
ADM_MAX_JOBS=2

# Service-daemon workload: a bursty 1000-request trace over a 4-program mix and a small
# source pool, so identical queries recur while earlier ones are still in flight and the
# query fan-in path gets real coverage. Latency percentiles are scheduling-step figures
# (deterministic); only wall seconds and sustained requests/s vary by machine.
SVC_RMAT="12,8"
SVC_JOBS="pagerank,sssp,wcc,bfs"
SVC_TRACE_JOBS=1000
SVC_PATTERN=bursty
SVC_BURST=32
SVC_GAP=2
SVC_SOURCES=8
SVC_SEED=42
SVC_PARTITIONS=16
SVC_QUEUE_BOUND=64

# Execution-mode workload: the monotonic mix on the headline graph
# (docs/execution_modes.md). Compute units and push updates are modeled and
# run-invariant; only walls need the median-of-3. The async service replay swaps the
# daemon's request mix for an all-monotonic one (the CLI rejects async requests for
# non-monotonic programs).
EXEC_JOBS="sssp,wcc,kcore"
EXEC_PARTITIONS=32
EXEC_STALENESS=1
EXEC_SVC_JOBS="sssp,wcc,bfs,kcore"

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
fi
# Always refresh the CLI: an existing binary may predate flags this script uses.
cmake --build "$BUILD_DIR" -j --target cgraph_cli >/dev/null

# Scratch files, one set per section: CSV is the headline workload's report and nothing
# else writes it.
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
CSV=$TMP/headline.csv
WALLS=$TMP/walls
ADMISSION=$TMP/admission.json
ADM_POINT=$TMP/admission.point
ADM_CSV=$TMP/admission.csv
SERVICE=$TMP/service.json
EXEC_CSV=$TMP/execution.csv

# CSV columns: executor,job,iterations,vertex_computes,edge_traversals,push_updates,
# compute_units,hit_bytes,mem_bytes,disk_bytes,modeled_compute,modeled_access,
# modeled_time,wall_seconds. The "total" row aggregates all jobs.
run_point() {  # $1 = workers; prints the total row's wall_seconds
  "$BUILD_DIR/tools/cgraph_cli" --rmat="$RMAT" --jobs="$JOBS" --arrivals="$ARRIVALS" \
    --partitions="$PARTITIONS" --workers="$1" --csv="$CSV" >/dev/null
  awk -F, '$2 == "total" { print $14 }' "$CSV"
}

run_admission() {  # $1 = policy, $2 = workers, $3... = extra flags;
  # prints "mean_wait max_wait scored_jobs mean_admit_overlap wall_seconds".
  # mean_admit_overlap already aggregates *scored* admissions only (the CLI skips
  # unscored jobs, whose admit_overlap = 0 was never computed by any decision).
  local stdout mean max scored overlap wall
  stdout=$("$BUILD_DIR/tools/cgraph_cli" --rmat="$ADM_RMAT" \
    --jobs="$ADM_JOBS" --arrivals="$ADM_ARRIVALS" --partitions="$ADM_PARTITIONS" \
    --max-jobs="$ADM_MAX_JOBS" --workers="$2" --admission="$1" --csv="$ADM_CSV" \
    "${@:3}")
  mean=$(sed -n 's/.*mean_wait_steps=\([0-9.]*\).*/\1/p' <<<"$stdout")
  max=$(sed -n 's/.*max_wait_steps=\([0-9]*\).*/\1/p' <<<"$stdout")
  scored=$(sed -n 's/.*scored_jobs=\([0-9]*\).*/\1/p' <<<"$stdout")
  overlap=$(sed -n 's/.*mean_admit_overlap=\([0-9.]*\).*/\1/p' <<<"$stdout")
  wall=$(awk -F, '$2 == "total" { print $14 }' "$ADM_CSV")
  if [ -z "$mean" ] || [ -z "$max" ] || [ -z "$scored" ] || [ -z "$overlap" ] ||
     [ -z "$wall" ]; then
    echo "error: could not parse admission stats from cgraph_cli output" >&2
    exit 1
  fi
  echo "$mean $max $scored $overlap $wall"
}

run_service() {  # $1 = workers, $2... = extra flags; prints the "service:" summary line
  local workers=$1 stdout line
  shift
  stdout=$("$BUILD_DIR/tools/cgraph_cli" --serve --rmat="$SVC_RMAT" --jobs="$SVC_JOBS" \
    --trace-jobs="$SVC_TRACE_JOBS" --trace-pattern="$SVC_PATTERN" \
    --trace-burst="$SVC_BURST" --trace-gap="$SVC_GAP" --trace-sources="$SVC_SOURCES" \
    --trace-seed="$SVC_SEED" --partitions="$SVC_PARTITIONS" \
    --queue-bound="$SVC_QUEUE_BOUND" --workers="$workers" "$@")
  line=$(grep '^service:' <<<"$stdout")
  if [ -z "$line" ]; then
    echo "error: cgraph_cli --serve printed no service summary" >&2
    exit 1
  fi
  echo "$line"
}

svc_field() {  # $1 = service line, $2 = field name; prints its numeric value
  sed -n "s/.* $2=\\([0-9.]*\\).*/\\1/p" <<<"$1"
}

# Runs the service replay RUNS_PER_POINT times and prints the summary line of the
# median-wall run. The step/latency figures are deterministic for a fixed trace, so any
# run carries them verbatim — the median only de-noises the wall-clock fields.
run_service_median() {  # args forwarded to run_service
  local lines line
  lines=$(mktemp)
  for _ in $(seq "$RUNS_PER_POINT"); do
    line=$(run_service "$@")
    echo "$(svc_field "$line" wall_seconds) $line" >> "$lines"
  done
  sort -g "$lines" |
    awk -v n="$RUNS_PER_POINT" 'NR == int((n + 1) / 2) { $1 = ""; sub(/^ /, ""); print }'
  rm -f "$lines"
}

run_exec() {  # $1 = workers, $2... = extra flags; prints "cu push mtime wall" (total row)
  "$BUILD_DIR/tools/cgraph_cli" --rmat="$RMAT" --jobs="$EXEC_JOBS" \
    --partitions="$EXEC_PARTITIONS" --workers="$1" --csv="$EXEC_CSV" "${@:2}" >/dev/null
  awk -F, '$2 == "total" { print $7, $6, $13, $14 }' "$EXEC_CSV"
}

if [ "${SMOKE:-0}" = "1" ]; then
  # Policy-regression gate: wait steps are modeled, so a single workers=1 run of each
  # policy is enough, and the comparisons are exact. (Plain command + file, not command
  # substitution, so an exit inside run_admission aborts the script.)
  run_admission fifo 1 > "$ADM_POINT"
  read -r FIFO_MEAN FIFO_MAX FIFO_SCORED FIFO_OVERLAP FIFO_WALL < "$ADM_POINT"
  run_admission overlap 1 > "$ADM_POINT"
  read -r OV_MEAN OV_MAX OV_SCORED OV_OVERLAP OV_WALL < "$ADM_POINT"
  echo "admission smoke (workers=1): fifo mean_wait=$FIFO_MEAN max=$FIFO_MAX;" \
       "overlap mean_wait=$OV_MEAN max=$OV_MAX"
  awk -v f="$FIFO_MEAN" -v o="$OV_MEAN" 'BEGIN { exit (o < f) ? 0 : 1 }' || {
    echo "FAIL: overlap admission no longer reduces mean wait steps vs fifo" >&2
    exit 1
  }
  # FIFO never scores an admission; the footprint-aware policy must have scored the
  # contended ones (the scored flag separates those from unscored zero-overlap jobs).
  if [ "$FIFO_SCORED" != "0" ] || [ "$OV_SCORED" = "0" ]; then
    echo "FAIL: scored-admission counts are wrong (fifo=$FIFO_SCORED overlap=$OV_SCORED)" >&2
    exit 1
  fi
  echo "OK: overlap reduces mean wait steps ($FIFO_MEAN -> $OV_MEAN)"

  # Scaling gate: more workers must never cost throughput. Median-of-3 per point; the
  # 5% tolerance absorbs CI wall noise without letting a real oversubscription
  # regression (historically ~4% at workers=4 on single-core runners, and unboundedly
  # worse the more the pool oversubscribes) slip through.
  SCALE_W1=""
  SCALE_W4=""
  for W in 1 4; do
    POINT=$TMP/point
    : > "$POINT"
    for _ in $(seq "$RUNS_PER_POINT"); do
      run_point "$W" >> "$POINT"
    done
    MEDIAN=$(sort -g "$POINT" | awk -v n="$RUNS_PER_POINT" 'NR == int((n + 1) / 2)')
    if [ "$W" = 1 ]; then SCALE_W1=$MEDIAN; else SCALE_W4=$MEDIAN; fi
  done
  echo "scaling smoke: workers=1 median ${SCALE_W1}s, workers=4 median ${SCALE_W4}s"
  awk -v w1="$SCALE_W1" -v w4="$SCALE_W4" 'BEGIN { exit (w4 <= w1 * 1.05) ? 0 : 1 }' || {
    echo "FAIL: workers=4 wall ($SCALE_W4 s) exceeds workers=1 ($SCALE_W1 s) by >5%" >&2
    exit 1
  }
  echo "OK: workers=4 keeps pace with workers=1 (${SCALE_W1}s -> ${SCALE_W4}s)"

  # Service fan-in gate: the repeated-query daemon trace must coalesce something, and
  # every request must be accounted for (completed + shed + failed == total; failed is
  # 0 here — no faults are injected — but the identity is the daemon's real accounting
  # invariant, docs/robustness.md). All modeled quantities — exact and
  # machine-independent.
  SVC_LINE=$(run_service_median 1)
  SVC_TOTAL=$(svc_field "$SVC_LINE" requests)
  SVC_DONE=$(svc_field "$SVC_LINE" completed)
  SVC_SHED=$(svc_field "$SVC_LINE" shed)
  SVC_FAILED=$(svc_field "$SVC_LINE" failed)
  SVC_DEDUP=$(svc_field "$SVC_LINE" dedup_ratio)
  echo "service smoke (workers=1): requests=$SVC_TOTAL completed=$SVC_DONE" \
       "shed=$SVC_SHED failed=$SVC_FAILED dedup_ratio=$SVC_DEDUP"
  awk -v d="$SVC_DEDUP" 'BEGIN { exit (d > 0) ? 0 : 1 }' || {
    echo "FAIL: service daemon coalesced nothing on a repeated-query trace (dedup_ratio=$SVC_DEDUP)" >&2
    exit 1
  }
  if [ "$((SVC_DONE + SVC_SHED + SVC_FAILED))" != "$SVC_TOTAL" ]; then
    echo "FAIL: service requests unaccounted for (completed=$SVC_DONE + shed=$SVC_SHED + failed=$SVC_FAILED != $SVC_TOTAL)" >&2
    exit 1
  fi
  echo "OK: service daemon coalesces (dedup_ratio=$SVC_DEDUP) and accounts for every request"

  # Execution-mode gate: async must spend fewer modeled compute units than bsp on the
  # monotonic mix (exact and machine-independent — compute units don't depend on worker
  # count or wall noise).
  read -r BSP_CU BSP_PUSH _ _ <<<"$(run_exec 1)"
  read -r AS_CU AS_PUSH _ _ <<<"$(run_exec 1 --execution=async --staleness="$EXEC_STALENESS")"
  echo "execution smoke (workers=1): bsp compute_units=$BSP_CU push=$BSP_PUSH;" \
       "async compute_units=$AS_CU push=$AS_PUSH"
  if [ "$AS_CU" -ge "$BSP_CU" ]; then
    echo "FAIL: async execution no longer reduces compute units (bsp=$BSP_CU async=$AS_CU)" >&2
    exit 1
  fi
  echo "OK: async reduces compute units ($BSP_CU -> $AS_CU)"

  # Fault-recovery gate: injected per-job fault must recover from its checkpoint with
  # byte-identical results, and K=8 checkpointing must stay within 5% of modeled time
  # (tools/fault_smoke.sh, docs/robustness.md).
  tools/fault_smoke.sh "$BUILD_DIR"

  # Partitioner gate (docs/partitioning.md): the default layout must be byte-identical
  # to an explicit --partitioner=even_edge run on the headline workload (modeled CSV
  # columns 1-13; the wall-clock column is excluded), and the greedy streaming
  # placement must strictly beat even_edge on replication factor. Both checks are
  # modeled — exact and machine-independent.
  PART_DIR=$TMP/partition
  mkdir -p "$PART_DIR"
  "$BUILD_DIR/tools/cgraph_cli" --rmat="$RMAT" --jobs="$JOBS" --arrivals="$ARRIVALS" \
    --partitions="$PARTITIONS" --workers=1 --csv="$PART_DIR/default.csv" \
    > "$PART_DIR/default.out"
  "$BUILD_DIR/tools/cgraph_cli" --rmat="$RMAT" --jobs="$JOBS" --arrivals="$ARRIVALS" \
    --partitions="$PARTITIONS" --workers=1 --partitioner=even_edge \
    --csv="$PART_DIR/even_edge.csv" >/dev/null
  if ! diff <(cut -d, -f1-13 "$PART_DIR/default.csv") \
            <(cut -d, -f1-13 "$PART_DIR/even_edge.csv") >/dev/null; then
    echo "FAIL: --partitioner=even_edge is not byte-identical to the default layout" >&2
    exit 1
  fi
  EE_LINE=$(grep '^partition:' "$PART_DIR/default.out")
  GR_LINE=$("$BUILD_DIR/tools/cgraph_cli" --rmat="$RMAT" --jobs=bfs \
    --partitions="$PARTITIONS" --partitioner=greedy | grep '^partition:')
  EE_RF=$(svc_field "$EE_LINE" replication_factor)
  GR_RF=$(svc_field "$GR_LINE" replication_factor)
  echo "partition smoke: even_edge replication_factor=$EE_RF greedy=$GR_RF"
  awk -v e="$EE_RF" -v g="$GR_RF" 'BEGIN { exit (g < e) ? 0 : 1 }' || {
    echo "FAIL: greedy placement no longer beats even_edge on replication factor (even_edge=$EE_RF greedy=$GR_RF)" >&2
    exit 1
  }
  echo "OK: default layout is byte-identical to even_edge;" \
       "greedy replicates less ($EE_RF -> $GR_RF)"
  exit 0
fi

: > "$WALLS"  # Lines of "<workers> <median_wall>".
for W in $WORKERS_SWEEP; do
  POINT=$TMP/point
  : > "$POINT"
  for _ in $(seq "$RUNS_PER_POINT"); do
    run_point "$W" >> "$POINT"
  done
  MEDIAN=$(sort -g "$POINT" | awk -v n="$RUNS_PER_POINT" 'NR == int((n + 1) / 2)')
  echo "$W $MEDIAN" >> "$WALLS"
done

# Admission comparison at the headline worker count.
run_admission fifo 4 > "$ADM_POINT"
read -r FIFO_MEAN FIFO_MAX FIFO_SCORED FIFO_OVERLAP FIFO_WALL < "$ADM_POINT"
run_admission overlap 4 > "$ADM_POINT"
read -r OV_MEAN OV_MAX OV_SCORED OV_OVERLAP OV_WALL < "$ADM_POINT"
# Jobs in the admission workload, derived from its report (per-job CSV rows) so the
# count cannot drift from ADM_JOBS/ADM_ARRIVALS edits.
ADM_NUM_JOBS=$(awk -F, 'NR > 1 && $2 != "total"' "$ADM_CSV" | wc -l)
emit_policy() {  # $1 name, $2 mean, $3 max, $4 scored, $5 overlap, $6 wall, $7 trailing comma
  awk -v name="$1" -v n="$ADM_NUM_JOBS" -v mean="$2" -v max="$3" -v scored="$4" \
      -v overlap="$5" -v wall="$6" -v comma="$7" \
    'BEGIN { printf "    \"%s\": {\"mean_wait_steps\": %s, \"max_wait_steps\": %s, \"scored_jobs\": %s, \"mean_admit_overlap_scored\": %s, \"wall_seconds\": %s, \"jobs_per_second_wall\": %.4f}%s\n", name, mean, max, scored, overlap, wall, (wall > 0 ? n / wall : 0), comma }'
}
{
  printf '  "admission": {\n'
  printf '    "config": {"rmat": "%s", "source": "low-degree-default", "jobs": "%s", "arrivals": "%s", ' \
         "$ADM_RMAT" "$ADM_JOBS" "$ADM_ARRIVALS"
  printf '"partitions": %d, "max_jobs": %d, "workers": 4},\n' "$ADM_PARTITIONS" "$ADM_MAX_JOBS"
  emit_policy fifo "$FIFO_MEAN" "$FIFO_MAX" "$FIFO_SCORED" "$FIFO_OVERLAP" "$FIFO_WALL" ","
  emit_policy overlap "$OV_MEAN" "$OV_MAX" "$OV_SCORED" "$OV_OVERLAP" "$OV_WALL" ""
  printf '  },\n'
} > "$ADMISSION"

# Service-daemon replay at the headline worker count, median wall of 3 runs. Everything
# except wall_seconds and sustained_jobs_per_second is deterministic for the fixed trace.
SVC_LINE=$(run_service_median 4)
{
  printf '  "service": {\n'
  printf '    "config": {"rmat": "%s", "jobs": "%s", "trace_jobs": %d, "pattern": "%s", ' \
         "$SVC_RMAT" "$SVC_JOBS" "$SVC_TRACE_JOBS" "$SVC_PATTERN"
  printf '"burst": %d, "gap": %d, "sources": %d, "seed": %d, "partitions": %d, ' \
         "$SVC_BURST" "$SVC_GAP" "$SVC_SOURCES" "$SVC_SEED" "$SVC_PARTITIONS"
  printf '"queue_bound": %d, "workers": 4},\n' "$SVC_QUEUE_BOUND"
  printf '    "requests": %s,\n' "$(svc_field "$SVC_LINE" requests)"
  printf '    "completed": %s,\n' "$(svc_field "$SVC_LINE" completed)"
  printf '    "shed": %s,\n' "$(svc_field "$SVC_LINE" shed)"
  printf '    "coalesced": %s,\n' "$(svc_field "$SVC_LINE" coalesced)"
  printf '    "executed_jobs": %s,\n' "$(svc_field "$SVC_LINE" executed_jobs)"
  printf '    "dedup_ratio": %s,\n' "$(svc_field "$SVC_LINE" dedup_ratio)"
  printf '    "p50_latency_steps": %s,\n' "$(svc_field "$SVC_LINE" p50)"
  printf '    "p95_latency_steps": %s,\n' "$(svc_field "$SVC_LINE" p95)"
  printf '    "p99_latency_steps": %s,\n' "$(svc_field "$SVC_LINE" p99)"
  printf '    "mean_latency_steps": %s,\n' "$(svc_field "$SVC_LINE" mean)"
  printf '    "final_step": %s,\n' "$(svc_field "$SVC_LINE" final_step)"
  printf '    "wall_seconds": %s,\n' "$(svc_field "$SVC_LINE" wall_seconds)"
  printf '    "sustained_jobs_per_second": %s\n' \
         "$(svc_field "$SVC_LINE" sustained_jobs_per_second)"
  printf '  },\n'
} > "$SERVICE"

# Robustness record: the fault_smoke.sh scenario (docs/robustness.md) with its
# counters and equivalence checks captured as data. A trigger-stage fault injected
# mid-flight into the wcc job recovers from its --checkpoint-every=2 checkpoint; the
# equivalence booleans compare the recovered run against a fault-free run on the
# schedule-invariant compute columns (CSV fields 1-7) and the converged values (the
# mix is min-accumulator only, so equality is exact). The overhead ratio is from a
# separate clean run at the documented K=8 cadence. Everything here is modeled.
ROBUSTNESS=$TMP/robustness.json
ROB_DIR=$TMP/robustness
mkdir -p "$ROB_DIR"
ROB_JOBS="sssp,wcc,bfs"
ROB_FAULT="trigger@60:1"
ROB_CHECKPOINT_EVERY=2
"$BUILD_DIR/tools/cgraph_cli" --rmat="$SVC_RMAT" --jobs="$ROB_JOBS" \
  --partitions="$SVC_PARTITIONS" --csv="$ROB_DIR/clean.csv" \
  --values-out="$ROB_DIR/clean.values" >/dev/null
ROB_LINE=$("$BUILD_DIR/tools/cgraph_cli" --rmat="$SVC_RMAT" --jobs="$ROB_JOBS" \
  --partitions="$SVC_PARTITIONS" --checkpoint-every="$ROB_CHECKPOINT_EVERY" \
  --inject-fault="$ROB_FAULT" --csv="$ROB_DIR/fault.csv" \
  --values-out="$ROB_DIR/fault.values" | grep '^robustness:')
COLUMNS_MATCH=false
diff <(cut -d, -f1-7 "$ROB_DIR/clean.csv") <(cut -d, -f1-7 "$ROB_DIR/fault.csv") \
  >/dev/null && COLUMNS_MATCH=true
VALUES_MATCH=false
diff "$ROB_DIR/clean.values" "$ROB_DIR/fault.values" >/dev/null && VALUES_MATCH=true
ROB_OVERHEAD=$("$BUILD_DIR/tools/cgraph_cli" --rmat="$SVC_RMAT" --jobs="$ROB_JOBS" \
  --partitions="$SVC_PARTITIONS" --checkpoint-every=8 |
  sed -n 's/.*checkpoint_overhead_ratio=\([0-9.]*\).*/\1/p')
{
  printf '  "robustness": {\n'
  printf '    "config": {"rmat": "%s", "jobs": "%s", "partitions": %d, ' \
         "$SVC_RMAT" "$ROB_JOBS" "$SVC_PARTITIONS"
  printf '"fault": "%s", "checkpoint_every": %d},\n' "$ROB_FAULT" "$ROB_CHECKPOINT_EVERY"
  printf '    "injected_faults": %s,\n' "$(svc_field "$ROB_LINE" injected)"
  printf '    "recoveries": %s,\n' "$(svc_field "$ROB_LINE" recoveries)"
  printf '    "unrecovered": %s,\n' "$(svc_field "$ROB_LINE" unrecovered)"
  printf '    "checkpoints": %s,\n' "$(svc_field "$ROB_LINE" checkpoints)"
  printf '    "checkpoint_bytes": %s,\n' "$(svc_field "$ROB_LINE" checkpoint_bytes)"
  printf '    "recovered_compute_columns_identical": %s,\n' "$COLUMNS_MATCH"
  printf '    "recovered_values_identical": %s,\n' "$VALUES_MATCH"
  printf '    "checkpoint_overhead_ratio_k8": %s\n' "$ROB_OVERHEAD"
  printf '  },\n'
} > "$ROBUSTNESS"

# Execution-mode comparison: bsp vs async on the monotonic mix (headline graph,
# workers=4). Compute units and push updates are modeled (run-invariant, taken from the
# last run); walls are median-of-3. The async diagnostics come from the CLI's
# parseable "execution:" line, and the async service replay reuses the daemon workload
# with an all-monotonic request mix.
EXECUTION=$TMP/execution.json
EXEC_POINT=$TMP/execution.point
: > "$EXEC_POINT"
for _ in $(seq "$RUNS_PER_POINT"); do
  run_exec 4 >> "$EXEC_POINT"
done
BSP_CU=$(awk 'NR == 1 { print $1 }' "$EXEC_POINT")
BSP_PUSH=$(awk 'NR == 1 { print $2 }' "$EXEC_POINT")
BSP_MTIME=$(awk 'NR == 1 { print $3 }' "$EXEC_POINT")
BSP_WALL=$(awk '{ print $4 }' "$EXEC_POINT" | sort -g |
           awk -v n="$RUNS_PER_POINT" 'NR == int((n + 1) / 2)')
: > "$EXEC_POINT"
for _ in $(seq "$RUNS_PER_POINT"); do
  run_exec 4 --execution=async --staleness="$EXEC_STALENESS" >> "$EXEC_POINT"
done
AS_CU=$(awk 'NR == 1 { print $1 }' "$EXEC_POINT")
AS_PUSH=$(awk 'NR == 1 { print $2 }' "$EXEC_POINT")
AS_MTIME=$(awk 'NR == 1 { print $3 }' "$EXEC_POINT")
AS_WALL=$(awk '{ print $4 }' "$EXEC_POINT" | sort -g |
          awk -v n="$RUNS_PER_POINT" 'NR == int((n + 1) / 2)')
EXEC_LINE=$("$BUILD_DIR/tools/cgraph_cli" --rmat="$RMAT" --jobs="$EXEC_JOBS" \
  --partitions="$EXEC_PARTITIONS" --workers=4 --execution=async \
  --staleness="$EXEC_STALENESS" --csv="$EXEC_CSV" | grep '^execution:')
EXEC_SVC_LINE=$(run_service_median 4 --jobs="$EXEC_SVC_JOBS" --execution=async \
  --staleness="$EXEC_STALENESS")
EXEC_NUM_JOBS=$(awk -F, 'NR > 1 && $2 != "total"' "$EXEC_CSV" | wc -l)
{
  printf '  "execution": {\n'
  printf '    "config": {"rmat": "%s", "jobs": "%s", "partitions": %d, "workers": 4, ' \
         "$RMAT" "$EXEC_JOBS" "$EXEC_PARTITIONS"
  printf '"staleness": %d, "runs_per_point": %d},\n' "$EXEC_STALENESS" "$RUNS_PER_POINT"
  awk -v n="$EXEC_NUM_JOBS" -v cu="$BSP_CU" -v push="$BSP_PUSH" -v mtime="$BSP_MTIME" \
      -v wall="$BSP_WALL" \
    'BEGIN { printf "    \"bsp\": {\"compute_units\": %s, \"push_updates\": %s, \"modeled_time\": %s, \"jobs_per_modeled_unit\": %.6g, \"wall_seconds_median\": %s, \"jobs_per_second_wall\": %.4f},\n", cu, push, mtime, (mtime > 0 ? n / mtime : 0), wall, (wall > 0 ? n / wall : 0) }'
  awk -v n="$EXEC_NUM_JOBS" -v cu="$AS_CU" -v push="$AS_PUSH" -v mtime="$AS_MTIME" \
      -v wall="$AS_WALL" \
      -v redrain="$(svc_field "$EXEC_LINE" redrain_computes)" \
      -v deferred="$(svc_field "$EXEC_LINE" deferred_pushes)" \
    'BEGIN { printf "    \"async\": {\"compute_units\": %s, \"push_updates\": %s, \"modeled_time\": %s, \"jobs_per_modeled_unit\": %.6g, \"redrain_computes\": %s, \"deferred_pushes\": %s, \"wall_seconds_median\": %s, \"jobs_per_second_wall\": %.4f},\n", cu, push, mtime, (mtime > 0 ? n / mtime : 0), redrain, deferred, wall, (wall > 0 ? n / wall : 0) }'
  awk -v b="$BSP_CU" -v a="$AS_CU" \
    'BEGIN { printf "    \"compute_units_ratio_async_over_bsp\": %.4f,\n", (b > 0 ? a / b : 0) }'
  awk -v b="$BSP_MTIME" -v a="$AS_MTIME" \
    'BEGIN { printf "    \"modeled_time_ratio_async_over_bsp\": %.4f,\n", (b > 0 ? a / b : 0) }'
  printf '    "async_service": {"jobs": "%s", "completed": %s, "shed": %s, ' \
         "$EXEC_SVC_JOBS" "$(svc_field "$EXEC_SVC_LINE" completed)" \
         "$(svc_field "$EXEC_SVC_LINE" shed)"
  printf '"p95_latency_steps": %s, "wall_seconds_median": %s, "sustained_jobs_per_second": %s}\n' \
         "$(svc_field "$EXEC_SVC_LINE" p95)" \
         "$(svc_field "$EXEC_SVC_LINE" wall_seconds)" \
         "$(svc_field "$EXEC_SVC_LINE" sustained_jobs_per_second)"
  printf '  },\n'
} > "$EXECUTION"

# Partition-quality record (docs/partitioning.md): every strategy's build-time quality
# indices on the headline graph. The indices are pure functions of the deterministic
# layout — exact and machine-independent.
PARTITION=$TMP/partition.json
emit_quality() {  # $1 = partitioner, $2 = trailing comma
  local line
  line=$("$BUILD_DIR/tools/cgraph_cli" --rmat="$RMAT" --jobs=bfs --partitions="$PARTITIONS" \
    --partitioner="$1" | grep '^partition:')
  printf '      "%s": {"edge_cut_fraction": %s, "replication_factor": %s, "mirror_count": %s, "edge_balance": %s, "vertex_balance": %s}%s\n' \
    "$1" "$(svc_field "$line" edge_cut_fraction)" \
    "$(svc_field "$line" replication_factor)" "$(svc_field "$line" mirror_count)" \
    "$(svc_field "$line" edge_balance)" "$(svc_field "$line" vertex_balance)" "$2"
}
{
  printf '  "partition": {\n'
  printf '    "config": {"rmat": "%s", "partitions": %d},\n' "$RMAT" "$PARTITIONS"
  printf '    "quality": {\n'
  emit_quality even_edge ","
  emit_quality hash_source ","
  emit_quality greedy ","
  emit_quality degree ""
  printf '    }\n'
  printf '  }\n'
} > "$PARTITION"

# $CSV holds the last (workers=4) headline sweep run — no other section writes it —
# and its modeled columns are run-invariant. Guard that invariant: the report must
# carry exactly one row per configured job.
CONFIGURED_JOBS=$(tr ',' '\n' <<<"$JOBS,$ARRIVALS" | grep -c .)
HEADLINE_JOBS=$(awk -F, 'NR > 1 && $2 != "total"' "$CSV" | wc -l)
if [ "$HEADLINE_JOBS" -ne "$CONFIGURED_JOBS" ]; then
  echo "FAIL: headline report has $HEADLINE_JOBS jobs, configured $CONFIGURED_JOBS" >&2
  exit 1
fi
awk -F, -v rmat="$RMAT" -v jobs="$JOBS" -v arrivals="$ARRIVALS" \
    -v partitions="$PARTITIONS" -v sweep="$WORKERS_SWEEP" -v runs="$RUNS_PER_POINT" \
    -v walls_file="$WALLS" '
  NR > 1 && $2 != "total" { n_jobs++ }
  $2 == "total" {
    compute_units = $7; below_cache = $9 + $10; modeled = $13
  }
  END {
    n_points = 0
    headline_wall = 0
    best_workers = 0
    while ((getline line < walls_file) > 0) {
      split(line, f, " ")
      ++n_points
      point_workers[n_points] = f[1]
      point_wall[n_points] = f[2]
      # The headline is the BEST sweep point (lowest median wall), recorded explicitly
      # as best_workers below — not an alias of whichever point happened to run last.
      if (headline_wall == 0 || f[2] + 0 < headline_wall + 0) {
        headline_wall = f[2]
        best_workers = f[1]
      }
    }
    wall_tp = headline_wall > 0 ? n_jobs / headline_wall : 0
    modeled_tp = modeled > 0 ? n_jobs / modeled : 0
    printf "{\n"
    printf "  \"bench\": \"ltp_throughput\",\n"
    printf "  \"config\": {\"rmat\": \"%s\", \"jobs\": \"%s\", \"arrivals\": \"%s\", ", rmat, jobs, arrivals
    printf "\"partitions\": %d, ", partitions
    printf "\"workers_sweep\": \"%s\", \"runs_per_point\": %d},\n", sweep, runs
    printf "  \"jobs_completed\": %d,\n", n_jobs
    printf "  \"runs\": [\n"
    for (i = 1; i <= n_points; ++i) {
      tp = point_wall[i] > 0 ? n_jobs / point_wall[i] : 0
      printf "    {\"workers\": %d, \"wall_seconds_median\": %s, \"jobs_per_second_wall\": %.4f}%s\n", \
             point_workers[i], point_wall[i], tp, i < n_points ? "," : ""
    }
    printf "  ],\n"
    printf "  \"best_workers\": %d,\n", best_workers
    printf "  \"wall_seconds\": %s,\n", headline_wall
    printf "  \"jobs_per_second_wall\": %.4f,\n", wall_tp
    printf "  \"jobs_per_modeled_unit\": %.6g,\n", modeled_tp
    printf "  \"total_compute_units\": %s,\n", compute_units
    printf "  \"bytes_below_cache\": %s,\n", below_cache
  }' "$CSV" > "$OUT"
cat "$ADMISSION" "$SERVICE" "$ROBUSTNESS" "$EXECUTION" "$PARTITION" >> "$OUT"
echo "}" >> "$OUT"

echo "wrote $OUT"
