// Configuration shared by the LTP engine and the baseline executors.

#ifndef SRC_CORE_ENGINE_OPTIONS_H_
#define SRC_CORE_ENGINE_OPTIONS_H_

#include <cstdint>
#include <vector>

#include "src/cache/memory_hierarchy.h"
#include "src/common/fault_injection.h"
#include "src/metrics/cost_model.h"
#include "src/partition/partition_quality.h"

namespace cgraph {

// Which job-level admission policy JobManager uses when a concurrency slot frees up
// (the upper level of two-level scheduling; see src/core/admission_policy.h).
enum class AdmissionPolicyKind : uint8_t {
  kFifo,     // Strict arrival order (default; bit-identical to the pre-policy engine).
  kOverlap,  // Maximize footprint overlap with running jobs, aging-bounded wait.
};

// Iteration model (docs/execution_modes.md). kBsp is the deterministic bulk-synchronous
// default: every iteration triggers to a barrier, then the Push stage synchronizes
// replicas, so a vertex never sees same-iteration updates. kAsync relaxes both halves of
// that barrier for *monotonic* programs (VertexProgram::monotonic()):
//
//   * intra-iteration visibility — the trigger stage re-drains interior vertices (masters
//     with no replicas anywhere) of a partition within the iteration, so improvement
//     cascades that stay inside the partition settle in one pass instead of one level per
//     iteration;
//   * bounded-staleness propagation — the push stage may withhold master->mirror
//     broadcasts for up to `staleness` iterations, accumulating the deferred updates and
//     delivering their Acc-combination at the next sync boundary, so replica traffic is
//     batched instead of per-wave.
//
// Non-monotonic jobs silently run BSP under kAsync (stats().async_execution stays false);
// final converged values are identical to BSP either way — BSP stays the correctness
// oracle.
enum class ExecutionMode : uint8_t {
  kBsp,
  kAsync,
};

inline const char* ExecutionModeName(ExecutionMode mode) {
  return mode == ExecutionMode::kAsync ? "async" : "bsp";
}

struct EngineOptions {
  // Worker threads ("cores"); one trigger task per worker (paper section 3.2.3).
  uint32_t num_workers = 4;

  // Simulated LLC / memory / disk parameters (identical across compared systems).
  HierarchyOptions hierarchy;

  // Modeled-time coefficients used by reports.
  CostModel cost_model;

  // Priority-based partition loading (Eq. 1). Disabled = fixed index order, i.e. the
  // "CGraph-without" configuration of Fig. 8.
  bool use_scheduler = true;

  // Ablation: scales Eq. 1's theta (0 drops the D(P)*C(P) term entirely, leaving pure
  // N(P) ordering; 1 is the paper's setting).
  double theta_scale = 1.0;

  // Straggler splitting: dynamic chunk stealing within a partition trigger (Fig. 6).
  // Disabled = one task per (job, partition).
  bool straggler_split = true;

  // Vertices per work chunk when straggler splitting is on. The trigger stage rounds this
  // up to whole 64-vertex bitmask words so chunk claiming stays word-aligned.
  uint32_t chunk_grain = 256;

  // Per-vertex bookkeeping sweeps (job init, activity refresh) run through the thread
  // pool's batch dispatch when a partition has at least this many local vertices;
  // smaller partitions stay inline because dispatch would cost more than the sweep.
  // 0 forces the parallel path (used by tests to cover it on small fixtures).
  uint32_t parallel_sweep_threshold = 1u << 13;

  // A trigger batch dispatches through the thread pool only when its jobs together hold
  // at least this many active vertices in the picked partition; smaller batches run
  // inline on the driver thread — waking workers for a handful of frontier words costs
  // more than the sweep (the workers=4 < workers=1 regression on small partitions).
  // 0 forces pooled dispatch (tests use it to cover the parallel path on small
  // fixtures). Modeled metrics are identical either way; only wall time differs.
  uint32_t parallel_trigger_threshold = 1u << 12;

  // Capacity of the global table's per-partition job set.
  uint32_t max_jobs = 64;

  // Edge-placement strategy the graph was (or should be) built with (CLI:
  // --partitioner; see docs/partitioning.md). Partitioning happens at graph-build time,
  // before the engine exists, so this field is record-keeping the CLI wires into
  // PartitionOptions::partitioner — Report() sources the measured quality indices from
  // PartitionedGraph::quality(), the layout's own record, not from here.
  PartitionerKind partitioner = PartitionerKind::kEvenEdge;

  // Job-level admission: which due waiter a freed slot admits (CLI: --admission).
  AdmissionPolicyKind admission_policy = AdmissionPolicyKind::kFifo;

  // Overlap-admission aging: score bonus per scheduling step a due job has waited (CLI:
  // --aging). The overlap score is bounded by 1, so a waiter can only be overtaken by
  // jobs arriving within 1/admission_aging steps of it — bounded overtaking, hence no
  // starvation (total wait still depends on how long slot-holders run). Must be > 0
  // under kOverlap; ignored under kFifo.
  double admission_aging = 1.0 / 256.0;

  // Iteration model (CLI: --execution). kAsync only changes behavior for jobs whose
  // program declares monotonic() — everything else (and kBsp itself) is byte-identical
  // to the pre-async engine. See the ExecutionMode comment above and
  // docs/execution_modes.md.
  ExecutionMode execution_mode = ExecutionMode::kBsp;

  // Bounded-staleness window for kAsync (CLI: --staleness): master->mirror broadcasts
  // may be withheld for at most this many iterations before a forced sync. 0 makes
  // every push a sync boundary — i.e. async degenerates to BSP and is treated as BSP
  // (re-drain included). Ignored under kBsp.
  uint32_t staleness = 1;

  // Adaptive deferral (kAsync): the staleness window is an upper bound, not a mandate.
  // A push boundary defers its broadcast only while the iteration is "hot" — the number
  // of fresh master broadcast records is at least (total replicated masters) /
  // async_defer_divisor. Cold boundaries sync immediately: deferral batches high-churn
  // phases without stretching the critical path, which away from those phases is a
  // latency-bound cross-partition chain that a withheld broadcast delays by a whole
  // iteration. The default 1 defers only boundaries where essentially the entire
  // replicated population is churning (an all-active flood, e.g. WCC's first waves) —
  // the strictest setting, and the one that wins modeled time as well as compute units;
  // larger divisors widen deferral (more batching, more iteration stretch), 0 always
  // defers up to the staleness bound (fixed-window ablation).
  uint32_t async_defer_divisor = 1;

  // Safety valve against non-converging programs.
  uint64_t max_iterations_per_job = 10000;

  // Fault-tolerance layer (docs/robustness.md). All four knobs default off; the engine
  // pays nothing for the subsystem when they stay there.

  // Planned injected failures (CLI: --inject-fault=KIND@STEP[:JOB], repeatable). Empty =
  // harness unarmed; each poll site then costs one boolean load.
  std::vector<FaultSpec> fault_specs;

  // Seed for deterministic corruption-target selection under --inject-fault=corrupt@...
  uint64_t fault_seed = 42;

  // Iteration-boundary checkpointing (CLI: --checkpoint-every): every K-th iteration of a
  // running job snapshots its vertex values, deferred async windows, and stats into the
  // engine's CheckpointStore, enabling RestartFromCheckpoint after a failure or
  // cancellation. 0 = off. Checkpoints are bookkeeping, not modeled work: they add no
  // hierarchy charge, so modeled CSVs are byte-identical with checkpointing on or off
  // (their modeled cost is reported separately via stats().checkpoint_bytes).
  uint64_t checkpoint_every = 0;

  // Per-job execution budget in scheduling steps (CLI: --job-step-budget): a job still
  // running this many steps after its admission is cancelled mid-run (terminal
  // stats().cancelled; restartable from its last checkpoint). The budget restarts on
  // every (re-)admission. 0 = off. This is the daemon's lever for bounding *execution*,
  // complementing deadline_steps which bounds queue wait only.
  uint64_t job_step_budget = 0;
};

}  // namespace cgraph

#endif  // SRC_CORE_ENGINE_OPTIONS_H_
