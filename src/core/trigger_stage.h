// Trigger stage of the LTP pipeline (paper section 3.2.3, Algorithm 1 lines 4-6).
//
// The loaded partition is processed for *all* triggered jobs concurrently: jobs form
// batches of at most num_workers, each batch rotates its private tables through the
// hierarchy while the shared structure stays pinned, and straggler splitting lets every
// worker steal vertex chunks of any job in the batch so a skewed job's remaining vertices
// are consumed by whichever cores come free (Fig. 6). A chunk grain of at least the
// partition size (--chunk-grain) makes each job a single task, and skew serializes on one core.
//
// The sweep itself is frontier-aware: active-vertex bitmask words are scanned 64 bits at
// a time (DynamicBitset::ForEachSetBitInWords), chunks are claimed word-aligned from
// per-job cursors held in a reused member arena, and dispatch goes through
// ThreadPool::RunBatch — no per-task heap allocation anywhere on the path. Batches whose
// jobs hold fewer than EngineOptions::parallel_trigger_threshold active vertices run
// inline on the driver thread instead (dispatch would cost more than the sweep). Cost is
// proportional to the frontier, not the partition.

#ifndef SRC_CORE_TRIGGER_STAGE_H_
#define SRC_CORE_TRIGGER_STAGE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "src/cache/memory_hierarchy.h"
#include "src/common/bitset.h"
#include "src/common/thread_annotations.h"
#include "src/core/engine_options.h"
#include "src/core/job.h"
#include "src/partition/partitioned_graph.h"
#include "src/runtime/thread_pool.h"

namespace cgraph {

class TriggerStage {
 public:
  // `pool` and `hierarchy` are borrowed from the engine and must outlive this.
  TriggerStage(ThreadPool* pool, MemoryHierarchy* hierarchy, const EngineOptions& options);

  // Triggers partition p's loaded structure for every job in `group`, charging each
  // job's private-partition access as its batch rotates in. Fully converged (job,
  // partition) pairs — active count zero — are skipped before batching.
  void Run(PartitionId p, const GraphPartition& part, std::span<Job* const> group)
      CGRAPH_REQUIRES_DRIVER;

 private:
  void TriggerBatch(PartitionId p, const GraphPartition& part, std::span<Job* const> batch)
      CGRAPH_REQUIRES_DRIVER;

  // Sweeps words [word_begin, word_end) of `mask`, invoking Compute on each set bit (or
  // the dense per-vertex loop under the ablation), and flushes the stat counters with
  // atomic adds. `mask` is the job's partition-p active set on the normal trigger path
  // and the re-drain set on the async path. Returns the Compute calls issued.
  uint64_t ProcessWords(PartitionId p, const GraphPartition& part, Job* job,
                        const DynamicBitset& mask, size_t word_begin, size_t word_end) const;

  // Async intra-iteration visibility (docs/execution_modes.md): after the normal trigger
  // sweep, repeatedly consumes pending delta_next contributions of the partition's
  // *master* vertices that the activation predicate accepts and re-runs Compute over
  // them, until the partition-local cascade settles. Interior masters (no replicas) are
  // self-contained; replicated masters additionally Acc-fold each consumed delta into
  // the job's deferred broadcast window so their mirrors still receive it at the next
  // sync boundary — every contribution reaches every replica exactly once. Mirrors are
  // never drained. Runs inline on the driver thread in ascending vertex order; for a
  // monotonic program the result equals dedicating extra BSP iterations to this
  // partition, so converged values are unchanged — only the iteration count shrinks.
  void Redrain(PartitionId p, const GraphPartition& part, Job* job) CGRAPH_REQUIRES_DRIVER;

  ThreadPool* pool_;
  MemoryHierarchy* hierarchy_;
  EngineOptions options_;

  // Reused dispatch arenas (sized once): per-batch-slot word cursors for straggler chunk
  // claiming, the batch's surviving jobs, and the task-index -> batch-slot map.
  std::unique_ptr<std::atomic<size_t>[]> cursors_;
  std::vector<Job*> batch_scratch_;
  std::vector<uint32_t> task_slot_;
  DynamicBitset drain_scratch_;  // Re-drain set of the partition being drained.
};

}  // namespace cgraph

#endif  // SRC_CORE_TRIGGER_STAGE_H_
