// Push stage of the LTP pipeline (paper section 3.2.4, Algorithm 2).
//
// When a job has handled all its active partitions, its buffered mirror deltas are merged
// into masters, merged values are broadcast back to mirrors, the delta double-buffer is
// swapped, and the next iteration's partitions are registered in the global table through
// the JobManager (activation tracing). Algorithm 2's SortD pass is realized as
// counting-sort buckets: mirror deltas are collected straight into per-destination-
// partition buckets (reused, pre-reserved on the Job), so sweeping buckets in partition
// order gives the same successive-access pattern — and the same charge model — as the
// sort, without sorting. Collection walks each partition's mirror index (mirror_locals /
// replicated_masters) instead of filtering every local vertex. The broadcast (SortS) needs
// no buffer at all: a mirror has exactly one master and the broadcast replaces its value,
// so each source partition writes its masters' mirrors directly. The iteration-boundary
// protocol with the vertex program runs here too: convergence detection, the
// max-iteration safety valve, and multi-phase re-initialization (SCC). Jobs that complete
// are finalized immediately via JobManager::FinishJob, which may admit a queued job into
// the freed slot.
//
// Parallelism: the data movement — collect (one task per job), merge (one task per
// destination bucket), broadcast, deferred fold and flush (one task per source partition)
// — runs on the worker pool through PoolDispatch, gated by
// EngineOptions::parallel_sweep_threshold. Tasks write disjoint vertex slots and report
// per-task counts and touched partitions that the driver reduces; every cache charge,
// dirty_ update, registration, and OnIterationEnd call stays on the driver in ascending
// partition order, so modeled output does not depend on the worker count. The refresh
// and a new phase's re-init run pooled in JobManager.
//
// Async (bounded-staleness) jobs relax only the broadcast half of the sync: mirror->master
// merge runs every iteration, master->mirror delivery may lag by up to
// EngineOptions::staleness iterations through per-partition deferred-window accumulators,
// with a flush-on-drain pass guaranteeing every withheld record is delivered before the
// job can be declared converged. See docs/execution_modes.md.

#ifndef SRC_CORE_PUSH_STAGE_H_
#define SRC_CORE_PUSH_STAGE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/cache/memory_hierarchy.h"
#include "src/common/thread_annotations.h"
#include "src/core/engine_options.h"
#include "src/core/job_manager.h"
#include "src/partition/partitioned_graph.h"
#include "src/runtime/pool_dispatch.h"

namespace cgraph {

class PushStage {
 public:
  // `pool`, `hierarchy` and `manager` are borrowed from the engine and must outlive
  // this. `pool` may be null: every pass then runs inline.
  PushStage(const PartitionedGraph& layout, ThreadPool* pool, MemoryHierarchy* hierarchy,
            JobManager* manager, const EngineOptions& options);

  // Buffers every unfinished group job's mirror deltas of partition p after a trigger,
  // one pool task per job (CollectMirrorRecords).
  void Collect(PartitionId p, std::span<Job* const> jobs) CGRAPH_REQUIRES_DRIVER;

  // Runs the job's full iteration-boundary push: merge, broadcast, buffer swap, activity
  // refresh, and the program's OnIterationEnd protocol. Finishes the job when it
  // converged, hit the iteration valve, or declared itself done.
  void Push(Job& job) CGRAPH_REQUIRES_DRIVER;

 private:
  // Buffers the job's non-identity mirror deltas of partition p into its sync queue
  // (the paper's S_new) after a trigger, clearing the slots for the broadcast phase.
  // Safe on a pool worker: it touches only the job's own table and sync_in_, and no
  // two concurrent calls share a job.
  void CollectMirrorRecords(Job& job, PartitionId p) const;

  // Master->mirror delivery from every partition in sources_, one pool task per source
  // partition. Each mirror's delta_next is overwritten with its master's delta (folded
  // with the deferred window where one is pending) or, when `flush`, with the pending
  // window alone; the windows drained are reset. Marks each destination partition that
  // received a record in touched_ and returns the record count.
  uint64_t Broadcast(Job& job, bool flush) CGRAPH_REQUIRES_DRIVER;

  const PartitionedGraph& layout_;
  PoolDispatch dispatch_;
  MemoryHierarchy* hierarchy_;
  JobManager* manager_;
  EngineOptions options_;
  // Replicated masters across all partitions — the scale against which the adaptive
  // deferral policy (EngineOptions::async_defer_divisor) judges a boundary hot or cold.
  uint64_t total_replicated_ = 0;
  // Per-push arenas, reused across calls: the partitions a pass runs one task for, each
  // task's record count, and (byte per partition, set through atomic_ref by broadcast
  // tasks) which destination partitions a broadcast wrote to.
  std::vector<PartitionId> sources_;
  std::vector<uint64_t> task_records_;
  std::vector<uint8_t> touched_;
  std::vector<VertexState*> state_bases_;  // Broadcast's per-call destination bases.
};

}  // namespace cgraph

#endif  // SRC_CORE_PUSH_STAGE_H_
