// A concurrent iterative graph-processing (CGP) job: a vertex program bound to its
// private state table, activity tracking, and synchronization buffer.

#ifndef SRC_CORE_JOB_H_
#define SRC_CORE_JOB_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/bitset.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/core/vertex_program.h"
#include "src/metrics/run_report.h"
#include "src/storage/private_table.h"

namespace cgraph {

// A buffered mirror->master state-synchronization record, an element of the paper's
// S_new queue (Algorithm 1 line 6 / Algorithm 2). The destination partition is implied by
// the bucket the record sits in, so only the local slot and the delta travel — which
// matters because the push stage streams millions of these per run.
struct BucketRecord {
  LocalVertexId local = 0;
  double delta = 0.0;
};

class Job {
 public:
  // Sentinel for "not admitted": the job holds no global-table slot.
  static constexpr uint32_t kInvalidSlot = 0xFFFFFFFFu;

  Job(JobId id, std::unique_ptr<VertexProgram> program, Timestamp submit_time)
      : id_(id), program_(std::move(program)), submit_time_(submit_time) {}

  JobId id() const { return id_; }
  VertexProgram& program() { return *program_; }
  const VertexProgram& program() const { return *program_; }
  Timestamp submit_time() const { return submit_time_; }

  PrivateTable& table() { return table_; }
  const PrivateTable& table() const { return table_; }

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  uint64_t iteration() const { return iteration_; }

  // Global-table registration index while admitted (kInvalidSlot when queued or done).
  // Distinct from id(): ids are unbounded, slots are bounded by EngineOptions::max_jobs
  // and recycled as jobs complete.
  uint32_t slot() const { return slot_; }

  JobStats& stats() { return stats_; }
  const JobStats& stats() const { return stats_; }

  // Per-partition initially-active vertex counts, the job's expected first-iteration
  // footprint. Computed lazily — only under footprint-aware admission policies, at the
  // job's first contended admission decision (empty otherwise); immutable afterwards.
  const std::vector<uint32_t>& footprint() const { return footprint_; }

 private:
  friend class LtpEngine;
  friend class BaselineExecutor;
  friend class JobManager;
  friend class LoadStage;
  friend class TriggerStage;
  friend class PushStage;

  JobId id_;
  std::unique_ptr<VertexProgram> program_;
  Timestamp submit_time_;

  PrivateTable table_;
  bool started_ = false;  // False until the engine admits the job (runtime arrival).
  uint32_t slot_ = kInvalidSlot;
  // Per-partition activity for the job's *current* iteration.
  std::vector<DynamicBitset> active_;
  std::vector<uint32_t> active_count_;
  // Driver-only: vector<bool> packs bits, so pool tasks never write these two.
  std::vector<bool> processed_;       // Partition handled in the current iteration?
  std::vector<bool> dirty_;           // Private partition touched since last Push?
  // Fraction of each partition's vertices whose state changed at the previous iteration;
  // feeds the scheduler's C(P) term.
  std::vector<double> change_fraction_;
  uint32_t remaining_ = 0;            // Active partitions still to process this iteration.
  // Push path: mirror deltas bound for their masters, one bucket per destination
  // partition, reused across iterations with capacity pre-reserved at admission
  // (counting-sort semantics — records land grouped by destination, so the merge sweep
  // stays successive per private partition without any std::sort). Written by one
  // collect task per job, drained by one merge task per bucket; released when the job
  // finishes.
  std::vector<std::vector<BucketRecord>> sync_in_;
  uint64_t iteration_ = 0;
  bool finished_ = false;
  JobStats stats_;
  // Per-job failure isolation (docs/robustness.md): a stage that detects a per-job
  // invariant violation (or an injected fault) records it here instead of aborting the
  // process; the engine's step loop routes a non-ok status into JobManager::FailJob,
  // which retires only this job. Reset at (re-)admission.
  Status fail_status_;
  // Step at which the job was (last) admitted; the base of the --job-step-budget clock.
  uint64_t admit_step_ = 0;
  // Set by LtpEngine::RestartFromCheckpoint while the job waits for re-admission:
  // InitJob then restores from the checkpoint instead of initializing fresh state.
  bool restore_pending_ = false;
  // Async (bounded-staleness) execution state; see docs/execution_modes.md. async_ is
  // the job's *effective* mode, fixed at init: options say async AND staleness > 0 AND
  // the program declares monotonic(). All three fields are untouched under BSP.
  bool async_ = false;
  // Iterations since the last master->mirror broadcast; a push is a sync boundary when
  // since_sync_ >= staleness, otherwise the broadcast is deferred.
  uint64_t since_sync_ = 0;
  // Per-partition deferred-broadcast accumulators, parallel to that partition's
  // replicated_masters(): the Acc-combination of the master deltas withheld since the
  // last sync, folded in just before each deferred swap and delivered (then reset to
  // the Acc identity) at the next sync boundary.
  std::vector<std::vector<double>> deferred_;
  std::vector<uint8_t> deferred_pending_;  // Partition has non-identity deferred deltas.
  // See footprint(); sized num_partitions when computed.
  std::vector<uint32_t> footprint_;
};

}  // namespace cgraph

#endif  // SRC_CORE_JOB_H_
