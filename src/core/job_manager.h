// Job-service admission layer: owns every job's lifecycle from submission to completion.
//
// The paper's LTP engine is a continuously running service that admits concurrent jobs at
// runtime (section 3.4: "allows to add new jobs into SJobs at runtime"). The JobManager is
// that admission layer, decoupled from the Load/Trigger/Push pipeline:
//
//   * Submission creates a Job with a stable, unbounded JobId. Jobs become *runnable* once
//     their arrival step has come (immediately for plain Submit).
//   * Admission binds a runnable job to a global-table *slot* — the registration bit index,
//     bounded by EngineOptions::max_jobs. When all slots are busy the job waits in a
//     queue instead of crashing; completion of any running job admits a waiter chosen by
//     the configured AdmissionPolicy (EngineOptions::admission_policy). Under the default
//     FIFO policy admission is strict arrival order and — in every legacy scenario
//     (total jobs <= max_jobs, slot == id) — admission order, registration bits, and
//     hence the whole schedule are identical to the pre-layered engine. The overlap
//     policy instead admits the due waiter with the highest footprint overlap with the
//     running set (job-level scheduling; see src/core/admission_policy.h).
//   * All global-table registration (activation tracing) goes through the manager:
//     RefreshActivity registers next-iteration partitions, MarkProcessed retires them,
//     FinishJob clears every bit, frees the slot, and finalizes the job's stats — the
//     per-job report is complete the moment the job completes, not at engine teardown.

#ifndef SRC_CORE_JOB_MANAGER_H_
#define SRC_CORE_JOB_MANAGER_H_

#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "src/common/function_ref.h"
#include "src/common/status.h"
#include "src/common/thread_annotations.h"
#include "src/core/admission_policy.h"
#include "src/core/checkpoint_store.h"
#include "src/core/engine_options.h"
#include "src/core/job.h"
#include "src/core/scheduler.h"
#include "src/partition/partitioned_graph.h"
#include "src/runtime/pool_dispatch.h"
#include "src/runtime/thread_pool.h"
#include "src/storage/global_table.h"

namespace cgraph {

class JobManager {
 public:
  // `layout`, `table`, `scheduler`, and `pool` are borrowed from the engine and must
  // outlive this. `pool` may be null: every bookkeeping sweep then runs inline.
  JobManager(const PartitionedGraph& layout, GlobalTable* table, Scheduler* scheduler,
             ThreadPool* pool, const EngineOptions& options);

  JobManager(const JobManager&) = delete;
  JobManager& operator=(const JobManager&) = delete;

  // Creates a job that becomes runnable once the engine reaches `arrival_step`. Never
  // blocks and never rejects: jobs beyond the concurrency limit queue. Call AdmitDue() to
  // start whatever can start.
  //
  // Pre:  called any time, including mid-drive (online submission).
  // Post: the job exists with a stable id == its submission index; an arrival step in the
  //       past is clamped to the current step (a later Submit cannot queue-jump already-
  //       due waiters).
  JobId Submit(std::unique_ptr<VertexProgram> program, Timestamp submit_time,
               uint64_t arrival_step) CGRAPH_REQUIRES_DRIVER;

  // Admits waiting jobs while slots are free: each free slot goes to the due waiter
  // (arrival_step <= step) chosen by the configured AdmissionPolicy — strict arrival
  // order under FIFO, maximum running-set overlap (with aging) under overlap. When no
  // slot is free, every due waiter keeps waiting; policy decisions depend only on
  // modeled state, so interleavings stay deterministic across runs and worker counts.
  //
  // Post: either no waiter is due or all slots are occupied; admitted jobs have
  //       stats().wait_steps and stats().admit_overlap recorded.
  void AdmitDue(uint64_t step) CGRAPH_REQUIRES_DRIVER;

  // Cancels a job that is still waiting for admission (the service layer's shed hook:
  // deadline expiry and queue-bound backpressure both retire queued work through here).
  //
  // Pre:  `id` was returned by Submit on this manager.
  // Post: returns true iff the job was waiting — it is then finished with
  //       stats().shed = true, zero work, and finish_step stamped; it never held a slot
  //       and FinalValues-style readback is invalid for it. Returns false (no-op) when
  //       the job already started or finished: running jobs are never shed, they bound
  //       queue wait, not execution (docs/service.md).
  bool CancelWaiting(JobId id) CGRAPH_REQUIRES_DRIVER;

  // True when no job is running and none is waiting.
  bool AllIdle() const CGRAPH_REQUIRES_DRIVER_SHARED {
    return running_ == 0 && waiting_.empty();
  }
  bool HasWaiting() const CGRAPH_REQUIRES_DRIVER_SHARED { return !waiting_.empty(); }
  // Jobs submitted but not yet admitted (includes future-scheduled arrivals). The
  // service layer's backpressure signal: a bounded daemon sheds at the door when this
  // reaches its queue bound.
  size_t NumWaiting() const CGRAPH_REQUIRES_DRIVER_SHARED { return waiting_.size(); }
  uint32_t NumRunning() const CGRAPH_REQUIRES_DRIVER_SHARED { return running_; }
  // Smallest arrival step among waiting jobs; only meaningful when HasWaiting().
  uint64_t NextArrivalStep() const CGRAPH_REQUIRES_DRIVER_SHARED;

  size_t num_jobs() const { return jobs_.size(); }
  Job& job(JobId id) { return *jobs_[id]; }
  const Job& job(JobId id) const { return *jobs_[id]; }
  // The running job holding `slot`, or nullptr.
  Job* JobAtSlot(uint32_t slot) const CGRAPH_REQUIRES_DRIVER_SHARED {
    return slot_jobs_[slot];
  }

  // Activation tracing (paper section 3.2.2): recomputes the job's activity and
  // next-iteration global-table registration with the program's refresh kernel.
  // `swap_buffers` applies the delta double-buffer swap (post-Push); `all_partitions`
  // sweeps everything instead of only dirty partitions.
  //
  // Pre:  the job is running (holds a slot).
  // Post: the global table registers exactly the partitions where the job has active
  //       vertices; returns the active-vertex total (0 means the job converged).
  uint64_t RefreshActivity(Job& job, bool all_partitions, bool swap_buffers)
      CGRAPH_REQUIRES_DRIVER;

  // kNewPhase: the program's re-init kernel over every partition, then activity and
  // registration as RefreshActivity leaves them.
  uint64_t ReinitPhase(Job& job) CGRAPH_REQUIRES_DRIVER;

  // Marks partition p handled for the job's current iteration and retires its
  // registration.
  //
  // Pre:  p is registered for the job this iteration (remaining() > 0). A violation is a
  //       *per-job* accounting failure: it sets the job's fail_status_ (the engine then
  //       routes it through FailJob) and returns false rather than aborting the process.
  // Post: returns true when it was the last partition — the iteration boundary, after
  //       which the caller runs Push and RefreshActivity.
  bool MarkProcessed(Job& job, PartitionId p) CGRAPH_REQUIRES_DRIVER;

  // --- Fault tolerance (docs/robustness.md) --------------------------------------

  // Retires a running job through per-job failure isolation: terminal stats().failed
  // with `status` recorded, slot freed through the normal FinalizeJob path (admission /
  // footprint bookkeeping stays consistent, co-running jobs are untouched), and the
  // freed slot immediately admits the next due waiter.
  //
  // Pre:  the job is running (holds a slot); `status` is non-ok.
  void FailJob(Job& job, Status status) CGRAPH_REQUIRES_DRIVER;

  // Cancels a running job mid-run: terminal stats().cancelled, slot freed via
  // FinalizeJob, next due waiter admitted. The running-job counterpart of
  // CancelWaiting.
  //
  // Pre: the job is running (holds a slot).
  void CancelRunning(Job& job) CGRAPH_REQUIRES_DRIVER;

  // Enforces EngineOptions::job_step_budget: cancels (via the CancelRunning path) every
  // running job admitted at least `job_step_budget` steps ago. Returns the number
  // cancelled; no-op returning 0 when the budget is off.
  uint32_t CancelOverBudget(uint64_t step) CGRAPH_REQUIRES_DRIVER;

  // Re-queues a terminally failed/cancelled job for re-admission from its latest
  // checkpoint at `arrival_step` (clamped to now). On admission the job resumes from
  // the checkpointed iteration instead of initializing fresh state.
  //
  // Errors: kFailedPrecondition when the job is not terminally failed/cancelled (or is
  // already queued for restore); kNotFound when it has no checkpoint.
  Status Reenqueue(JobId id, uint64_t arrival_step) CGRAPH_REQUIRES_DRIVER;

  // The job's latest checkpoint, or nullptr (also nullptr whenever checkpointing is
  // off).
  const JobCheckpoint* FindCheckpoint(JobId id) const;

  // Push-stage hook: snapshots the job at the current iteration boundary when
  // checkpointing is on and the iteration index is a multiple of checkpoint_every.
  // Increments stats().checkpoints_taken / checkpoint_bytes *before* snapshotting, so a
  // restored job reproduces the undisturbed run's later checkpoint counts.
  void MaybeCheckpoint(Job& job) CGRAPH_REQUIRES_DRIVER;

  // Completes the job.
  //
  // Pre:  the job is running (holds a slot).
  // Post: finished() is true, stats are final (wall clock stamped), every registration
  //       bit is cleared, and the freed slot has already admitted the admission
  //       policy's next pick if any waiter was due.
  void FinishJob(Job& job) CGRAPH_REQUIRES_DRIVER;

  // Mean change fraction of p over running jobs — C(P) of scheduler Eq. 1.
  double MeanStateChange(PartitionId p) const;

  // Engine-maintained clocks, consumed by FinishJob (stats) and slot-release admission.
  void set_elapsed_seconds(double seconds) CGRAPH_REQUIRES_DRIVER {
    elapsed_seconds_ = seconds;
  }
  void set_current_step(uint64_t step) CGRAPH_REQUIRES_DRIVER { current_step_ = step; }

 private:
  // Binds the job to `slot` and initializes its private table, activity, and first
  // registrations in one init-kernel sweep. Jobs with no initially active vertex finalize
  // immediately (the caller's admit loop reuses the freed slot; no recursion).
  // Restore-pending jobs take the RestoreJob path instead of fresh initialization.
  void InitJob(Job& job, uint32_t slot) CGRAPH_REQUIRES_DRIVER;
  // The run state InitJob and RestoreJob both rebuild before their all-partition sweep
  // (which overwrites the change fractions), and the effective execution mode.
  void ResetRunState(Job& job) CGRAPH_REQUIRES_DRIVER;
  // Restore half of InitJob: rebuilds the job's runtime state from its latest checkpoint
  // (vertex states, async windows, stats snapshot) and re-derives activity masks,
  // counts, and registrations by re-sweeping the restored states — at an iteration
  // boundary those are pure functions of the states, so the rebuild is exact.
  void RestoreJob(Job& job) CGRAPH_REQUIRES_DRIVER;
  // Completion bookkeeping without follow-on admission: final stats, registration
  // teardown, slot release, and release of the push-path buffers (sync buckets,
  // activity masks, deferred windows) that InitJob/RestoreJob rebuild on re-admission.
  void FinalizeJob(Job& job) CGRAPH_REQUIRES_DRIVER;
  // A free slot for `job`, or Job::kInvalidSlot when all are busy: the job's own id when
  // available (legacy bit-identity), else the smallest free one.
  uint32_t AllocateSlot(const Job& job) const CGRAPH_REQUIRES_DRIVER_SHARED;

  // A mask-writing kernel(p, begin, end) over `parts` through SweepPartitions, then the
  // counts, C(P) inputs and registrations on the driver in ascending partition order.
  // Returns the active-vertex total.
  uint64_t SweepActivity(Job& job, std::span<const PartitionId> parts,
                         FunctionRef<uint32_t(PartitionId, size_t, size_t)> kernel)
      CGRAPH_REQUIRES_DRIVER;

  // The one dispatch path of the per-vertex sweeps (init, footprints, activity refresh,
  // phase re-init): runs body(p, begin, end) over kSweepGrain-vertex chunks of every
  // partition in `parts`, one pool task per chunk when those partitions together hold at
  // least EngineOptions::parallel_sweep_threshold vertices, inline otherwise. body returns
  // a per-chunk count; the result holds their per-partition sums, indexed like `parts`
  // and valid until the next call. Chunks are whole bitmask words, so bodies may Set()
  // bits of a shared DynamicBitset, and integer sums make the result order-independent.
  std::span<const uint32_t> SweepPartitions(
      std::span<const PartitionId> parts,
      FunctionRef<uint32_t(PartitionId, size_t, size_t)> body) CGRAPH_REQUIRES_DRIVER;

  const PartitionedGraph& layout_;
  GlobalTable* table_;
  Scheduler* scheduler_;
  PoolDispatch dispatch_;
  EngineOptions options_;

  std::vector<std::unique_ptr<Job>> jobs_;
  // slot -> running job (nullptr when free).
  std::vector<Job*> slot_jobs_ CGRAPH_GUARDED_BY_DRIVER;
  struct Waiter {
    JobId job;
    uint64_t arrival_step;
  };
  // Sorted by (arrival_step, submission order).
  std::deque<Waiter> waiting_ CGRAPH_GUARDED_BY_DRIVER;
  std::unique_ptr<AdmissionPolicy> policy_;
  // Allocated only when EngineOptions::checkpoint_every > 0; null = checkpointing off.
  std::unique_ptr<CheckpointStore> checkpoints_;
  // AdmitDue's candidate arena, reused across calls (no per-admission allocation).
  std::vector<AdmissionPolicy::Candidate> candidates_ CGRAPH_GUARDED_BY_DRIVER;
  uint32_t running_ CGRAPH_GUARDED_BY_DRIVER = 0;
  double elapsed_seconds_ CGRAPH_GUARDED_BY_DRIVER = 0.0;
  uint64_t current_step_ CGRAPH_GUARDED_BY_DRIVER = 0;
  // SweepPartitions arenas, reused across calls: every partition id in order, the
  // partitions a refresh sweeps, the chunk tasks, and the per-partition sums.
  struct SweepTask {
    uint32_t part_index;  // Index into the swept `parts` span.
    PartitionId partition;
    uint32_t begin;
    uint32_t end;
    uint32_t count;
  };
  std::vector<PartitionId> all_partitions_;
  std::vector<PartitionId> refresh_parts_ CGRAPH_GUARDED_BY_DRIVER;
  std::vector<SweepTask> sweep_tasks_;
  std::vector<uint32_t> sweep_counts_ CGRAPH_GUARDED_BY_DRIVER;
};

}  // namespace cgraph

#endif  // SRC_CORE_JOB_MANAGER_H_
