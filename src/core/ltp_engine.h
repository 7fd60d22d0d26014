// The data-centric Load-Trigger-Pushing (LTP) execution engine — the paper's core
// contribution (sections 3.1, 3.2, 3.4; Algorithms 1-3) — as a layered job service.
//
// The engine composes four runtime layers, each in its own translation unit:
//
//   JobManager    — job lifecycle: submission, admission (a bounded slot pool with a FIFO
//                   waiting queue instead of a hard capacity crash), activation-tracing
//                   registration, and per-job report finalization at completion;
//   LoadStage     — for the partition the Scheduler picks (Eq. 1): snapshot-version
//                   resolve and shared-structure charging;
//   TriggerStage  — per-partition concurrent triggering of all registered jobs (job
//                   batches rotate private tables while the structure stays pinned;
//                   straggler splitting balances skewed jobs across free cores);
//   PushStage     — mirror-delta merge/broadcast, buffer swap, activity refresh, and the
//                   iteration-boundary protocol with the vertex program.
//
// The service API admits jobs online: Submit() hands back a JobHandle immediately, Step()
// executes one partition-scheduling step, RunUntilIdle() drains all runnable work, and
// Wait() drives until a specific job completes. New jobs may be submitted between steps or
// after the engine went idle — the paper's "allows to add new jobs into SJobs at runtime"
// (section 3.4). Everything is deterministic and thread-free at this level (workers
// parallelize only the per-job data movement inside a step: trigger, mirror collect,
// push merge/broadcast, activity sweeps), so arrival interleavings are reproducible in
// tests.
//
// Run() survives as a one-shot batch wrapper over Submit/RunUntilIdle for legacy callers.
//
// When constructed over a SnapshotStore, each job binds to the newest snapshot not newer
// than its submit time; jobs on different snapshots still share every unchanged partition
// version (section 3.2.1, Figs. 16-19).

#ifndef SRC_CORE_LTP_ENGINE_H_
#define SRC_CORE_LTP_ENGINE_H_

#include <memory>
#include <vector>

#include "src/cache/memory_hierarchy.h"
#include "src/common/check.h"
#include "src/common/fault_injection.h"
#include "src/common/thread_annotations.h"
#include "src/common/status.h"
#include "src/core/engine_options.h"
#include "src/core/job.h"
#include "src/core/job_manager.h"
#include "src/core/load_stage.h"
#include "src/core/push_stage.h"
#include "src/core/scheduler.h"
#include "src/core/trigger_stage.h"
#include "src/core/vertex_program.h"
#include "src/metrics/run_report.h"
#include "src/partition/partitioned_graph.h"
#include "src/runtime/thread_pool.h"
#include "src/storage/global_table.h"
#include "src/storage/snapshot_store.h"

namespace cgraph {

class LtpEngine {
 public:
  // Lightweight reference to a submitted job; valid as long as the engine lives.
  class JobHandle {
   public:
    JobHandle() = default;
    JobId id() const { return id_; }
    bool valid() const { return engine_ != nullptr; }
    inline bool done() const;
    inline const JobStats& stats() const;
    inline void Wait() const;

   private:
    friend class LtpEngine;
    JobHandle(LtpEngine* engine, JobId id) : engine_(engine), id_(id) {}
    LtpEngine* engine_ = nullptr;
    JobId id_ = kInvalidJob;
  };

  // Single-snapshot engine over a prepartitioned graph (not owned; must outlive this).
  LtpEngine(const PartitionedGraph* graph, const EngineOptions& options);

  // Snapshot-aware engine; jobs resolve partition versions by submit time.
  LtpEngine(const SnapshotStore* snapshots, const EngineOptions& options);

  LtpEngine(const LtpEngine&) = delete;
  LtpEngine& operator=(const LtpEngine&) = delete;

  // --- Service API -----------------------------------------------------------------

  // Submits a job for online execution. `submit_time` selects the snapshot (ignored
  // without a store).
  //
  // Pre:  callable at any point in the engine's life (before, between, after drives).
  // Post: the job starts immediately when the admission policy grants it a free
  //       concurrency slot, otherwise it queues and starts when one frees up; the
  //       returned handle stays valid for the engine's lifetime.
  JobHandle Submit(std::unique_ptr<VertexProgram> program, Timestamp submit_time = 0);

  // Like Submit(), but the job becomes runnable only once `arrival_step` partition-
  // scheduling steps have executed (deterministic arrival injection). An arrival step
  // already in the past is clamped to "due now" without overtaking earlier due waiters.
  JobHandle SubmitAt(std::unique_ptr<VertexProgram> program, uint64_t arrival_step,
                     Timestamp submit_time = 0);

  // Executes one partition-scheduling step: admits due arrivals, loads the highest-
  // priority partition, triggers its jobs, and pushes any finished iterations. Fast-
  // forwards over idle gaps to the next scheduled arrival.
  //
  // Post: returns false iff the engine is idle (no running and no waiting jobs); on
  //       true, current_step() advanced by one — plus any idle gap skipped to reach
  //       the next scheduled arrival.
  bool Step();

  // Drives Step() until the engine is idle. Post: AllIdle; every job submitted so far
  // has finished (each converges or hits max_iterations_per_job, so this terminates).
  void RunUntilIdle();

  // Drives the engine until job `id` completes.
  //
  // Pre:  `id` was returned by a Submit/SubmitAt/AddJob/ScheduleJob call on this engine.
  // Post: job(id).finished(); other jobs may have progressed but not necessarily done.
  void Wait(JobId id);

  // Point-in-time report over all jobs submitted so far. Per-job stats — including the
  // admission diagnostics wait_steps/admit_overlap (docs/scheduling.md) — are final once
  // the job completed; hierarchy totals cover everything executed so far.
  RunReport Report() const;

  // Partition-scheduling steps executed so far.
  uint64_t current_step() const { return step_; }

  // --- Service-daemon hooks (src/service/; see docs/service.md) ------------------

  // Jobs submitted but not yet admitted — the daemon's backpressure signal.
  size_t NumWaiting() const {
    ScopedThreadRole role(g_driver_role);
    return manager_->NumWaiting();
  }

  // Jobs holding a concurrency slot, and N(P): the jobs registered on partition p for
  // its next iteration. Fig. 1 (bench/paper_figures.cc) samples both after each Step().
  uint32_t NumRunning() const {
    ScopedThreadRole role(g_driver_role);
    return manager_->NumRunning();
  }
  uint32_t RegisteredCount(PartitionId p) const { return global_table_->RegisteredCount(p); }

  // Sheds a job that is still queued for admission (deadline expiry / queue bound).
  // Returns true iff the job was waiting; it is then finished with stats().shed set and
  // zero work. Running or finished jobs are untouched (returns false).
  bool CancelWaiting(JobId id) {
    ScopedThreadRole role(g_driver_role);
    return manager_->CancelWaiting(id);
  }

  // Mutable per-job stats for service-layer annotations (coalesced_callers,
  // deadline_step). Engine behavior never reads these fields; modeled metrics are
  // unaffected by any value written here.
  JobStats& MutableStats(JobId id) { return manager_->job(id).stats(); }

  // --- Fault tolerance (docs/robustness.md) --------------------------------------

  // Cancels a job in any pre-terminal state: a waiting job is shed (stats().shed, as
  // CancelWaiting), a running job is retired mid-run (terminal stats().cancelled, slot
  // freed through the normal finalization path, co-running jobs untouched). Returns
  // false iff the job already finished.
  //
  // Pre: `id` was returned by a Submit-family call on this engine.
  bool Cancel(JobId id);

  // Re-admits a terminally failed/cancelled job (or a checkpointed job that was shed
  // while re-waiting for a slot) from its latest checkpoint, arriving at `arrival_step`
  // (clamped to now; admitted immediately when due and a slot is free). The restored
  // job resumes at the checkpointed iteration and converges to the same final values
  // as an undisturbed run.
  //
  // Errors: kFailedPrecondition when the job is not terminally failed/cancelled/shed;
  // kNotFound for an unknown id or a job without a checkpoint (checkpointing off, or
  // the job failed before its first --checkpoint-every boundary).
  Status RestartFromCheckpoint(JobId id, uint64_t arrival_step);

  // True when `id` has a restart point (EngineOptions::checkpoint_every > 0 and the job
  // passed at least one checkpoint boundary since its last clean completion).
  bool HasCheckpoint(JobId id) const;

  // Specs fired so far by the fault-injection harness (0 when unarmed).
  size_t faults_fired() const { return injector_.fired(); }

  // --- Legacy batch API ------------------------------------------------------------

  // Registers a job. Must be called before Run(); admission beyond max_jobs is a
  // programmer error here (Submit() queues instead).
  JobId AddJob(std::unique_ptr<VertexProgram> program, Timestamp submit_time = 0);

  // Schedules a job to arrive after `arrival_step` steps (paper section 3.4). Must be
  // called before Run().
  JobId ScheduleJob(std::unique_ptr<VertexProgram> program, uint64_t arrival_step,
                    Timestamp submit_time = 0);

  // One-shot batch wrapper: executes every job to convergence and returns the report.
  RunReport Run();

  size_t num_jobs() const { return manager_->num_jobs(); }
  const Job& job(JobId id) const { return manager_->job(id); }
  const MemoryHierarchy& hierarchy() const { return *hierarchy_; }
  const EngineOptions& options() const { return options_; }

  // Readback once a job finished: value/aux of every global vertex, from master replicas.
  // Pre: the job *completed* — readback from a shed/cancelled/failed job is invalid (a
  // shed job holds no table at all). Use TryFinalValues when the terminal state is not
  // known statically.
  std::vector<double> FinalValues(JobId id) const;
  std::vector<double> FinalAux(JobId id) const;

  // Terminal-state-aware readback (docs/service.md): the converged values for completed
  // jobs; kFailedPrecondition naming the terminal state (still pending / shed /
  // cancelled / failed, with the failure message) otherwise; kNotFound for unknown ids.
  // Never hangs and never touches a recycled slot.
  Result<std::vector<double>> TryFinalValues(JobId id) const;

 private:
  // Shared constructor target: both public constructors delegate here and differ only in
  // which of `graph` / `snapshots` is set.
  LtpEngine(const EngineOptions& options, const PartitionedGraph* graph,
            const SnapshotStore* snapshots);

  // The partition layout (vertex membership / replica routing), identical across
  // snapshot versions.
  const PartitionedGraph& layout() const;

  // Load -> Trigger -> Push for one picked partition. Fault-injection polls and the
  // fail_status_ routing (per-job failure isolation) live here, between the stages.
  void ProcessPartition(PartitionId p) CGRAPH_REQUIRES_DRIVER;

  // Scribbles NaN into one deterministically chosen vertex of the job's private table
  // (the kCorruptState payload) so recovery tests can prove a restore discards damage.
  void CorruptJobState(Job& job) CGRAPH_REQUIRES_DRIVER;

  const PartitionedGraph* graph_ = nullptr;
  const SnapshotStore* snapshots_ = nullptr;
  EngineOptions options_;

  std::unique_ptr<MemoryHierarchy> hierarchy_;
  std::unique_ptr<GlobalTable> global_table_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<JobManager> manager_;
  std::unique_ptr<PushStage> push_;
  std::unique_ptr<LoadStage> load_;
  std::unique_ptr<TriggerStage> trigger_;

  FaultInjector injector_;      // Unarmed (one boolean per poll guard) without specs.
  uint64_t step_ = 0;           // Partition-scheduling steps executed.
  double total_elapsed_ = 0.0;  // Wall seconds spent inside Step() so far.
  bool ran_ = false;            // Legacy Run() called (guards the one-shot contract).
};

inline bool LtpEngine::JobHandle::done() const {
  CGRAPH_CHECK(valid());
  return engine_->job(id_).finished();
}
inline const JobStats& LtpEngine::JobHandle::stats() const {
  CGRAPH_CHECK(valid());
  return engine_->job(id_).stats();
}
inline void LtpEngine::JobHandle::Wait() const {
  CGRAPH_CHECK(valid());
  engine_->Wait(id_);
}

}  // namespace cgraph

#endif  // SRC_CORE_LTP_ENGINE_H_
