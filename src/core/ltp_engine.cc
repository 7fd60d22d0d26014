#include "src/core/ltp_engine.h"

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/common/timer.h"

namespace cgraph {

LtpEngine::LtpEngine(const PartitionedGraph* graph, const EngineOptions& options)
    : LtpEngine(options, graph, nullptr) {}

LtpEngine::LtpEngine(const SnapshotStore* snapshots, const EngineOptions& options)
    : LtpEngine(options, nullptr, snapshots) {}

LtpEngine::LtpEngine(const EngineOptions& options, const PartitionedGraph* graph,
                     const SnapshotStore* snapshots)
    : graph_(graph), snapshots_(snapshots), options_(options) {
  CGRAPH_CHECK(graph != nullptr || snapshots != nullptr);
  const PartitionedGraph& base = layout();
  hierarchy_ = std::make_unique<MemoryHierarchy>(options_.hierarchy);
  global_table_ = std::make_unique<GlobalTable>(base.num_partitions(), options_.max_jobs);
  scheduler_ = std::make_unique<Scheduler>(base, options_.use_scheduler, options_.theta_scale);
  pool_ = std::make_unique<ThreadPool>(options_.num_workers);
  manager_ = std::make_unique<JobManager>(base, global_table_.get(), scheduler_.get(),
                                          pool_.get(), options_);
  push_ = std::make_unique<PushStage>(base, pool_.get(), hierarchy_.get(), manager_.get(),
                                      options_);
  load_ = std::make_unique<LoadStage>(base, snapshots_, global_table_.get(), hierarchy_.get(),
                                      manager_.get(), options_);
  trigger_ = std::make_unique<TriggerStage>(pool_.get(), hierarchy_.get(), options_);
  injector_ = FaultInjector(options_.fault_specs, options_.fault_seed);
}

const PartitionedGraph& LtpEngine::layout() const {
  return snapshots_ != nullptr ? snapshots_->base() : *graph_;
}

LtpEngine::JobHandle LtpEngine::Submit(std::unique_ptr<VertexProgram> program,
                                       Timestamp submit_time) {
  ScopedThreadRole role(g_driver_role);
  // Arrival at the current step, not step 0: a later Submit must not queue-jump earlier
  // capacity-blocked waiters whose arrival step already passed (FIFO admission).
  const JobId id = manager_->Submit(std::move(program), submit_time, step_);
  manager_->AdmitDue(step_);  // Starts now when a slot is free; queues otherwise.
  return JobHandle(this, id);
}

LtpEngine::JobHandle LtpEngine::SubmitAt(std::unique_ptr<VertexProgram> program,
                                         uint64_t arrival_step, Timestamp submit_time) {
  ScopedThreadRole role(g_driver_role);
  const JobId id = manager_->Submit(std::move(program), submit_time, arrival_step);
  return JobHandle(this, id);
}

JobId LtpEngine::AddJob(std::unique_ptr<VertexProgram> program, Timestamp submit_time) {
  CGRAPH_CHECK(!ran_);
  CGRAPH_CHECK(manager_->num_jobs() < options_.max_jobs);
  return Submit(std::move(program), submit_time).id();
}

JobId LtpEngine::ScheduleJob(std::unique_ptr<VertexProgram> program, uint64_t arrival_step,
                             Timestamp submit_time) {
  CGRAPH_CHECK(!ran_);
  CGRAPH_CHECK(manager_->num_jobs() < options_.max_jobs);
  return SubmitAt(std::move(program), arrival_step, submit_time).id();
}

bool LtpEngine::Step() {
  ScopedThreadRole role(g_driver_role);
  WallTimer timer;
  // Jobs finishing during this step are stamped with the wall time accumulated *before*
  // it, mirroring the original engine's per-step clock update.
  manager_->set_elapsed_seconds(total_elapsed_);
  for (;;) {
    // Admit runtime arrivals whose step has come (paper section 3.4).
    manager_->AdmitDue(step_);
    // Execution budgets: a running job that exhausted --job-step-budget steps since its
    // admission is cancelled before this step processes anything (no-op when off).
    manager_->CancelOverBudget(step_);
    if (injector_.armed()) {
      // Simulated mid-run deadline expiry: cancel polls walk running jobs in ascending
      // slot order, so which job an unpinned spec hits is deterministic.
      for (uint32_t slot = 0; slot < options_.max_jobs; ++slot) {
        Job* job = manager_->JobAtSlot(slot);
        if (job != nullptr &&
            injector_.Poll(FaultKind::kCancel, step_, job->id()) != nullptr) {
          manager_->CancelRunning(*job);
        }
      }
    }
    const PartitionId p = scheduler_->PickNext(*global_table_);
    if (p == kInvalidPartition) {
      if (!manager_->HasWaiting()) {
        return false;  // No job needs any partition and none is coming: idle.
      }
      // Idle until the next scheduled arrival. (A due-but-queued waiter is impossible
      // here: with nothing registered there are no running jobs, so slots are free.)
      step_ = std::max(step_, manager_->NextArrivalStep());
      continue;
    }
    ProcessPartition(p);
    ++step_;
    manager_->set_current_step(step_);
    total_elapsed_ += timer.ElapsedSeconds();
    return true;
  }
}

void LtpEngine::RunUntilIdle() {
  while (Step()) {
  }
}

void LtpEngine::Wait(JobId id) {
  CGRAPH_CHECK(id < manager_->num_jobs());
  while (!manager_->job(id).finished()) {
    // A submitted job always becomes runnable eventually; running out of work with the
    // job unfinished would be an admission bug.
    CGRAPH_CHECK(Step());
  }
}

RunReport LtpEngine::Run() {
  CGRAPH_CHECK(!ran_);
  ran_ = true;
  // The memory tier starts cold: every structure copy and private table streams in from
  // disk on first use. Systems that share one structure copy therefore pay the initial
  // load once, per-job-copy systems pay it per job — part of what Figs. 2/13/19 measure.
  RunUntilIdle();
  return Report();
}

RunReport LtpEngine::Report() const {
  RunReport report;
  report.executor_name = options_.use_scheduler ? "cgraph-ltp" : "cgraph-without";
  report.workers = options_.num_workers;
  report.wall_seconds = total_elapsed_;
  for (JobId id = 0; id < manager_->num_jobs(); ++id) {
    report.jobs.push_back(manager_->job(id).stats());
  }
  report.cache = hierarchy_->cache().stats();
  report.memory = hierarchy_->memory().stats();
  report.partition = layout().quality();
  return report;
}

void LtpEngine::ProcessPartition(PartitionId p) {
  // Load: group the partition's registered jobs by resolved structure version so that
  // snapshot-sharing jobs are triggered off the same load. The span aliases LoadStage's
  // reused arenas — valid until the next FormGroups call, which cannot happen before
  // this loop finishes.
  const std::span<const LoadStage::VersionGroup> groups = load_->FormGroups(p);
  for (const LoadStage::VersionGroup& group : groups) {
    if (injector_.armed()) {
      // Load-stage faults fire before the structure load; the failed job drops out of
      // the group (every stage skips finished jobs) while its co-runners proceed.
      for (Job* job : group.jobs) {
        if (!job->finished_ &&
            injector_.Poll(FaultKind::kLoadError, step_, job->id()) != nullptr) {
          manager_->FailJob(*job, Status::Internal("injected load-stage fault at step " +
                                                   std::to_string(step_)));
        }
      }
    }
    load_->LoadStructure(p, group);
    // Trigger: process the pinned structure for every job in the group.
    trigger_->Run(p, *group.structure, group.jobs);
    load_->Release(p, group);
    // Collect every job's mirror deltas in one pooled batch; it touches only per-job
    // state, so running it ahead of the ordered loop below changes no decision.
    push_->Collect(p, group.jobs);
    // Push: per-job iteration bookkeeping; a job whose iteration completed pushes now.
    for (Job* job : group.jobs) {
      if (job->finished_) {
        continue;  // Failed or was cancelled earlier in this very step.
      }
      if (injector_.armed()) {
        if (injector_.Poll(FaultKind::kTriggerError, step_, job->id()) != nullptr) {
          manager_->FailJob(*job, Status::Internal("injected trigger-stage fault at step " +
                                                   std::to_string(step_)));
          continue;
        }
        if (injector_.Poll(FaultKind::kCorruptState, step_, job->id()) != nullptr) {
          CorruptJobState(*job);
          manager_->FailJob(*job, Status::Internal("injected state corruption at step " +
                                                   std::to_string(step_)));
          continue;
        }
      }
      if (manager_->MarkProcessed(*job, p)) {
        if (injector_.armed() &&
            injector_.Poll(FaultKind::kPushError, step_, job->id()) != nullptr) {
          manager_->FailJob(*job, Status::Internal("injected push-stage fault at step " +
                                                   std::to_string(step_)));
          continue;
        }
        push_->Push(*job);
      }
      // Per-job failure isolation: a stage that hit a per-job invariant violation (or an
      // injected error surfaced as one) recorded it on the job instead of aborting the
      // process — retire just this job and keep driving its co-runners.
      if (!job->finished_ && !job->fail_status_.ok()) {
        manager_->FailJob(*job, job->fail_status_);
      }
    }
  }
}

void LtpEngine::CorruptJobState(Job& job) {
  const PartitionedGraph& g = layout();
  if (g.num_vertices() == 0) {
    return;
  }
  // Deterministic target: the same (seed, job) always loses the same master vertex.
  const VertexId victim =
      static_cast<VertexId>(injector_.CorruptionPoint(job.id()) % g.num_vertices());
  const ReplicaRef master = g.master_of(victim);
  auto states = job.table().partition(master.partition);
  states[master.local].value = std::numeric_limits<double>::quiet_NaN();
  states[master.local].delta = std::numeric_limits<double>::quiet_NaN();
}

bool LtpEngine::Cancel(JobId id) {
  ScopedThreadRole role(g_driver_role);
  CGRAPH_CHECK(id < manager_->num_jobs());
  Job& job = manager_->job(id);
  if (job.finished()) {
    return false;  // Terminal already (completed, shed, cancelled, or failed).
  }
  if (!job.started()) {
    return manager_->CancelWaiting(id);
  }
  manager_->CancelRunning(job);
  return true;
}

Status LtpEngine::RestartFromCheckpoint(JobId id, uint64_t arrival_step) {
  ScopedThreadRole role(g_driver_role);
  const Status status = manager_->Reenqueue(id, arrival_step);
  if (status.ok()) {
    manager_->AdmitDue(step_);  // Resumes now when due and a slot is free.
  }
  return status;
}

bool LtpEngine::HasCheckpoint(JobId id) const {
  return id < manager_->num_jobs() && manager_->FindCheckpoint(id) != nullptr;
}

std::vector<double> LtpEngine::FinalValues(JobId id) const {
  return ReadMasters(layout(), manager_->job(id).table(), &VertexState::value);
}

Result<std::vector<double>> LtpEngine::TryFinalValues(JobId id) const {
  if (id >= manager_->num_jobs()) {
    return Status::NotFound("TryFinalValues: no job " + std::to_string(id));
  }
  const Job& job = manager_->job(id);
  const std::string label = "job " + std::to_string(id);
  if (!job.finished()) {
    return Status::FailedPrecondition("TryFinalValues: " + label + " has not finished");
  }
  const JobStats& stats = job.stats();
  if (stats.shed) {
    return Status::FailedPrecondition("TryFinalValues: " + label +
                                      " was shed while waiting; it never computed");
  }
  if (stats.cancelled) {
    return Status::FailedPrecondition("TryFinalValues: " + label + " was cancelled mid-run");
  }
  if (stats.failed) {
    return Status::FailedPrecondition("TryFinalValues: " + label +
                                      " failed: " + stats.fail_message);
  }
  return FinalValues(id);
}

std::vector<double> LtpEngine::FinalAux(JobId id) const {
  return ReadMasters(layout(), manager_->job(id).table(), &VertexState::aux);
}

}  // namespace cgraph
