#include "src/baselines/baseline_executor.h"

#include <algorithm>
#include <numeric>
#include <string>

#include "src/common/check.h"
#include "src/common/prng.h"
#include "src/common/status.h"
#include "src/common/timer.h"

namespace cgraph {

const char* BaselineSystemName(BaselineSystem system) {
  switch (system) {
    case BaselineSystem::kSequential:
      return "sequential";
    case BaselineSystem::kSeraph:
      return "seraph";
    case BaselineSystem::kSeraphVt:
      return "seraph-vt";
    case BaselineSystem::kNxgraph:
      return "nxgraph";
    case BaselineSystem::kClip:
      return "clip";
  }
  return "unknown";
}

BaselineExecutor::BaselineExecutor(const PartitionedGraph* graph,
                                   const BaselineOptions& options)
    : graph_(graph), options_(options) {
  CGRAPH_CHECK(graph != nullptr);
  hierarchy_ = std::make_unique<MemoryHierarchy>(options_.engine.hierarchy);
  pool_ = std::make_unique<ThreadPool>(options_.engine.num_workers);
}

BaselineExecutor::BaselineExecutor(const SnapshotStore* snapshots,
                                   const BaselineOptions& options)
    : snapshots_(snapshots), options_(options) {
  CGRAPH_CHECK(snapshots != nullptr);
  hierarchy_ = std::make_unique<MemoryHierarchy>(options_.engine.hierarchy);
  pool_ = std::make_unique<ThreadPool>(options_.engine.num_workers);
}

const PartitionedGraph& BaselineExecutor::layout() const {
  return snapshots_ != nullptr ? snapshots_->base() : *graph_;
}

ItemKey BaselineExecutor::StructureKey(const Job& job, PartitionId p) const {
  ItemKey key;
  key.kind = DataKind::kStructure;
  key.partition = p;
  // Ownership policy: single-job engines own private copies; Seraph-family shares one.
  const bool per_job_copy = options_.system == BaselineSystem::kNxgraph ||
                            options_.system == BaselineSystem::kClip;
  key.owner = per_job_copy ? job.id() : kSharedOwner;
  if (snapshots_ == nullptr) {
    key.version = 0;
    return key;
  }
  if (options_.system == BaselineSystem::kSeraph ||
      options_.system == BaselineSystem::kSequential) {
    // Plain Seraph materializes every distinct snapshot as a full structure copy: even
    // unchanged partitions get a snapshot-specific version id.
    const auto it = std::find(snapshot_ordinals_.begin(), snapshot_ordinals_.end(),
                              job.submit_time());
    CGRAPH_CHECK(it != snapshot_ordinals_.end());
    key.version = static_cast<uint32_t>(it - snapshot_ordinals_.begin());
  } else {
    // Version-Traveler-style: unchanged partitions share one version.
    key.version = snapshots_->ResolveVersionIndex(p, job.submit_time());
  }
  return key;
}

const GraphPartition& BaselineExecutor::ResolveData(const Job& job, PartitionId p) const {
  if (snapshots_ == nullptr) {
    return graph_->partition(p);
  }
  return snapshots_->Resolve(p, job.submit_time());
}

JobId BaselineExecutor::AddJob(std::unique_ptr<VertexProgram> program, Timestamp submit_time) {
  CGRAPH_CHECK(!ran_);
  const JobId id = static_cast<JobId>(added_.size());
  added_.emplace_back(std::move(program), submit_time);
  if (std::find(snapshot_ordinals_.begin(), snapshot_ordinals_.end(), submit_time) ==
      snapshot_ordinals_.end()) {
    snapshot_ordinals_.push_back(submit_time);
    std::sort(snapshot_ordinals_.begin(), snapshot_ordinals_.end());
  }
  // Job-specific traversal order: a deterministic shuffle keyed by the job id. This is
  // the paper's "individual manner along different graph paths" — no two jobs stream the
  // shared partitions in the same order.
  std::vector<PartitionId> order(layout().num_partitions());
  std::iota(order.begin(), order.end(), PartitionId{0});
  Xoshiro256 rng(0xC0FFEEull + id * 7919ull);
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  traversal_order_.push_back(std::move(order));
  cursor_.push_back(0);
  return id;
}

RunReport BaselineExecutor::Run() {
  CGRAPH_CHECK(!ran_);
  ran_ = true;
  ScopedThreadRole role(g_driver_role);
  const PartitionedGraph& g = layout();

  // Every added job is admitted up front, one slot each, so all of them run at once. The
  // substrate runs BSP pushes only and takes no checkpoints: the baselines model
  // synchronous engines, and the LTP engine's service features are not theirs.
  EngineOptions engine = options_.engine;
  engine.max_jobs = std::max<uint32_t>(1, static_cast<uint32_t>(added_.size()));
  engine.admission_policy = AdmissionPolicyKind::kFifo;
  engine.execution_mode = ExecutionMode::kBsp;
  engine.checkpoint_every = 0;
  global_table_ = std::make_unique<GlobalTable>(g.num_partitions(), engine.max_jobs);
  scheduler_ = std::make_unique<Scheduler>(g, engine.use_scheduler, engine.theta_scale);
  manager_ = std::make_unique<JobManager>(g, global_table_.get(), scheduler_.get(),
                                          pool_.get(), engine);
  trigger_ = std::make_unique<TriggerStage>(pool_.get(), hierarchy_.get(), engine);
  push_ = std::make_unique<PushStage>(g, pool_.get(), hierarchy_.get(), manager_.get(), engine);
  for (auto& [program, submit_time] : added_) {
    manager_->Submit(std::move(program), submit_time, /*arrival_step=*/0);
  }
  added_.clear();
  manager_->AdmitDue(0);

  WallTimer timer;
  const size_t num_jobs = manager_->num_jobs();
  if (options_.system == BaselineSystem::kSequential) {
    // One job at a time, modeling a fresh engine process per job: both the cache and the
    // memory tier start cold, so every job re-streams the graph from disk — exactly the
    // "sequential way" the paper's Fig. 2 and Fig. 19 normalize against.
    for (JobId id = 0; id < num_jobs; ++id) {
      Job& job = manager_->job(id);
      hierarchy_->FlushCache();
      hierarchy_->ClearMemory();
      while (!job.finished()) {
        manager_->set_elapsed_seconds(timer.ElapsedSeconds());
        StepJob(job);
      }
    }
  } else {
    // Concurrent jobs: round-robin at partition granularity, which interleaves the
    // individual access streams in the shared LLC.
    for (bool any = true; any;) {
      any = false;
      for (JobId id = 0; id < num_jobs; ++id) {
        Job& job = manager_->job(id);
        if (!job.finished()) {
          manager_->set_elapsed_seconds(timer.ElapsedSeconds());
          StepJob(job);
          any = true;
        }
      }
    }
  }

  RunReport report;
  report.executor_name = BaselineSystemName(options_.system);
  report.workers = options_.engine.num_workers;
  report.wall_seconds = timer.ElapsedSeconds();
  for (JobId id = 0; id < num_jobs; ++id) {
    report.jobs.push_back(manager_->job(id).stats());
  }
  report.cache = hierarchy_->cache().stats();
  report.memory = hierarchy_->memory().stats();
  report.partition = g.quality();
  return report;
}

void BaselineExecutor::StepJob(Job& job) {
  // Next unprocessed active partition in this job's own order.
  const auto& order = traversal_order_[job.id()];
  size_t& cur = cursor_[job.id()];
  bool found = false;
  for (size_t scanned = 0; scanned < order.size() && !found; ++scanned) {
    const PartitionId p = order[cur];
    cur = (cur + 1) % order.size();
    if (job.active_count_[p] > 0 && !job.processed_[p]) {
      ProcessPartitionForJob(job, p);
      found = true;
    }
  }
  if (!found) {
    // A running job always holds an unprocessed active partition; losing track of it is
    // this job's accounting failure alone.
    job.fail_status_ = Status::Internal("StepJob: job " + std::to_string(job.id()) +
                                        " is running with no unprocessed active partition");
  }
  // Per-job failure isolation, as in the engine's step loop: retire just this job.
  if (!job.finished() && !job.fail_status_.ok()) {
    manager_->FailJob(job, job.fail_status_);
  }
}

void BaselineExecutor::ProcessPartitionForJob(Job& job, PartitionId p) {
  const GraphPartition& part = ResolveData(job, p);
  const ItemKey structure_key = StructureKey(job, p);
  const uint32_t touched = ExpectedTouchedSegments(
      part.structure_bytes(), options_.engine.hierarchy.cache_segment_bytes,
      job.active_count_[p], part.num_local_vertices());
  job.stats_.charge +=
      hierarchy_->AccessPrefix(structure_key, part.structure_bytes(), touched, /*pin=*/true);
  Job* const group[] = {&job};
  trigger_->Run(p, part, group);
  if (options_.system == BaselineSystem::kClip) {
    ReentryRounds(job, p, part);
    StrayReads(job, p);
  }
  hierarchy_->UnpinItem(structure_key, part.structure_bytes());
  push_->Collect(p, group);
  if (manager_->MarkProcessed(job, p)) {
    push_->Push(job);
  }
}

void BaselineExecutor::ReentryRounds(Job& job, PartitionId p, const GraphPartition& part) {
  // CLIP's reentry: re-iterate the loaded partition until locally quiescent. To keep
  // replica semantics exact, only unreplicated vertices (single-copy masters) may consume
  // their locally accumulated deltas early — in a power-law vertex-cut the bulk of
  // vertices qualify, which is where reentry's iteration savings come from.
  VertexProgram& program = job.program();
  const AccKind kind = program.acc_kind();
  const double identity = AccIdentity(kind);
  auto states = job.table_.partition(p);
  ScatterOps ops(kind, states);
  uint64_t vertex_computes = 0;
  for (uint32_t round = 0; round < options_.clip_reentry_limit; ++round) {
    bool changed = false;
    // Descending sweep: a propagation chain laid out in storage order advances a bounded
    // number of hops per load (limit * 1), rather than collapsing in one lucky pass —
    // matching the bounded gains reentry has on real, imperfectly-ordered graphs.
    for (LocalVertexId v = part.num_local_vertices(); v-- > 0;) {
      const LocalVertexInfo& info = part.vertex(v);
      if (!info.is_master || !part.mirrors_of(v).empty()) {
        continue;
      }
      VertexState& s = states[v];
      if (s.delta_next == identity) {
        continue;
      }
      const double pending = s.delta_next;
      const double previous_delta = s.delta;
      s.delta = pending;
      if (!program.IsActive(s)) {
        s.delta = previous_delta;
        continue;
      }
      s.delta_next = identity;
      program.Compute(part, v, states, ops);
      ++vertex_computes;
      changed = true;
    }
    if (!changed) {
      break;
    }
  }
  job.stats_.vertex_computes += vertex_computes;
  job.stats_.edge_traversals += ops.edge_traversals();
  job.stats_.compute_units += vertex_computes + ops.edge_traversals();
}

void BaselineExecutor::StrayReads(Job& job, PartitionId p) {
  // Beyond-neighborhood stray reads: CLIP's Compute may read vertex *states* outside the
  // loaded partition's neighborhood. Model: touch segments of this job's private tables
  // of other partitions. They rarely hit, which is the locality CLIP trades away for its
  // reduced total access volume.
  SplitMix64 stray(0xBEEFull ^ (static_cast<uint64_t>(job.id()) << 32) ^
                   (static_cast<uint64_t>(p) * 0x9e3779b97f4a7c15ULL) ^ job.iteration_);
  const uint32_t parts = layout().num_partitions();
  for (uint32_t i = 0; i < options_.clip_foreign_touches && parts > 1; ++i) {
    PartitionId q = static_cast<PartitionId>(stray.Next() % parts);
    if (q == p) {
      q = (q + 1) % parts;
    }
    job.stats_.charge += hierarchy_->AccessSegment(
        ItemKey{DataKind::kPrivate, job.id(), q, 0}, job.table_.partition_bytes(q),
        static_cast<uint32_t>(stray.Next() & 0xFFFFu));
  }
}

std::vector<double> BaselineExecutor::FinalValues(JobId id) const {
  return ReadMasters(layout(), manager_->job(id).table(), &VertexState::value);
}

std::vector<double> BaselineExecutor::FinalAux(JobId id) const {
  return ReadMasters(layout(), manager_->job(id).table(), &VertexState::aux);
}

}  // namespace cgraph
