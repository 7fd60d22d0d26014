// Behavioural models of the systems CGraph is compared against (paper section 4), as
// data-access policies over the LTP engine's own stages.
//
// Every baseline runs the *same vertex programs* through the *same iteration substrate*
// as the LTP engine: JobManager initializes jobs, refreshes their activity and finishes or
// fails them; TriggerStage::Run triggers one job's partition and charges its private
// table; PushStage collects mirror deltas and runs the iteration-boundary push (merge,
// broadcast, buffer swap, OnIterationEnd). Results therefore converge to the engine's
// (asserted in tests), and a program failure retires only its own job. What this file
// keeps is only what the paper identifies as the real systems' distinguishing traits:
// the loop that picks which job steps next, each job's traversal order, the structure
// item a job loads (and pins around the trigger), and CLIP's extra local work:
//
//   Sequential  — the jobs run one after another ("the sequential way" of Fig. 2); the
//                 cache is flushed between jobs; one shared in-memory structure copy.
//   Seraph      — jobs run concurrently and share a single in-memory structure copy (the
//                 decoupling contribution of Seraph [31, 32]), but each job traverses its
//                 own active partitions in its own job-specific order; the interleaved
//                 access streams interfere in the shared LLC. With snapshots, each
//                 distinct snapshot is a full separate structure copy.
//   Seraph-VT   — Seraph plus Version-Traveler-style incremental snapshots [17]:
//                 unchanged partitions share one version in memory; access streams remain
//                 individual per job.
//   Nxgraph     — a single-job engine [11]: every job owns a private destination-sorted
//                 structure copy. Per-job copies multiply the memory footprint (and the
//                 disk I/O once the copies exceed memory); there is no inter-job sharing.
//   CLIP        — a single-job out-of-core engine [6]: per-job copies, plus *reentry* — a
//                 loaded partition is locally re-iterated (masters consume locally
//                 accumulated deltas) until quiescent, reducing global iteration counts
//                 and hence total loaded volume — plus beyond-neighborhood stray reads
//                 modeled as extra foreign-segment touches that damage its locality.

#ifndef SRC_BASELINES_BASELINE_EXECUTOR_H_
#define SRC_BASELINES_BASELINE_EXECUTOR_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/cache/memory_hierarchy.h"
#include "src/common/thread_annotations.h"
#include "src/core/engine_options.h"
#include "src/core/job.h"
#include "src/core/job_manager.h"
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

enum class BaselineSystem {
  kSequential,
  kSeraph,
  kSeraphVt,
  kNxgraph,
  kClip,
};

const char* BaselineSystemName(BaselineSystem system);

struct BaselineOptions {
  BaselineSystem system = BaselineSystem::kSeraph;
  EngineOptions engine;
  // CLIP: stray foreign private-state touches per processed partition
  // (beyond-neighborhood reads).
  uint32_t clip_foreign_touches = 4;
  // CLIP: cap on local reentry sub-rounds per partition load. On real web graphs
  // propagation chains are only partially aligned with partition boundaries, so unbounded
  // reentry would overstate CLIP (whose published gains are bounded by exactly this).
  uint32_t clip_reentry_limit = 3;
};

class BaselineExecutor {
 public:
  // Single-snapshot run over a prepartitioned graph (not owned).
  BaselineExecutor(const PartitionedGraph* graph, const BaselineOptions& options);
  // Snapshot-aware run (Seraph / Seraph-VT comparisons of Figs. 16-19).
  BaselineExecutor(const SnapshotStore* snapshots, const BaselineOptions& options);

  BaselineExecutor(const BaselineExecutor&) = delete;
  BaselineExecutor& operator=(const BaselineExecutor&) = delete;

  // Jobs are added before Run(); all of them run, concurrently unless the system is
  // sequential.
  JobId AddJob(std::unique_ptr<VertexProgram> program, Timestamp submit_time = 0);

  RunReport Run();

  // Readback after Run(): value/aux of every global vertex, from master replicas.
  std::vector<double> FinalValues(JobId id) const;
  std::vector<double> FinalAux(JobId id) const;

 private:
  const PartitionedGraph& layout() const;
  // Structure item identity under this system's ownership/versioning policy.
  ItemKey StructureKey(const Job& job, PartitionId p) const;
  const GraphPartition& ResolveData(const Job& job, PartitionId p) const;

  // Processes the job's next unprocessed active partition in its own traversal order,
  // pushing at its iteration boundary; a per-job failure retires the job.
  void StepJob(Job& job) CGRAPH_REQUIRES_DRIVER;
  void ProcessPartitionForJob(Job& job, PartitionId p) CGRAPH_REQUIRES_DRIVER;
  void ReentryRounds(Job& job, PartitionId p, const GraphPartition& part);
  void StrayReads(Job& job, PartitionId p);

  const PartitionedGraph* graph_ = nullptr;
  const SnapshotStore* snapshots_ = nullptr;
  BaselineOptions options_;

  std::unique_ptr<MemoryHierarchy> hierarchy_;
  std::unique_ptr<ThreadPool> pool_;
  // Jobs added so far; Run() submits them once the slot count — one per job — is known.
  std::vector<std::pair<std::unique_ptr<VertexProgram>, Timestamp>> added_;
  // The engine's substrate, built by Run().
  std::unique_ptr<GlobalTable> global_table_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<JobManager> manager_;
  std::unique_ptr<TriggerStage> trigger_;
  std::unique_ptr<PushStage> push_;
  // Per-job traversal permutation ("different graph paths").
  std::vector<std::vector<PartitionId>> traversal_order_;
  // Per-job cursor into traversal_order_ for the current iteration.
  std::vector<size_t> cursor_;
  // Distinct submit timestamps, sorted: plain Seraph materializes one full structure copy
  // per distinct snapshot.
  std::vector<Timestamp> snapshot_ordinals_;
  bool ran_ = false;
};

}  // namespace cgraph

#endif  // SRC_BASELINES_BASELINE_EXECUTOR_H_
