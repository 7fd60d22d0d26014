// Load stage of the LTP pipeline (paper sections 3.2.1-3.2.3, Algorithm 1 lines 1-3).
//
// Per scheduling step, for the partition the scheduler picked (Eq. 1), the stage resolves
// each triggered job to its snapshot-bound structure version, groups the jobs per version
// so snapshot-sharing jobs are triggered off the same load, and charges the shared
// structure access to the simulated hierarchy: the first toucher brings a segment in
// (miss), the rest hit, and each job touches only the segments expected to hold its
// active vertices (selective loading). The structure stays pinned until the trigger stage
// releases it so private-table rotation cannot evict it mid-group.

#ifndef SRC_CORE_LOAD_STAGE_H_
#define SRC_CORE_LOAD_STAGE_H_

#include <span>
#include <vector>

#include "src/cache/memory_hierarchy.h"
#include "src/common/thread_annotations.h"
#include "src/core/engine_options.h"
#include "src/core/job_manager.h"
#include "src/partition/partitioned_graph.h"
#include "src/storage/global_table.h"
#include "src/storage/snapshot_store.h"

namespace cgraph {

class LoadStage {
 public:
  // Jobs needing the same resolved structure version of one partition: one shared load.
  struct VersionGroup {
    uint32_t version = 0;
    const GraphPartition* structure = nullptr;
    std::vector<Job*> jobs;
  };

  // `snapshots` may be null (single-graph engine); everything else is borrowed from the
  // engine and must outlive this.
  LoadStage(const PartitionedGraph& layout, const SnapshotStore* snapshots,
            GlobalTable* table, MemoryHierarchy* hierarchy, JobManager* manager,
            const EngineOptions& options);

  // Partition p's registered jobs grouped by resolved structure version. The group order
  // rotates with p so structure-miss attribution does not always fall on the lowest slot.
  // The returned span aliases member arenas reused every scheduling step (no per-step
  // allocation); it is valid until the next FormGroups call.
  std::span<const VersionGroup> FormGroups(PartitionId p) CGRAPH_REQUIRES_DRIVER;

  // Charges every job's selective structure load and pins the structure for the group.
  void LoadStructure(PartitionId p, const VersionGroup& group) CGRAPH_REQUIRES_DRIVER;

  // Unpins the group's structure once the trigger stage is done with it.
  void Release(PartitionId p, const VersionGroup& group) CGRAPH_REQUIRES_DRIVER;

 private:
  // Snapshot resolution: the structure version bound to the job's submit time.
  const GraphPartition& Resolve(PartitionId p, const Job& job, uint32_t* version) const;

  const PartitionedGraph& layout_;
  const SnapshotStore* snapshots_;
  GlobalTable* table_;
  MemoryHierarchy* hierarchy_;
  JobManager* manager_;
  EngineOptions options_;

  // FormGroups arenas, reused across scheduling steps: the registered-slot scratch and
  // the group storage (each group's jobs vector keeps its capacity between steps).
  std::vector<JobId> registered_scratch_;
  std::vector<VersionGroup> groups_;
};

}  // namespace cgraph

#endif  // SRC_CORE_LOAD_STAGE_H_
