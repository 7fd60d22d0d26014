#include "src/core/load_stage.h"

#include <algorithm>

#include "src/common/check.h"

namespace cgraph {

LoadStage::LoadStage(const PartitionedGraph& layout, const SnapshotStore* snapshots,
                     GlobalTable* table, MemoryHierarchy* hierarchy, JobManager* manager,
                     const EngineOptions& options)
    : layout_(layout), snapshots_(snapshots), table_(table), hierarchy_(hierarchy),
      manager_(manager), options_(options) {}

const GraphPartition& LoadStage::Resolve(PartitionId p, const Job& job,
                                         uint32_t* version) const {
  if (snapshots_ == nullptr) {
    *version = 0;
    return layout_.partition(p);
  }
  *version = snapshots_->ResolveVersionIndex(p, job.submit_time());
  return snapshots_->Resolve(p, job.submit_time());
}

std::span<const LoadStage::VersionGroup> LoadStage::FormGroups(PartitionId p) {
  // Registered slots in ascending order, gathered word-at-a-time into a reused scratch.
  registered_scratch_.clear();
  table_->ForEachRegistered(p, [this](JobId slot) { registered_scratch_.push_back(slot); });
  CGRAPH_CHECK(!registered_scratch_.empty());
  // Rotate the order by partition id so structure-miss attribution does not always fall
  // on the lowest slot (the triggering job pays the miss; later jobs hit).
  if (registered_scratch_.size() > 1) {
    std::rotate(registered_scratch_.begin(),
                registered_scratch_.begin() + (p % registered_scratch_.size()),
                registered_scratch_.end());
  }

  size_t num_groups = 0;  // Groups are reused in place; only the prefix is live.
  for (const JobId slot : registered_scratch_) {
    Job* job = manager_->JobAtSlot(slot);
    if (job == nullptr || job->finished_) {
      table_->Unregister(p, slot);  // Defensive: stale bits must not stall the scheduler.
      continue;
    }
    uint32_t version = 0;
    const GraphPartition& structure = Resolve(p, *job, &version);
    VersionGroup* group = nullptr;
    for (size_t g = 0; g < num_groups; ++g) {
      if (groups_[g].version == version) {
        group = &groups_[g];
        break;
      }
    }
    if (group == nullptr) {
      if (num_groups == groups_.size()) {
        groups_.emplace_back();
      }
      group = &groups_[num_groups++];
      group->version = version;
      group->structure = &structure;
      group->jobs.clear();  // Keeps capacity from earlier steps.
    }
    group->jobs.push_back(job);
  }
  return {groups_.data(), num_groups};
}

void LoadStage::LoadStructure(PartitionId p, const VersionGroup& group) {
  const GraphPartition& layout_part = layout_.partition(p);
  const ItemKey structure_key{DataKind::kStructure, kSharedOwner, p, group.version};
  for (Job* job : group.jobs) {
    if (job->finished_) {
      continue;  // Failed between group formation and the load: charge nothing.
    }
    const uint32_t touched = ExpectedTouchedSegments(
        group.structure->structure_bytes(), options_.hierarchy.cache_segment_bytes,
        job->active_count_[p], layout_part.num_local_vertices());
    job->stats_.charge += hierarchy_->AccessPrefix(
        structure_key, group.structure->structure_bytes(), touched, /*pin=*/true);
  }
}

void LoadStage::Release(PartitionId p, const VersionGroup& group) {
  const ItemKey structure_key{DataKind::kStructure, kSharedOwner, p, group.version};
  hierarchy_->UnpinItem(structure_key, group.structure->structure_bytes());
}

}  // namespace cgraph
