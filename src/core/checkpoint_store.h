// Iteration-boundary job checkpoints (docs/robustness.md).
//
// A JobCheckpoint is everything a job's forward progress lives in at an iteration
// boundary: its private vertex states, async deferred windows, iteration/staleness
// clocks, activity trace, and stats snapshot. Deliberately *not* captured: active masks,
// per-partition counts, change fractions, and global-table registrations — at a boundary
// those are all pure functions of the vertex states (RefreshActivity rebuilds them from
// IsActive sweeps), so restoring states and re-sweeping reproduces them exactly. Sync
// buckets are empty at a boundary by construction and need no capture either.
//
// The store keeps the latest checkpoint per job, dropped when the job completes cleanly
// and retained across failures so a job can be restarted repeatedly. Snapshots are taken
// only while the job is still registered (active vertices remain), so a restore always
// has work to resume.

#ifndef SRC_CORE_CHECKPOINT_STORE_H_
#define SRC_CORE_CHECKPOINT_STORE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/thread_annotations.h"
#include "src/common/types.h"
#include "src/metrics/run_report.h"
#include "src/storage/private_table.h"

namespace cgraph {

struct JobCheckpoint {
  uint64_t iteration = 0;
  uint64_t since_sync = 0;                    // Async staleness clock.
  PrivateTable table;                         // Full private vertex-state copy.
  std::vector<std::vector<double>> deferred;  // Async deferred-broadcast windows.
  std::vector<uint8_t> deferred_pending;
  JobStats stats;                             // Counters as of this boundary.
  uint64_t bytes = 0;                         // Snapshot payload size (table + windows).
};

class CheckpointStore {
 public:
  // Replaces any previous checkpoint for `id` (latest-only retention).
  void Save(JobId id, JobCheckpoint snapshot) CGRAPH_REQUIRES_DRIVER;

  // The latest checkpoint for `id`, or nullptr. Stays valid until the next Save/Drop
  // for the same id.
  const JobCheckpoint* Find(JobId id) const;

  // Forgets `id`'s checkpoint (no-op when absent) — called on clean completion.
  void Drop(JobId id) CGRAPH_REQUIRES_DRIVER;

  size_t size() const { return checkpoints_.size(); }

 private:
  std::unordered_map<JobId, JobCheckpoint> checkpoints_;
};

}  // namespace cgraph

#endif  // SRC_CORE_CHECKPOINT_STORE_H_
