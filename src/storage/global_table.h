// The global table: one entry per graph-structure partition (paper Fig. 4 and §3.2.2).
//
// Each entry records the partition's size, and — the key to the temporal-correlation
// scheduling — the set of jobs registered to process the partition at the next iteration
// ("the third field stores the IDs of the jobs to process it at the next iteration").
// N(P) of priority Eq. 1 is exactly this set's cardinality. Registration is maintained by
// activation tracing: when a job's iteration ends, the partitions holding its newly active
// vertices are registered for that job.

#ifndef SRC_STORAGE_GLOBAL_TABLE_H_
#define SRC_STORAGE_GLOBAL_TABLE_H_

#include <vector>

#include "src/common/bitset.h"
#include "src/common/check.h"
#include "src/common/types.h"

namespace cgraph {

class GlobalTable {
 public:
  GlobalTable(uint32_t num_partitions, uint32_t max_jobs)
      : max_jobs_(max_jobs), entries_(num_partitions) {
    for (auto& e : entries_) {
      e.registered.Resize(max_jobs);
    }
  }

  uint32_t num_partitions() const { return static_cast<uint32_t>(entries_.size()); }
  uint32_t max_jobs() const { return max_jobs_; }

  // Registers / unregisters job j for partition p's next iteration.
  void Register(PartitionId p, JobId j) {
    CGRAPH_DCHECK(j < max_jobs_);
    Entry& e = entries_[p];
    if (!e.registered.Test(j)) {
      e.registered.Set(j);
      ++e.count;
    }
  }

  void Unregister(PartitionId p, JobId j) {
    Entry& e = entries_[p];
    if (e.registered.Test(j)) {
      e.registered.Clear(j);
      --e.count;
    }
  }

  bool IsRegistered(PartitionId p, JobId j) const { return entries_[p].registered.Test(j); }

  // N(P): how many jobs need partition p — the temporal-correlation term of Eq. 1.
  uint32_t RegisteredCount(PartitionId p) const { return entries_[p].count; }

  // A partition is active when any job needs it; inactive partitions are skipped entirely
  // ("it does not load G_i when there is no job to handle G_i", §3.2.2).
  bool IsActive(PartitionId p) const { return entries_[p].count > 0; }

  // Invokes fn(slot) for each registered job of p in increasing slot order, scanning the
  // registration bitmask word-at-a-time.
  template <typename Fn>
  void ForEachRegistered(PartitionId p, Fn&& fn) const {
    entries_[p].registered.ForEachSetBit([&fn](size_t j) { fn(static_cast<JobId>(j)); });
  }

  // Collects the registered jobs of p in increasing job id order.
  std::vector<JobId> RegisteredJobs(PartitionId p) const {
    std::vector<JobId> jobs;
    jobs.reserve(entries_[p].count);
    ForEachRegistered(p, [&jobs](JobId j) { jobs.push_back(j); });
    return jobs;
  }

  // Removes job j from every partition (job finished or deregistered).
  void UnregisterEverywhere(JobId j) {
    for (PartitionId p = 0; p < num_partitions(); ++p) {
      Unregister(p, j);
    }
  }

 private:
  struct Entry {
    DynamicBitset registered;
    uint32_t count = 0;
  };

  uint32_t max_jobs_;
  std::vector<Entry> entries_;
};

}  // namespace cgraph

#endif  // SRC_STORAGE_GLOBAL_TABLE_H_
