// Core-subgraph based partition-loading scheduler (paper section 3.3).
//
// Among the partitions some unfinished job still needs this iteration, the scheduler picks
// the one with the highest priority
//
//     Pri(P) = N(P) + theta * D(P) * C(P)                                (Eq. 1)
//
// where N(P) is the number of registered jobs (temporal correlation), D(P) the average
// degree of P's vertices, and C(P) the mean normalized state change of P's vertices over
// its jobs at the previous iteration. theta is auto-scaled below 1/(D_max * C_max) at
// preprocessing time so a partition needed by strictly more jobs always wins; D*C only
// breaks ties toward hub-heavy, fast-changing partitions, which both serves more jobs per
// load and accelerates convergence. With `use_priorities == false` the scheduler degrades
// to fixed index order (the CGraph-without configuration of Fig. 8).

#ifndef SRC_CORE_SCHEDULER_H_
#define SRC_CORE_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/partition/partitioned_graph.h"
#include "src/storage/global_table.h"

namespace cgraph {

class Scheduler {
 public:
  // `theta_scale` in [0, 1] scales the auto-computed theta (1 = Eq. 1; paper_figures'
  // scheduler ablation sets 0).
  Scheduler(const PartitionedGraph& graph, bool use_priorities, double theta_scale = 1.0);

  // Updates C(P) from a finished iteration: `active_fraction` is the mean over registered
  // jobs of the fraction of P's vertices whose state changed. Clamped into [0, 1].
  void SetStateChange(PartitionId p, double active_fraction);

  // Picks the next partition to load among those with RegisteredCount > 0.
  //
  // Post: returns the qualifying partition maximizing Eq. 1 (lowest index on ties, and
  //       plain lowest qualifying index when priorities are disabled), or
  //       kInvalidPartition when none qualifies. Never mutates state: picking is
  //       side-effect-free and deterministic.
  PartitionId PickNext(const GlobalTable& table) const;

  // Eq. 1 for one partition, reading N(P) from the table.
  double Priority(const GlobalTable& table, PartitionId p) const;

  // Eq. 1 with N(P) already in hand, so PickNext reads the global table once per
  // partition instead of once for the registration filter and once for the priority.
  double PriorityFromCount(uint32_t registered_count, PartitionId p) const;

  double theta() const { return theta_; }

 private:
  bool use_priorities_;
  double theta_ = 0.0;
  std::vector<double> avg_degree_;    // D(P), fixed at preprocessing.
  std::vector<double> state_change_;  // C(P), updated each iteration.
};

}  // namespace cgraph

#endif  // SRC_CORE_SCHEDULER_H_
