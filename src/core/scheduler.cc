#include "src/core/scheduler.h"

#include <algorithm>

namespace cgraph {

Scheduler::Scheduler(const PartitionedGraph& graph, bool use_priorities, double theta_scale)
    : use_priorities_(use_priorities) {
  const uint32_t parts = graph.num_partitions();
  avg_degree_.resize(parts);
  state_change_.assign(parts, 1.0);  // Everything changes in iteration 0.
  double d_max = 0.0;
  for (PartitionId p = 0; p < parts; ++p) {
    avg_degree_[p] = graph.partition(p).average_degree();
    d_max = std::max(d_max, avg_degree_[p]);
  }
  // C(P) is a fraction in [0, 1], so C_max = 1; theta < 1 / (D_max * C_max) guarantees
  // the N(P) term strictly dominates.
  theta_ = d_max > 0.0 ? 0.99 / d_max : 0.0;
  theta_ *= std::clamp(theta_scale, 0.0, 1.0);
}

void Scheduler::SetStateChange(PartitionId p, double active_fraction) {
  state_change_[p] = std::clamp(active_fraction, 0.0, 1.0);
}

double Scheduler::Priority(const GlobalTable& table, PartitionId p) const {
  return PriorityFromCount(table.RegisteredCount(p), p);
}

double Scheduler::PriorityFromCount(uint32_t registered_count, PartitionId p) const {
  return static_cast<double>(registered_count) + theta_ * avg_degree_[p] * state_change_[p];
}

PartitionId Scheduler::PickNext(const GlobalTable& table) const {
  PartitionId best = kInvalidPartition;
  double best_priority = -1.0;
  for (PartitionId p = 0; p < table.num_partitions(); ++p) {
    // One table lookup per partition: the count feeds both the registration filter and
    // the N(P) term of Eq. 1.
    const uint32_t count = table.RegisteredCount(p);
    if (count == 0) {
      continue;
    }
    if (!use_priorities_) {
      return p;  // Fixed index order.
    }
    const double priority = PriorityFromCount(count, p);
    if (priority > best_priority) {
      best_priority = priority;
      best = p;
    }
  }
  return best;
}

}  // namespace cgraph
