// k-hop reachability: hop distances from a source, truncated at `max_hops`. A bounded
// BFS — the frontier dies once the budget is exhausted, so the job touches only the
// partitions within k hops of the source (an extreme case of the paper's partition
// skipping, section 3.2.2).

#ifndef SRC_ALGORITHMS_KHOP_H_
#define SRC_ALGORITHMS_KHOP_H_

#include <limits>

#include "src/core/vertex_program.h"

namespace cgraph {

class KHopProgram : public ProgramBase<KHopProgram, AccKind::kMin> {
 public:
  KHopProgram(VertexId source, uint32_t max_hops) : source_(source), max_hops_(max_hops) {}

  std::string_view name() const override { return "khop"; }

  // Bounded BFS: still a min-hop fixpoint (the hop budget only prunes scatters whose
  // contributions could never win a min), so async execution is exact.
  bool monotonic() const override { return true; }

  VertexState InitialState(const LocalVertexInfo& info) const {
    VertexState s;
    s.value = std::numeric_limits<double>::infinity();
    s.delta = info.global_id == source_ ? 0.0 : std::numeric_limits<double>::infinity();
    return s;
  }

  bool IsActive(const VertexState& state) const { return state.delta < state.value; }

  template <class Ops>
  void Compute(const GraphPartition& partition, LocalVertexId v, std::span<VertexState> states,
               Ops& ops) {
    VertexState& s = states[v];
    if (s.delta < s.value) {
      s.value = s.delta;
    }
    if (s.value >= static_cast<double>(max_hops_)) {
      return;  // Hop budget exhausted: do not extend the frontier.
    }
    for (LocalVertexId target : partition.out_neighbors(v)) {
      ops.Accumulate(target, s.value + 1.0);
    }
  }

 private:
  VertexId source_;
  uint32_t max_hops_;
};

}  // namespace cgraph

#endif  // SRC_ALGORITHMS_KHOP_H_
