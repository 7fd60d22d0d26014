// Weakly connected components: min-label propagation over both edge directions (the
// graph is treated as undirected).

#ifndef SRC_ALGORITHMS_WCC_H_
#define SRC_ALGORITHMS_WCC_H_

#include <limits>

#include "src/core/vertex_program.h"

namespace cgraph {

class WccProgram : public ProgramBase<WccProgram, AccKind::kMin> {
 public:
  std::string_view name() const override { return "wcc"; }

  // Min-label propagation converges to the component-minimum label under any delivery
  // schedule, so async execution is exact.
  bool monotonic() const override { return true; }

  // The scattered value is the label itself — unchanged along any path — so eager
  // intra-partition re-draining only ever floods final candidate labels.
  bool path_independent() const override { return true; }

  VertexState InitialState(const LocalVertexInfo& info) const override {
    VertexState s;
    s.value = std::numeric_limits<double>::infinity();
    s.delta = static_cast<double>(info.global_id);
    return s;
  }

  bool IsActive(const VertexState& state) const final { return state.delta < state.value; }

  template <class Ops>
  void Compute(const GraphPartition& partition, LocalVertexId v, std::span<VertexState> states,
               Ops& ops) {
    VertexState& s = states[v];
    if (s.delta < s.value) {
      s.value = s.delta;
    }
    for (LocalVertexId target : partition.out_neighbors(v)) {
      ops.Accumulate(target, s.value);
    }
    for (LocalVertexId target : partition.in_neighbors(v)) {
      ops.Accumulate(target, s.value);
    }
  }
};

}  // namespace cgraph

#endif  // SRC_ALGORITHMS_WCC_H_
