// Single-source shortest paths (paper Fig. 7(b)).
//
//   IsNotConvergent(v): v.delta < v.value (an improving distance arrived)
//   Acc(a, b):          min(a, b)
//   Compute:            value = min(value, delta); scatter value + w(v, t)

#ifndef SRC_ALGORITHMS_SSSP_H_
#define SRC_ALGORITHMS_SSSP_H_

#include <limits>

#include "src/core/vertex_program.h"

namespace cgraph {

class SsspProgram : public ProgramBase<SsspProgram, AccKind::kMin> {
 public:
  explicit SsspProgram(VertexId source) : source_(source) {}

  std::string_view name() const override { return "sssp"; }

  // Min-based distance fixpoint: delivery order/batching never changes the converged
  // distances, so async execution is exact.
  bool monotonic() const override { return true; }

  VertexState InitialState(const LocalVertexInfo& info) const override {
    VertexState s;
    s.value = std::numeric_limits<double>::infinity();
    s.delta = info.global_id == source_ ? 0.0 : std::numeric_limits<double>::infinity();
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
    const auto targets = partition.out_neighbors(v);
    const auto weights = partition.out_weights(v);
    for (size_t i = 0; i < targets.size(); ++i) {
      ops.Accumulate(targets[i], s.value + weights[i]);
    }
  }

 private:
  VertexId source_;
};

}  // namespace cgraph

#endif  // SRC_ALGORITHMS_SSSP_H_
