// Delta-accumulation PageRank (paper Fig. 7(a)).
//
//   IsNotConvergent(v): |v.delta| > epsilon
//   Acc(a, b):          a + b
//   Compute:            value += delta; scatter d * delta / out_degree to out-neighbors
//
// Every vertex starts with delta = 1 - d, so converged values satisfy
// value(v) = (1-d) + d * sum_{u -> v} value(u) / out_degree(u); dangling-vertex mass is
// not redistributed (standard for delta-based engines).

#ifndef SRC_ALGORITHMS_PAGERANK_H_
#define SRC_ALGORITHMS_PAGERANK_H_

#include <cmath>

#include "src/core/vertex_program.h"

namespace cgraph {

class PageRankProgram : public ProgramBase<PageRankProgram, AccKind::kSum> {
 public:
  explicit PageRankProgram(double damping = 0.85, double epsilon = 1e-9)
      : damping_(damping), epsilon_(epsilon) {}

  std::string_view name() const override { return "pagerank"; }
  // Not monotonic(): the epsilon convergence test depends on *when* mass arrives —
  // batching deltas changes which sub-epsilon residuals get dropped, so async would
  // converge to (slightly) different values than the BSP oracle.

  VertexState InitialState(const LocalVertexInfo& info) const override {
    (void)info;
    VertexState s;
    s.value = 0.0;
    s.delta = 1.0 - damping_;
    return s;
  }

  bool IsActive(const VertexState& state) const final {
    return std::fabs(state.delta) > epsilon_;
  }

  template <class Ops>
  void Compute(const GraphPartition& partition, LocalVertexId v, std::span<VertexState> states,
               Ops& ops) {
    VertexState& s = states[v];
    s.value += s.delta;
    const uint32_t out_degree = partition.vertex(v).global_out_degree;
    if (out_degree == 0) {
      return;
    }
    const double contribution = damping_ * s.delta / out_degree;
    for (LocalVertexId target : partition.out_neighbors(v)) {
      ops.Accumulate(target, contribution);
    }
  }

 private:
  double damping_;
  double epsilon_;
};

}  // namespace cgraph

#endif  // SRC_ALGORITHMS_PAGERANK_H_
