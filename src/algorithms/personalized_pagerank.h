// Personalized PageRank: random walks with restart at a single seed vertex. Identical
// delta-accumulation machinery to PageRank, but all initial mass sits on the seed — the
// "variants of pagerank" the paper's introduction cites among facebook's daily CGP jobs.

#ifndef SRC_ALGORITHMS_PERSONALIZED_PAGERANK_H_
#define SRC_ALGORITHMS_PERSONALIZED_PAGERANK_H_

#include <cmath>

#include "src/core/vertex_program.h"

namespace cgraph {

class PersonalizedPageRankProgram : public ProgramBase<PersonalizedPageRankProgram, AccKind::kSum> {
 public:
  PersonalizedPageRankProgram(VertexId seed, double damping = 0.85, double epsilon = 1e-9)
      : seed_(seed), damping_(damping), epsilon_(epsilon) {}

  std::string_view name() const override { return "ppr"; }
  // Not monotonic(): same epsilon-threshold timing dependence as PageRank.

  VertexState InitialState(const LocalVertexInfo& info) const {
    VertexState s;
    s.value = 0.0;
    s.delta = info.global_id == seed_ ? 1.0 - damping_ : 0.0;
    return s;
  }

  bool IsActive(const VertexState& state) const {
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
  VertexId seed_;
  double damping_;
  double epsilon_;
};

}  // namespace cgraph

#endif  // SRC_ALGORITHMS_PERSONALIZED_PAGERANK_H_
