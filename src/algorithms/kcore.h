// k-core decomposition membership: iterative peeling of vertices whose (undirected)
// degree falls below k. On convergence aux == 0 marks vertices in the k-core and
// aux == 1 marks peeled vertices; value holds the residual degree.

#ifndef SRC_ALGORITHMS_KCORE_H_
#define SRC_ALGORITHMS_KCORE_H_

#include "src/core/vertex_program.h"

namespace cgraph {

class KCoreProgram : public ProgramBase<KCoreProgram, AccKind::kSum> {
 public:
  explicit KCoreProgram(uint32_t k) : k_(k) {}

  std::string_view name() const override { return "kcore"; }

  // Peeling is confluent in *membership* (aux): a vertex scatters exactly once, on its
  // irreversible leave-the-core transition, so any schedule that delivers every -1.0
  // reaches the same core set. The peel-time residual in `value` IS order-dependent
  // (late -1.0s may arrive after a vertex peeled), so k-core equivalence is on aux.
  bool monotonic() const override { return true; }

  VertexState InitialState(const LocalVertexInfo& info) const {
    VertexState s;
    s.value = static_cast<double>(info.global_total_degree);
    s.delta = 0.0;
    s.aux = 0.0;
    return s;
  }

  bool IsActive(const VertexState& state) const {
    // Unremoved vertices that lost neighbors must re-check their residual degree.
    return state.delta != 0.0 && state.aux == 0.0;
  }

  // The first sweep must run unconditionally so low-degree vertices peel themselves.
  bool InitiallyActive(const LocalVertexInfo&, const VertexState& state) const {
    return state.aux == 0.0;
  }

  template <class Ops>
  void Compute(const GraphPartition& partition, LocalVertexId v, std::span<VertexState> states,
               Ops& ops) {
    VertexState& s = states[v];
    s.value += s.delta;  // delta is a (negative) sum of lost neighbors.
    if (s.aux == 0.0 && s.value < static_cast<double>(k_)) {
      s.aux = 1.0;  // Peel: leave the core and notify all neighbors once.
      for (LocalVertexId target : partition.out_neighbors(v)) {
        ops.Accumulate(target, -1.0);
      }
      for (LocalVertexId target : partition.in_neighbors(v)) {
        ops.Accumulate(target, -1.0);
      }
    }
  }

 private:
  uint32_t k_;
};

}  // namespace cgraph

#endif  // SRC_ALGORITHMS_KCORE_H_
