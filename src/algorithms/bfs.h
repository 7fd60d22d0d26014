// Breadth-first search: hop counts from a source, i.e. SSSP over unit weights.

#ifndef SRC_ALGORITHMS_BFS_H_
#define SRC_ALGORITHMS_BFS_H_

#include <limits>

#include "src/core/vertex_program.h"

namespace cgraph {

class BfsProgram : public ProgramBase<BfsProgram, AccKind::kMin> {
 public:
  explicit BfsProgram(VertexId source) : source_(source) {}

  std::string_view name() const override { return "bfs"; }

  // Min-hop fixpoint — same monotone structure as SSSP over unit weights.
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
    for (LocalVertexId target : partition.out_neighbors(v)) {
      ops.Accumulate(target, s.value + 1.0);
    }
  }

 private:
  VertexId source_;
};

}  // namespace cgraph

#endif  // SRC_ALGORITHMS_BFS_H_
