// Strongly connected components via forward/backward coloring rounds (Orzan-style, as in
// the paper's citation [16] family of propagation SCC detectors), expressed as a
// multi-phase vertex program.
//
// Each round has two fixpoint phases:
//   Forward  — every unassigned vertex propagates the maximum vertex id that reaches it
//              along out-edges ("color"); fixpoint roots are vertices whose color equals
//              their own id.
//   Backward — roots flood backwards along in-edges, restricted to vertices of the same
//              color; every vertex reached belongs to the root's SCC and is assigned
//              (aux = color + 1; aux == 0 means unassigned).
// Assigned vertices stop participating, and rounds repeat on the shrinking remainder
// until everything is assigned. Phase switches use the engine's kNewPhase protocol.
//
// Replica safety: in the backward phase values (colors) are frozen, so the same-color
// filter may read neighbor values without races; scatters only touch delta_next slots,
// through the engine's scatter sink (atomic whenever chunks of a partition run at once).

#ifndef SRC_ALGORITHMS_SCC_H_
#define SRC_ALGORITHMS_SCC_H_

#include <cmath>
#include <limits>

#include "src/core/vertex_program.h"

namespace cgraph {

class SccProgram : public ProgramBase<SccProgram, AccKind::kMax> {
 public:
  std::string_view name() const override { return "scc"; }
  // Not monotonic(): multi-phase (OnIterationEnd drives kNewPhase re-initializations),
  // which the async push stage's deferred-contribution window cannot replay across.

  VertexState InitialState(const LocalVertexInfo& info) const override {
    VertexState s;
    s.value = -std::numeric_limits<double>::infinity();
    s.delta = static_cast<double>(info.global_id);  // Bootstrap: own color.
    s.aux = 0.0;
    return s;
  }

  bool IsActive(const VertexState& state) const final {
    if (state.aux != 0.0) {
      return false;  // Already assigned to a component.
    }
    if (phase_ == Phase::kForward) {
      return state.delta > state.value;  // An improving color arrived.
    }
    return state.delta == state.value && std::isfinite(state.delta);  // Same-color flood.
  }

  template <class Ops>
  void Compute(const GraphPartition& partition, LocalVertexId v, std::span<VertexState> states,
               Ops& ops) {
    VertexState& s = states[v];
    if (s.aux != 0.0) {
      return;
    }
    if (phase_ == Phase::kForward) {
      if (s.delta > s.value) {
        s.value = s.delta;
      }
      for (LocalVertexId target : partition.out_neighbors(v)) {
        ops.Accumulate(target, s.value);
      }
      return;
    }
    // Backward: v is reached by its root; join the component and flood to in-neighbors of
    // the same color. Colors are frozen in this phase, so Peek() is safe.
    s.aux = s.value + 1.0;
    for (LocalVertexId target : partition.in_neighbors(v)) {
      if (ops.Peek(target).value == s.value) {
        ops.Accumulate(target, s.value);
      }
    }
  }

  IterationAction OnIterationEnd(const IterationContext& context) override {
    if (context.any_active) {
      return IterationAction::kContinue;
    }
    if (!AnyUnassigned(context)) {
      return IterationAction::kFinished;
    }
    phase_ = phase_ == Phase::kForward ? Phase::kBackward : Phase::kForward;
    ++phase_switches_;
    return IterationAction::kNewPhase;
  }

  void ReinitVertex(const LocalVertexInfo& info, VertexState& state) const override {
    state.delta_next = -std::numeric_limits<double>::infinity();
    if (state.aux != 0.0) {
      state.delta = -std::numeric_limits<double>::infinity();  // Out of the game.
      return;
    }
    if (phase_ == Phase::kBackward) {
      // Roots (color == own id) bootstrap the flood; everyone else waits.
      state.delta = state.value == static_cast<double>(info.global_id)
                        ? state.value
                        : -std::numeric_limits<double>::infinity();
    } else {
      // New forward round on the remaining subgraph: fresh colors.
      state.value = -std::numeric_limits<double>::infinity();
      state.delta = static_cast<double>(info.global_id);
    }
  }

  uint64_t phase_switches() const { return phase_switches_; }

 private:
  enum class Phase { kForward, kBackward };

  static bool AnyUnassigned(const IterationContext& context) {
    const PartitionedGraph& layout = *context.layout;
    for (PartitionId p = 0; p < layout.num_partitions(); ++p) {
      const auto states = context.table->partition(p);
      const GraphPartition& part = layout.partition(p);
      for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
        if (part.vertex(v).is_master && states[v].aux == 0.0) {
          return true;
        }
      }
    }
    return false;
  }

  Phase phase_ = Phase::kForward;
  uint64_t phase_switches_ = 0;
};

}  // namespace cgraph

#endif  // SRC_ALGORITHMS_SCC_H_
