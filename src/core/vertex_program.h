// The user-facing programming model (paper section 3.4, Fig. 7).
//
// A job instantiates three functions — IsNotConvergent() (here IsActive), Acc(), and
// Compute() — over the decoupled state S while the engine owns the shared structure G.
// Compute() updates the vertex's value from its accumulated delta and scatters
// contributions to neighbors *within the loaded partition only*; replicas on other
// partitions receive them at the Push stage. Multi-phase algorithms (SCC) additionally
// drive the engine through phase transitions via OnIterationEnd()/ReinitVertex().
//
// A program derives from ProgramBase<Derived, Acc>, which implements the engine's
// per-chunk kernels (ComputeWords, RefreshRange, DrainPending, ReenterDescending) once
// for every program. The engine makes one virtual call per chunk of vertices; inside it
// the program's non-virtual Compute, its IsActive and the Acc inline.
//
// Concurrency contract. Program objects are per-job and may hold phase state. Within
// one trigger, several workers may call ComputeWords for different chunks of the same
// (job, partition) at once, and only then: their Compute calls then run concurrently and
// scatter through the atomic sink (Scatter<Acc, true>), while Compute writes only its own
// vertex's value/delta/aux. When the job's sweep of the partition is one task (the inline
// path, one worker, one chunk, the async re-drain, CLIP reentry), scatters are plain
// loads and stores (Scatter<Acc, false>). The refresh kernel runs concurrently only on
// disjoint vertex ranges. The phase hooks run only at single-threaded synchronization
// points.

#ifndef SRC_CORE_VERTEX_PROGRAM_H_
#define SRC_CORE_VERTEX_PROGRAM_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <span>
#include <string_view>

#include "src/common/bitset.h"
#include "src/common/check.h"
#include "src/common/types.h"
#include "src/partition/partitioned_graph.h"
#include "src/storage/private_table.h"
#include "src/storage/vertex_state.h"

namespace cgraph {

// Scatter sink handed to Compute(): Acc-accumulates contributions into the *local*
// targets' delta_next slots and counts edge traversals for the cost model. kAtomic is
// true only when another worker may be scattering into the same private partition (see
// the concurrency contract above); both paths leave bit-identical slots.
template <AccKind K, bool kAtomic>
class Scatter {
 public:
  explicit Scatter(std::span<VertexState> states) : states_(states) {}

  void Accumulate(LocalVertexId target, double contribution) {
    AccumulateInto<K, kAtomic>(&states_[target].delta_next, contribution);
    ++edge_traversals_;
  }

  // Read-only view of a target's state, e.g. for SCC's same-color filter. value/aux are
  // stable during an iteration (only delta_next is concurrently written).
  const VertexState& Peek(LocalVertexId target) const { return states_[target]; }

  uint64_t edge_traversals() const { return edge_traversals_; }

 private:
  std::span<VertexState> states_;
  uint64_t edge_traversals_ = 0;
};

class VertexProgram {
 public:
  // What the engine should do after a job's iteration completed (post-Push).
  enum class IterationAction {
    kContinue,  // Keep iterating; the engine finishes the job when nothing is active.
    kNewPhase,  // Re-initialize every vertex state via ReinitVertex() and continue.
    kFinished,  // The job is done regardless of remaining activity.
  };

  // Work done by a kernel call, for the cost model: Compute calls and scatters.
  struct ComputeCounts {
    uint64_t vertices = 0;
    uint64_t edges = 0;
  };

  // Passed to OnIterationEnd so multi-phase programs can inspect global progress.
  struct IterationContext {
    bool any_active = false;
    uint64_t iteration = 0;
    const PrivateTable* table = nullptr;          // Full state (read access).
    const PartitionedGraph* layout = nullptr;     // Partition layout (vertex membership).
  };

  virtual ~VertexProgram() = default;

  virtual std::string_view name() const = 0;

  // The accumulator joining neighbor contributions (paper's Acc()), fixed by ProgramBase.
  virtual AccKind acc_kind() const = 0;

  // Monotonicity / confluence trait (docs/execution_modes.md): declares that the
  // program's fixpoint is independent of contribution *delivery timing* — any schedule
  // that eventually delivers every contribution converges to the same final masters.
  // Programs that return true contract to:
  //   * converge to a unique fixpoint under out-of-order / batched delivery (e.g. a
  //     min-based label fixpoint, or a peeling count whose scatters fire at most once
  //     per vertex on a state transition, never per-iteration);
  //   * be single-phase: OnIterationEnd never returns kNewPhase (the async push stage
  //     has no replay of deferred contributions across a ReinitVertex sweep);
  //   * tolerate a vertex consuming the Acc-combination of several iterations' worth of
  //     contributions in one Compute call.
  // Only such programs are eligible for ExecutionMode::kAsync; everything else runs BSP
  // regardless of the configured mode. Convergence-threshold programs (pagerank/ppr)
  // are NOT monotonic in this sense: their termination test depends on delta timing, so
  // batching contributions changes which residuals are discarded at convergence.
  virtual bool monotonic() const { return false; }

  // Path-independence trait, consulted only when monotonic() is true: declares that the
  // value a Compute call scatters along an edge is the vertex's candidate value itself,
  // not an edge-accumulated quantity — any path delivers the same final value (WCC's
  // min-label flood). For such programs the trigger stage's intra-iteration re-drain is
  // pure profit: eagerly flooding a partition can only deliver final candidate labels,
  // collapsing a multi-iteration local cascade into one trigger. Edge-accumulating
  // programs (sssp's dist+weight, bfs/khop's hop counts) must leave this false: a
  // drained scatter of a value that a shorter cross-partition path is about to improve
  // is wasted work, and without priority ordering (delta-stepping) eager relaxation
  // does strictly more of it than BSP's per-wave batching.
  virtual bool path_independent() const { return false; }

  // Initial state of a vertex (delta doubles as the activation bootstrap).
  virtual VertexState InitialState(const LocalVertexInfo& info) const = 0;

  // The paper's IsNotConvergent(): whether the vertex must be processed next iteration,
  // given its post-synchronization state.
  virtual bool IsActive(const VertexState& state) const = 0;

  // Forces a vertex active in iteration 0 even when IsActive(initial state) is false
  // (used by algorithms whose first sweep is unconditional, e.g. k-core).
  virtual bool InitiallyActive(const LocalVertexInfo& info, const VertexState& state) const {
    (void)info;
    return IsActive(state);
  }

  // The per-chunk kernels, implemented by ProgramBase. The engine calls each once per
  // chunk, never per vertex.

  // Trigger kernel (paper Fig. 7 over one chunk): runs Compute on every set bit of `mask`
  // in words [word_begin, word_end), in ascending order. `concurrent` says another worker
  // may sweep a different chunk of the same private partition meanwhile, so scatters
  // must be atomic.
  virtual ComputeCounts ComputeWords(const GraphPartition& partition, const DynamicBitset& mask,
                                     size_t word_begin, size_t word_end,
                                     std::span<VertexState> states, bool concurrent) = 0;

  // Activity-refresh kernel over local vertices [begin, end), `begin` a multiple of 64:
  // when `swap_buffers`, consumes the double buffer (delta = delta_next, delta_next = the
  // Acc identity); then writes `active`'s words for the range, setting every vertex that
  // IsActive (InitiallyActive when `initial`) accepts. Returns the number set.
  virtual uint32_t RefreshRange(const GraphPartition& partition, std::span<VertexState> states,
                                size_t begin, size_t end, bool swap_buffers, bool initial,
                                DynamicBitset& active) const = 0;

  // Re-drain probe: each listed vertex whose pending delta_next IsActive accepts as its
  // delta consumes it (delta = delta_next, delta_next = identity) and is set in
  // `drained`; when `fold` is non-empty, the consumed delta of vertices[i] is also
  // Acc-folded into fold[i]. Returns the number consumed.
  virtual uint32_t DrainPending(std::span<const LocalVertexId> vertices,
                                std::span<VertexState> states, std::span<double> fold,
                                DynamicBitset& drained) const = 0;

  // CLIP reentry round: visits `vertices` in descending order; each one whose pending
  // delta_next IsActive accepts consumes it and runs Compute at once (plain scatters), so
  // later vertices of the same round see its contributions.
  virtual ComputeCounts ReenterDescending(const GraphPartition& partition,
                                          std::span<const LocalVertexId> vertices,
                                          std::span<VertexState> states) = 0;

  // Called at the job's iteration boundary, after synchronization. Default: plain
  // fixpoint semantics (run while anything is active).
  virtual IterationAction OnIterationEnd(const IterationContext& context) {
    (void)context;
    return IterationAction::kContinue;
  }

  // Applied to every vertex state when OnIterationEnd returned kNewPhase. Implementations
  // must leave value/delta/delta_next coherent for the new phase — in particular,
  // delta_next must be reset to the Acc identity.
  virtual void ReinitVertex(const LocalVertexInfo& info, VertexState& state) const {
    (void)info;
    (void)state;
  }
};

// Implements the kernels once for every program. Derived provides, as in Fig. 7:
//
//   bool IsActive(const VertexState&) const final;
//   template <class Ops>
//   void Compute(const GraphPartition&, LocalVertexId v, std::span<VertexState>, Ops& ops);
//
// Compute consumes states[v].delta into states[v].value and scatters through
// ops.Accumulate(target, contribution); Ops is a Scatter<K, kAtomic>. Declaring IsActive
// final lets the kernels inline it.
template <class Derived, AccKind K>
class ProgramBase : public VertexProgram {
 public:
  AccKind acc_kind() const final { return K; }

  ComputeCounts ComputeWords(const GraphPartition& partition, const DynamicBitset& mask,
                             size_t word_begin, size_t word_end, std::span<VertexState> states,
                             bool concurrent) final {
    return concurrent ? Sweep<true>(partition, mask, word_begin, word_end, states)
                      : Sweep<false>(partition, mask, word_begin, word_end, states);
  }

  uint32_t RefreshRange(const GraphPartition& partition, std::span<VertexState> states,
                        size_t begin, size_t end, bool swap_buffers, bool initial,
                        DynamicBitset& active) const final {
    if (initial) {
      CGRAPH_DCHECK(!swap_buffers);
      return Refresh<false>(states, begin, end, active, [&](size_t v, const VertexState& s) {
        return self().InitiallyActive(partition.vertex(static_cast<LocalVertexId>(v)), s);
      });
    }
    const auto is_active = [this](size_t, const VertexState& s) { return self().IsActive(s); };
    return swap_buffers ? Refresh<true>(states, begin, end, active, is_active)
                        : Refresh<false>(states, begin, end, active, is_active);
  }

  uint32_t DrainPending(std::span<const LocalVertexId> vertices, std::span<VertexState> states,
                        std::span<double> fold, DynamicBitset& drained) const final {
    uint32_t consumed = 0;
    for (size_t i = 0; i < vertices.size(); ++i) {
      VertexState& s = states[vertices[i]];
      const double pending = s.delta_next;
      if (!TakePending(s)) {
        continue;
      }
      if (!fold.empty()) {
        fold[i] = AccApply<K>(fold[i], pending);
      }
      drained.Set(vertices[i]);
      ++consumed;
    }
    return consumed;
  }

  ComputeCounts ReenterDescending(const GraphPartition& partition,
                                  std::span<const LocalVertexId> vertices,
                                  std::span<VertexState> states) final {
    Scatter<K, false> ops(states);
    uint64_t computes = 0;
    for (size_t i = vertices.size(); i-- > 0;) {
      if (TakePending(states[vertices[i]])) {
        self().Compute(partition, vertices[i], states, ops);
        ++computes;
      }
    }
    return {computes, ops.edge_traversals()};
  }

 private:
  static constexpr double kIdentity = AccIdentity(K);

  Derived& self() { return static_cast<Derived&>(*this); }
  const Derived& self() const { return static_cast<const Derived&>(*this); }

  template <bool kAtomic>
  ComputeCounts Sweep(const GraphPartition& partition, const DynamicBitset& mask,
                      size_t word_begin, size_t word_end, std::span<VertexState> states) {
    Scatter<K, kAtomic> ops(states);
    uint64_t computes = 0;
    mask.ForEachSetBitInWords(word_begin, word_end, [&](size_t v) {
      self().Compute(partition, static_cast<LocalVertexId>(v), states, ops);
      ++computes;
    });
    return {computes, ops.edge_traversals()};
  }

  template <bool kSwap, class Pred>
  static uint32_t Refresh(std::span<VertexState> states, size_t begin, size_t end,
                          DynamicBitset& active, Pred&& pred) {
    CGRAPH_DCHECK(begin % 64 == 0);
    uint32_t count = 0;
    for (size_t word_begin = begin; word_begin < end; word_begin += 64) {
      const size_t word_end = std::min(word_begin + 64, end);
      uint64_t bits = 0;
      for (size_t v = word_begin; v < word_end; ++v) {
        VertexState& s = states[v];
        if constexpr (kSwap) {
          s.delta = s.delta_next;
          s.delta_next = kIdentity;
        }
        bits |= uint64_t{pred(v, s)} << (v - word_begin);
      }
      active.AssignWord(word_begin / 64, bits);
      count += static_cast<uint32_t>(std::popcount(bits));
    }
    return count;
  }

  // Consumes s's pending delta_next as its delta when IsActive accepts it; otherwise
  // leaves s untouched (a rejected contribution waits for the iteration's swap).
  bool TakePending(VertexState& s) const {
    if (s.delta_next == kIdentity) {
      return false;
    }
    VertexState probe = s;
    probe.delta = s.delta_next;
    if (!self().IsActive(probe)) {
      return false;
    }
    s.delta = s.delta_next;
    s.delta_next = kIdentity;
    return true;
  }
};

}  // namespace cgraph

#endif  // SRC_CORE_VERTEX_PROGRAM_H_
