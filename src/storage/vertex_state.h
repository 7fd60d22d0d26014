// Per-job per-vertex state and accumulation semantics.
//
// The paper decouples an algorithm's data as D = (V, S, E, W): the structure (V, E, W) is
// shared; the state S is private to each job. A state entry mirrors the paper's private
// table item (vertex id is implicit via the local index) and carries:
//   value      — the algorithm result (rank, distance, label, ...)
//   delta      — the accumulated neighbor contributions consumed this iteration (Δvalue)
//   delta_next — the double-buffered accumulator that this iteration's scatters target;
//                at the Push stage it is replica-merged and becomes next iteration's delta
//   aux        — algorithm extra (SCC component id, k-core removal flag); not synchronized
// The double buffer makes iteration results independent of partition processing order, so
// all executors in this repo can be bit-compared; with the paper's single Δ the comparison
// would only hold for monotone accumulators.

#ifndef SRC_STORAGE_VERTEX_STATE_H_
#define SRC_STORAGE_VERTEX_STATE_H_

#include <atomic>
#include <limits>

#include "src/common/types.h"

namespace cgraph {

struct VertexState {
  double value = 0.0;
  double delta = 0.0;
  double delta_next = 0.0;
  double aux = 0.0;
};

// The paper's user-supplied Acc() is always a commutative, associative reduction; we
// enumerate the three used by the benchmark algorithms. The push stage's merges take the
// kind at run time (AccApply(kind, ...)); the trigger's scatters take it as a template
// argument (AccumulateInto<K, kAtomic>) so the reduction inlines into each program's kernel.
enum class AccKind : uint8_t {
  kSum,
  kMin,
  kMax,
};

constexpr double AccIdentity(AccKind kind) {
  switch (kind) {
    case AccKind::kSum:
      return 0.0;
    case AccKind::kMin:
      return std::numeric_limits<double>::infinity();
    case AccKind::kMax:
      return -std::numeric_limits<double>::infinity();
  }
  return 0.0;
}

template <AccKind K>
constexpr double AccApply(double a, double b) {
  if constexpr (K == AccKind::kSum) {
    return a + b;
  } else if constexpr (K == AccKind::kMin) {
    return a < b ? a : b;
  } else {
    return a > b ? a : b;
  }
}

inline double AccApply(AccKind kind, double a, double b) {
  switch (kind) {
    case AccKind::kSum:
      return AccApply<AccKind::kSum>(a, b);
    case AccKind::kMin:
      return AccApply<AccKind::kMin>(a, b);
    case AccKind::kMax:
      return AccApply<AccKind::kMax>(a, b);
  }
  return a;
}

// Acc-accumulates `contribution` into `slot` under K. With kAtomic it is a lock-free
// compare-exchange loop, correct for any number of concurrent writers because the
// reduction is commutative and associative. Without it, it is one plain load and store,
// for a slot that no other thread accesses during the call. On both paths a result
// numerically equal to the old value leaves the slot's bits alone (-0.0 + 0.0 keeps
// -0.0), so the two leave bit-identical slots.
template <AccKind K, bool kAtomic>
inline void AccumulateInto(double* slot, double contribution) {
  if constexpr (kAtomic) {
    std::atomic_ref<double> cell(*slot);
    double observed = cell.load(std::memory_order_relaxed);
    while (true) {
      const double desired = AccApply<K>(observed, contribution);
      if (desired == observed) {
        return;  // No change (min/max already dominated).
      }
      if (cell.compare_exchange_weak(observed, desired, std::memory_order_relaxed)) {
        return;
      }
    }
  } else {
    const double observed = *slot;
    const double desired = AccApply<K>(observed, contribution);
    *slot = desired == observed ? observed : desired;
  }
}

}  // namespace cgraph

#endif  // SRC_STORAGE_VERTEX_STATE_H_
