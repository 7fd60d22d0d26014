// Threshold-gated batch dispatch for the engine's per-job bookkeeping passes: job init,
// admission footprints, activity refresh, mirror collect, and the push stage's merge,
// broadcast, and deferred-window folds.
//
// Each pass knows its work up front (vertices to sweep or mirror refs to move) and splits
// it into independent tasks. PoolDispatch hands the tasks to ThreadPool::RunBatch only
// when waking the workers can pay off: more than one worker was asked for and the call's
// work reaches the threshold (EngineOptions::parallel_sweep_threshold). Otherwise the
// tasks run inline on the calling thread in ascending index order. Callers keep their
// tasks order-independent (disjoint writes, per-task counts reduced afterwards), so both
// paths produce identical results.

#ifndef SRC_RUNTIME_POOL_DISPATCH_H_
#define SRC_RUNTIME_POOL_DISPATCH_H_

#include <cstddef>
#include <cstdint>

#include "src/runtime/thread_pool.h"

namespace cgraph {

class PoolDispatch {
 public:
  // `pool` is borrowed and may be null; with a null pool or num_workers <= 1 every call
  // runs inline.
  PoolDispatch(ThreadPool* pool, uint32_t num_workers, uint32_t threshold)
      : pool_(num_workers > 1 ? pool : nullptr), threshold_(threshold) {}

  // Invokes fn(i) exactly once for every i in [0, n_tasks) and returns when all are done.
  // `work` sizes the whole call for the threshold test.
  void Run(size_t n_tasks, uint64_t work, ThreadPool::BatchFn fn) const {
    if (pool_ == nullptr || work < threshold_) {
      for (size_t i = 0; i < n_tasks; ++i) {
        fn(i);
      }
      return;
    }
    pool_->RunBatch(n_tasks, fn);
  }

 private:
  ThreadPool* pool_;
  uint32_t threshold_;
};

}  // namespace cgraph

#endif  // SRC_RUNTIME_POOL_DISPATCH_H_
