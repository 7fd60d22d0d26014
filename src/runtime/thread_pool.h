// Fixed-size worker pool with one allocation-free dispatch primitive.
//
// One pool is created per executor run with `num_workers` threads (the paper's "workers",
// one per core). RunBatch(n, fn) hands the n task indices out through a single atomic
// cursor; workers and the caller claim indices lock-free and invoke the borrowed
// FunctionRef. Nothing is allocated and the mutex is taken only to open/close the batch.

#ifndef SRC_RUNTIME_THREAD_POOL_H_
#define SRC_RUNTIME_THREAD_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/common/function_ref.h"
#include "src/common/mutex.h"
#include "src/common/thread_annotations.h"

namespace cgraph {

class ThreadPool {
 public:
  // Invoked once per claimed task index in [0, n_tasks).
  using BatchFn = FunctionRef<void(size_t)>;

  // Spawns `num_workers` threads, capped at the hardware concurrency when the platform
  // reports one: threads beyond the core count cannot run concurrently — they only add
  // wake-ups, context switches, and cursor contention to every batch. num_workers == 0
  // is clamped to 1. The cap changes wall clock only; modeled metrics never depend on
  // how many threads actually execute a batch.
  explicit ThreadPool(size_t num_workers);

  // Joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return threads_.size(); }

  // True when a batch dispatched to the pool can actually run on more than one core.
  // When false (single-core hardware), RunBatch executes the whole index range inline on
  // the calling thread: waking parked workers that would only time-slice the same core
  // is pure overhead. Coverage and results are identical either way.
  bool CanRunConcurrently() const { return parallel_lanes_ > 1; }

  // Invokes fn(i) exactly once for every i in [0, n_tasks), distributing indices to the
  // calling thread and the pool's workers through an atomic cursor. Blocks until every
  // index has been processed; `fn` is borrowed for exactly that long. No per-task
  // allocation. n_tasks <= 1 runs inline without waking anyone. Not reentrant: fn must
  // not call RunBatch on the same pool, and only one thread may drive
  // batches at a time — in the engine that is the single LTP driver thread.
  void RunBatch(size_t n_tasks, BatchFn fn);

 private:
  void WorkerLoop();

  // Claims batch indices until the cursor passes the end; the claimer of the last
  // completed index closes the batch and wakes the RunBatch caller. Called without the
  // mutex held (it briefly takes it to close the batch).
  void DrainBatch(BatchFn fn, size_t n_tasks) CGRAPH_EXCLUDES(mutex_);

  Mutex mutex_;
  CondVar work_available_;
  CondVar batch_done_;
  bool shutting_down_ CGRAPH_GUARDED_BY(mutex_) = false;

  // Batch state. fn/size/epoch are written under mutex_ before the batch opens and read
  // by workers after they observe batch_open_ under the same mutex; the cursor and the
  // completion count are the only contended words while a batch runs.
  bool batch_open_ CGRAPH_GUARDED_BY(mutex_) = false;
  // Bumped per batch so a worker that drained an empty cursor sleeps instead of
  // respinning.
  uint64_t batch_epoch_ CGRAPH_GUARDED_BY(mutex_) = 0;
  // Workers currently inside DrainBatch. RunBatch returns only once this is 0, so the
  // next batch cannot reset the cursor under a straggling claimer of the previous one.
  size_t batch_drainers_ CGRAPH_GUARDED_BY(mutex_) = 0;
  // Valid while the batch that published it is open.
  BatchFn batch_fn_ CGRAPH_GUARDED_BY(mutex_);
  size_t batch_size_ CGRAPH_GUARDED_BY(mutex_) = 0;
  std::atomic<size_t> batch_cursor_{0};
  std::atomic<size_t> batch_completed_{0};

  // Distinct cores a batch can occupy: the spawned workers plus the RunBatch caller,
  // bounded by the hardware concurrency (computed once at construction).
  size_t parallel_lanes_ = 1;

  std::vector<std::thread> threads_;
};

}  // namespace cgraph

#endif  // SRC_RUNTIME_THREAD_POOL_H_
