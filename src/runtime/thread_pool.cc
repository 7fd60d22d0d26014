#include "src/runtime/thread_pool.h"

#include <algorithm>

#include "src/common/check.h"

namespace cgraph {

ThreadPool::ThreadPool(size_t num_workers) {
  if (num_workers == 0) {
    num_workers = 1;
  }
  // Oversubscription cap: a pool asked for more threads than the machine has cores
  // spawns only core-count threads. The extra threads could never run concurrently, but
  // each one would still be woken (and then fight for the batch cursor and the mutex) on
  // every RunBatch — on a single-core host that alone made workers=4 slower than
  // workers=1 on the throughput bench. hardware_concurrency() may report 0 (unknown);
  // keep the request untouched then.
  const size_t hw = std::thread::hardware_concurrency();
  if (hw > 0 && num_workers > hw) {
    num_workers = hw;
  }
  // The RunBatch caller drains indices alongside the workers, so lanes = workers + 1,
  // still bounded by the core count.
  parallel_lanes_ = hw > 0 ? std::min(num_workers + 1, hw) : num_workers + 1;
  threads_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::RunBatch(size_t n_tasks, BatchFn fn) {
  if (n_tasks == 0) {
    return;
  }
  if (n_tasks == 1 || !CanRunConcurrently()) {
    // Nothing to share — one task, or one core: run inline without touching the mutex.
    // On single-core hardware a dispatched batch degenerates to the same serial order
    // plus wake-up/contention overhead, so the inline loop is strictly better.
    for (size_t i = 0; i < n_tasks; ++i) {
      fn(i);
    }
    return;
  }
  {
    MutexLock lock(mutex_);
    CGRAPH_CHECK(!batch_open_);  // Single driver thread; RunBatch must not nest.
    batch_fn_ = fn;
    batch_size_ = n_tasks;
    batch_cursor_.store(0, std::memory_order_relaxed);
    batch_completed_.store(0, std::memory_order_relaxed);
    ++batch_epoch_;
    batch_open_ = true;
  }
  work_available_.NotifyAll();

  DrainBatch(fn, n_tasks);  // The caller claims indices like any worker.

  // Wait for completion AND for every worker to leave DrainBatch: a straggler that is
  // about to bump the cursor must not observe the next batch's reset cursor.
  MutexLock lock(mutex_);
  batch_done_.Wait(lock, [this]() CGRAPH_REQUIRES(mutex_) {
    return !batch_open_ && batch_drainers_ == 0;
  });
}

void ThreadPool::DrainBatch(BatchFn fn, size_t n_tasks) {
  while (true) {
    const size_t i = batch_cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n_tasks) {
      return;
    }
    fn(i);
    // acq_rel: the thread that retires the last index must observe every other claimer's
    // writes before the RunBatch caller resumes past the batch.
    if (batch_completed_.fetch_add(1, std::memory_order_acq_rel) + 1 == n_tasks) {
      {
        MutexLock lock(mutex_);
        batch_open_ = false;
      }
      batch_done_.NotifyAll();
    }
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t drained_epoch = 0;  // Last batch epoch this worker already pulled from.
  MutexLock lock(mutex_);
  while (true) {
    work_available_.Wait(lock, [this, drained_epoch]() CGRAPH_REQUIRES(mutex_) {
      return shutting_down_ || (batch_open_ && batch_epoch_ != drained_epoch);
    });
    if (batch_open_ && batch_epoch_ != drained_epoch) {
      drained_epoch = batch_epoch_;
      const BatchFn fn = batch_fn_;
      const size_t n = batch_size_;
      ++batch_drainers_;
      lock.Unlock();
      DrainBatch(fn, n);
      lock.Lock();
      --batch_drainers_;
      if (batch_drainers_ == 0 && !batch_open_) {
        batch_done_.NotifyAll();
      }
      continue;
    }
    return;  // Not a new batch, so the wake-up was the shutdown.
  }
}

}  // namespace cgraph
