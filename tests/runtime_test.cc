// Unit tests for the thread pool and its threshold-gated dispatch.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "src/runtime/pool_dispatch.h"
#include "src/runtime/thread_pool.h"

namespace cgraph {
namespace {

TEST(ThreadPoolTest, ZeroWorkersClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_workers(), 1u);
  std::atomic<int> counter{0};
  pool.RunBatch(3, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, SequentialBatches) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 10; ++round) {
    pool.RunBatch(7, [&](size_t) { counter.fetch_add(1); });
    EXPECT_EQ(counter.load(), (round + 1) * 7);
  }
}

TEST(ThreadPoolTest, EmptyBatchReturnsImmediately) {
  ThreadPool pool(2);
  pool.RunBatch(0, [](size_t) {});  // Must not hang.
}

TEST(ThreadPoolTest, RunBatchCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.RunBatch(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, RunBatchZeroAndOneTasks) {
  ThreadPool pool(2);
  pool.RunBatch(0, [](size_t) { FAIL() << "no task should run"; });
  int calls = 0;
  size_t seen = 99;
  pool.RunBatch(1, [&](size_t i) {
    ++calls;
    seen = i;
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, 0u);
}

TEST(ThreadPoolTest, RunBatchSequentialBatchesDoNotInterfere) {
  // Back-to-back batches through the same cursor: a straggling claimer of batch k must
  // never consume an index of batch k+1.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int> counter{0};
    const size_t n = 1 + static_cast<size_t>(round % 7);
    pool.RunBatch(n, [&](size_t) { counter.fetch_add(1); });
    ASSERT_EQ(counter.load(), static_cast<int>(n)) << "round " << round;
  }
}

TEST(ThreadPoolTest, RunBatchManyMoreTasksThanWorkers) {
  ThreadPool pool(2);
  std::atomic<uint64_t> sum{0};
  const size_t n = 10000;
  pool.RunBatch(n, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), static_cast<uint64_t>(n) * (n - 1) / 2);
}

TEST(PoolDispatchTest, CoversEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  const PoolDispatch dispatch(&pool, 4, /*threshold=*/0);
  std::vector<std::atomic<int>> hits(10000);
  dispatch.Run(hits.size(), hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(PoolDispatchTest, ZeroTasks) {
  ThreadPool pool(2);
  const PoolDispatch dispatch(&pool, 2, /*threshold=*/0);
  bool called = false;
  dispatch.Run(0, 0, [&](size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(PoolDispatchTest, SumMatchesSerial) {
  ThreadPool pool(8);
  const PoolDispatch dispatch(&pool, 8, /*threshold=*/0);
  const size_t n = 100000;
  std::atomic<uint64_t> total{0};
  dispatch.Run(n, n, [&](size_t i) { total.fetch_add(i); });
  EXPECT_EQ(total.load(), n * (n - 1) / 2);
}

// Below the threshold, with one worker, or without a pool, tasks run inline on the
// calling thread in ascending index order.
TEST(PoolDispatchTest, InlineCasesRunInOrderOnCaller) {
  ThreadPool pool(4);
  const PoolDispatch below(&pool, 4, /*threshold=*/100);
  const PoolDispatch one_worker(&pool, 1, /*threshold=*/0);
  const PoolDispatch no_pool(nullptr, 4, /*threshold=*/0);
  for (const PoolDispatch* dispatch : {&below, &one_worker, &no_pool}) {
    std::vector<size_t> order;
    const std::thread::id caller = std::this_thread::get_id();
    dispatch->Run(50, /*work=*/99, [&](size_t i) {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
    });
    std::vector<size_t> expected(50);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
  }
}

}  // namespace
}  // namespace cgraph
