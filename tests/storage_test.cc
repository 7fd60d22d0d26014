// Unit tests for vertex-state accumulation, private tables, the global table, and the
// snapshot store.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "src/core/vertex_program.h"
#include "src/graph/generators.h"
#include "src/partition/partitioned_graph.h"
#include "src/storage/global_table.h"
#include "src/storage/private_table.h"
#include "src/storage/snapshot_store.h"
#include "src/storage/vertex_state.h"

namespace cgraph {
namespace {

TEST(VertexStateTest, AccIdentities) {
  EXPECT_EQ(AccIdentity(AccKind::kSum), 0.0);
  EXPECT_EQ(AccIdentity(AccKind::kMin), std::numeric_limits<double>::infinity());
  EXPECT_EQ(AccIdentity(AccKind::kMax), -std::numeric_limits<double>::infinity());
}

TEST(VertexStateTest, AccApplySemantics) {
  EXPECT_DOUBLE_EQ(AccApply(AccKind::kSum, 2.0, 3.0), 5.0);
  EXPECT_DOUBLE_EQ(AccApply(AccKind::kMin, 2.0, 3.0), 2.0);
  EXPECT_DOUBLE_EQ(AccApply(AccKind::kMax, 2.0, 3.0), 3.0);
}

template <AccKind K>
double AccumulateFromIdentity(double contribution) {
  double slot = AccIdentity(K);
  AccumulateInto<K, /*kAtomic=*/true>(&slot, contribution);
  return slot;
}

TEST(VertexStateTest, AccumulateFromIdentityYieldsValue) {
  EXPECT_DOUBLE_EQ(AccumulateFromIdentity<AccKind::kSum>(7.5), 7.5);
  EXPECT_DOUBLE_EQ(AccumulateFromIdentity<AccKind::kMin>(7.5), 7.5);
  EXPECT_DOUBLE_EQ(AccumulateFromIdentity<AccKind::kMax>(7.5), 7.5);
}

TEST(VertexStateTest, ConcurrentSumAccumulateIsExactForIntegers) {
  double slot = 0.0;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&slot] {
      for (int i = 0; i < kPerThread; ++i) {
        AccumulateInto<AccKind::kSum, /*kAtomic=*/true>(&slot, 1.0);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_DOUBLE_EQ(slot, kThreads * kPerThread);
}

TEST(VertexStateTest, ConcurrentMinAccumulate) {
  double slot = AccIdentity(AccKind::kMin);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&slot, t] {
      for (int i = 0; i < 1000; ++i) {
        AccumulateInto<AccKind::kMin, /*kAtomic=*/true>(&slot, static_cast<double>(t * 1000 + i));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_DOUBLE_EQ(slot, 0.0);
}

// Run serially, the plain and the atomic scatter leave bit-identical slots for every
// Acc, including signed zeros, infinities and NaN, from every starting value: the plain
// path is only sound if nothing but the concurrency differs.
template <AccKind K>
void ExpectPlainMatchesAtomic() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double values[] = {0.0, -0.0, kInf, -kInf, 1.5, -2.25,
                           std::numeric_limits<double>::quiet_NaN()};
  for (const double start : values) {
    for (const double contribution : values) {
      std::vector<VertexState> plain(1);
      std::vector<VertexState> atomic(1);
      plain[0].delta_next = start;
      atomic[0].delta_next = start;
      Scatter<K, false> plain_ops(plain);
      Scatter<K, true> atomic_ops(atomic);
      plain_ops.Accumulate(0, contribution);
      atomic_ops.Accumulate(0, contribution);
      EXPECT_EQ(std::bit_cast<uint64_t>(plain[0].delta_next),
                std::bit_cast<uint64_t>(atomic[0].delta_next))
          << "acc " << static_cast<int>(K) << " start " << start << " contribution "
          << contribution;
      EXPECT_EQ(plain_ops.edge_traversals(), 1u);
      EXPECT_EQ(atomic_ops.edge_traversals(), 1u);
    }
  }
}

TEST(VertexStateTest, PlainAndAtomicScatterLeaveIdenticalBits) {
  ExpectPlainMatchesAtomic<AccKind::kSum>();
  ExpectPlainMatchesAtomic<AccKind::kMin>();
  ExpectPlainMatchesAtomic<AccKind::kMax>();
}

TEST(PrivateTableTest, LayoutMatchesGraph) {
  const EdgeList list = GenerateErdosRenyi(100, 700, 11);
  const PartitionedGraph pg =
      PartitionedGraphBuilder::Build(list, PartitionOptions{.num_partitions = 5});
  PrivateTable table(pg);
  EXPECT_EQ(table.num_partitions(), pg.num_partitions());
  uint64_t total = 0;
  for (PartitionId p = 0; p < pg.num_partitions(); ++p) {
    EXPECT_EQ(table.partition(p).size(), pg.partition(p).num_local_vertices());
    EXPECT_EQ(table.partition_bytes(p),
              pg.partition(p).num_local_vertices() * sizeof(VertexState));
    total += table.partition_bytes(p);
  }
  EXPECT_EQ(table.total_bytes(), total);
}

TEST(GlobalTableTest, RegisterUnregisterCounts) {
  GlobalTable table(4, 8);
  EXPECT_FALSE(table.IsActive(0));
  table.Register(0, 3);
  table.Register(0, 5);
  table.Register(0, 3);  // Idempotent.
  EXPECT_EQ(table.RegisteredCount(0), 2u);
  EXPECT_TRUE(table.IsRegistered(0, 3));
  EXPECT_EQ(table.RegisteredJobs(0), (std::vector<JobId>{3, 5}));
  table.Unregister(0, 3);
  EXPECT_EQ(table.RegisteredCount(0), 1u);
  table.Unregister(0, 3);  // Idempotent.
  EXPECT_EQ(table.RegisteredCount(0), 1u);
}

TEST(GlobalTableTest, UnregisterEverywhere) {
  GlobalTable table(3, 4);
  table.Register(0, 1);
  table.Register(1, 1);
  table.Register(2, 1);
  table.Register(2, 2);
  table.UnregisterEverywhere(1);
  EXPECT_EQ(table.RegisteredCount(0), 0u);
  EXPECT_EQ(table.RegisteredCount(1), 0u);
  EXPECT_EQ(table.RegisteredCount(2), 1u);
}

class SnapshotStoreTest : public ::testing::Test {
 protected:
  SnapshotStoreTest() {
    const EdgeList list = GenerateErdosRenyi(200, 2000, 13);
    store_ = std::make_unique<SnapshotStore>(
        PartitionedGraphBuilder::Build(list, PartitionOptions{.num_partitions = 8}));
  }
  std::unique_ptr<SnapshotStore> store_;
};

TEST_F(SnapshotStoreTest, BaseResolvesEverywhere) {
  for (PartitionId p = 0; p < store_->num_partitions(); ++p) {
    EXPECT_EQ(&store_->Resolve(p, 0), &store_->base().partition(p));
    EXPECT_EQ(store_->ResolveVersionIndex(p, 0), 0u);
  }
  EXPECT_EQ(store_->delta_bytes(), 0u);
}

TEST_F(SnapshotStoreTest, SnapshotCreatesVersionsOnlyForChangedPartitions) {
  const uint32_t changed = store_->CreateSnapshot(10, 0.01, 42);
  EXPECT_GT(changed, 0u);
  EXPECT_GT(store_->delta_bytes(), 0u);
  // Jobs older than the snapshot see the base.
  for (PartitionId p = 0; p < store_->num_partitions(); ++p) {
    EXPECT_EQ(store_->ResolveVersionIndex(p, 5), 0u);
  }
  // Jobs at/after the snapshot see the new version where one exists.
  uint32_t versioned = 0;
  for (PartitionId p = 0; p < store_->num_partitions(); ++p) {
    if (store_->ResolveVersionIndex(p, 10) == 1) {
      ++versioned;
      EXPECT_NE(&store_->Resolve(p, 10), &store_->base().partition(p));
    } else {
      EXPECT_EQ(&store_->Resolve(p, 10), &store_->base().partition(p));
    }
  }
  EXPECT_EQ(versioned, changed);
}

TEST_F(SnapshotStoreTest, ZeroChangeRatioSharesEverything) {
  const uint32_t changed = store_->CreateSnapshot(10, 0.0, 1);
  EXPECT_EQ(changed, 0u);
  for (PartitionId p = 0; p < store_->num_partitions(); ++p) {
    EXPECT_EQ(store_->ResolveVersionIndex(p, 10), 0u);
  }
}

TEST_F(SnapshotStoreTest, ChainOfSnapshotsResolvesNewestNotNewer) {
  store_->CreateSnapshot(10, 0.5, 1);
  store_->CreateSnapshot(20, 0.5, 2);
  for (PartitionId p = 0; p < store_->num_partitions(); ++p) {
    const uint32_t v0 = store_->ResolveVersionIndex(p, 0);
    const uint32_t v1 = store_->ResolveVersionIndex(p, 15);
    const uint32_t v2 = store_->ResolveVersionIndex(p, 25);
    EXPECT_EQ(v0, 0u);
    EXPECT_LE(v1, v2);
  }
  EXPECT_EQ(store_->latest_timestamp(), 20u);
}

TEST_F(SnapshotStoreTest, HighChangeRatioTouchesAllNonEmptyPartitions) {
  const uint32_t changed = store_->CreateSnapshot(10, 1.0, 3);
  uint32_t non_empty = 0;
  for (PartitionId p = 0; p < store_->num_partitions(); ++p) {
    if (store_->base().partition(p).num_local_edges() > 0) {
      ++non_empty;
    }
  }
  EXPECT_EQ(changed, non_empty);
}

TEST_F(SnapshotStoreTest, VersionCountTracksChain) {
  EXPECT_EQ(store_->VersionCount(0), 1u);
  store_->CreateSnapshot(10, 1.0, 4);
  EXPECT_EQ(store_->VersionCount(0), 2u);
}

}  // namespace
}  // namespace cgraph
