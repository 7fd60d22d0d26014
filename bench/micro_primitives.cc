// Micro-benchmarks (google-benchmark) for the hot primitives underneath the LTP engine:
// atomic and plain accumulation, cache-simulator touches, partition construction, and a full
// single-partition trigger.

#include <benchmark/benchmark.h>

#include <memory>

#include "src/algorithms/pagerank.h"
#include "src/cache/cache_sim.h"
#include "src/common/prng.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/partition/partitioned_graph.h"
#include "src/storage/vertex_state.h"

namespace {

using namespace cgraph;

// Atomic (compare-exchange) against plain scatter accumulation into one slot.
template <bool kAtomic>
void BM_AccumulateSum(benchmark::State& state) {
  double slot = 0.0;
  for (auto _ : state) {
    AccumulateInto<AccKind::kSum, kAtomic>(&slot, 1.0);
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(slot);
}
BENCHMARK(BM_AccumulateSum<true>);
BENCHMARK(BM_AccumulateSum<false>);

template <bool kAtomic>
void BM_AccumulateMin(benchmark::State& state) {
  double slot = AccIdentity(AccKind::kMin);
  double v = 1e9;
  for (auto _ : state) {
    AccumulateInto<AccKind::kMin, kAtomic>(&slot, v);
    benchmark::ClobberMemory();
    v -= 1.0;
  }
  benchmark::DoNotOptimize(slot);
}
BENCHMARK(BM_AccumulateMin<true>);
BENCHMARK(BM_AccumulateMin<false>);

void BM_CacheSimTouch(benchmark::State& state) {
  CacheSim cache(1ull << 20, 4ull << 10);
  Xoshiro256 rng(1);
  const ItemKey item{DataKind::kStructure, kSharedOwner, 0, 0};
  for (auto _ : state) {
    cache.TouchSegment(item, static_cast<uint32_t>(rng.NextBounded(1024)), 4096, false);
  }
  benchmark::DoNotOptimize(cache.occupancy());
}
BENCHMARK(BM_CacheSimTouch);

void BM_PartitionBuild(benchmark::State& state) {
  RmatOptions rmat;
  rmat.scale = static_cast<uint32_t>(state.range(0));
  rmat.edge_factor = 8;
  const EdgeList edges = GenerateRmat(rmat);
  PartitionOptions popts;
  popts.num_partitions = 16;
  for (auto _ : state) {
    const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
    benchmark::DoNotOptimize(pg.num_partitions());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(edges.num_edges()));
}
BENCHMARK(BM_PartitionBuild)->Arg(10)->Arg(12);

void BM_SinglePageRankIterationish(benchmark::State& state) {
  // End-to-end: one PageRank job over a small partitioned graph; measures the engine's
  // per-edge throughput including trigger, scatter, and push.
  RmatOptions rmat;
  rmat.scale = 11;
  rmat.edge_factor = 8;
  const EdgeList edges = GenerateRmat(rmat);
  PartitionOptions popts;
  popts.num_partitions = 8;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  EngineOptions options;
  options.num_workers = static_cast<uint32_t>(state.range(0));
  uint64_t edge_traversals = 0;
  for (auto _ : state) {
    LtpEngine engine(&pg, options);
    engine.AddJob(std::make_unique<PageRankProgram>(0.85, 1e-4));
    const RunReport report = engine.Run();
    edge_traversals += report.jobs[0].edge_traversals;
  }
  state.SetItemsProcessed(static_cast<int64_t>(edge_traversals));
}
BENCHMARK(BM_SinglePageRankIterationish)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
