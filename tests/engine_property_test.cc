// Property suite: algorithm results must be invariant to every execution-configuration
// knob — partition count, worker count, partition layout, edge assignment, eviction
// policy, scheduler toggles. Only the *costs* may change, never the answers.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <tuple>

#include "src/algorithms/factory.h"
#include "src/algorithms/reference.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/partition/partitioned_graph.h"
#include "tests/testing/graph_fixtures.h"

namespace cgraph {
namespace {

const EdgeList& TestEdges() {
  static const EdgeList edges = test_support::FixedRmat(9, 7, 1234);
  return edges;
}

// (num_partitions, num_workers, core_subgraph)
using Config = std::tuple<uint32_t, uint32_t, bool>;

class ConfigInvarianceTest : public ::testing::TestWithParam<Config> {};

TEST_P(ConfigInvarianceTest, TraversalResultsExact) {
  const auto [partitions, workers, core] = GetParam();
  const EdgeList& edges = TestEdges();
  const Graph g = Graph::FromEdges(edges);
  const VertexId source = PickSourceVertex(edges);

  PartitionOptions popts;
  popts.num_partitions = partitions;
  popts.core_subgraph = core;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);

  EngineOptions options;
  options.num_workers = workers;
  LtpEngine engine(&pg, options);
  const JobId sssp = engine.AddJob(MakeProgram("sssp", source));
  const JobId wcc = engine.AddJob(MakeProgram("wcc", source));
  engine.Run();

  const auto sssp_expected = ReferenceSssp(g, source);
  const auto sssp_actual = engine.FinalValues(sssp);
  for (size_t v = 0; v < sssp_expected.size(); ++v) {
    if (std::isinf(sssp_expected[v])) {
      EXPECT_TRUE(std::isinf(sssp_actual[v])) << v;
    } else {
      EXPECT_DOUBLE_EQ(sssp_actual[v], sssp_expected[v]) << v;
    }
  }
  EXPECT_EQ(engine.FinalValues(wcc), ReferenceWcc(g));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigInvarianceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 5u, 16u), ::testing::Values(1u, 3u, 8u),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Config>& param_info) {
      // Built via append: the const char* + std::string&& operator chain trips a GCC 12
      // -Werror=restrict false positive at -O3.
      std::string name = "p";
      name += std::to_string(std::get<0>(param_info.param));
      name += "_w";
      name += std::to_string(std::get<1>(param_info.param));
      name += std::get<2>(param_info.param) ? "_core" : "_flat";
      return name;
    });

TEST(PolicyInvarianceTest, EvictionPolicyDoesNotChangeResults) {
  const EdgeList& edges = TestEdges();
  const Graph g = Graph::FromEdges(edges);
  PartitionOptions popts;
  popts.num_partitions = 8;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  for (const auto policy : {EvictionPolicy::kLru, EvictionPolicy::kFrequencyAware}) {
    EngineOptions options;
    options.num_workers = 4;
    options.hierarchy.eviction_policy = policy;
    options.hierarchy.cache_capacity_bytes = 32ull << 10;
    options.hierarchy.cache_segment_bytes = 4ull << 10;
    LtpEngine engine(&pg, options);
    const JobId id = engine.AddJob(MakeProgram("wcc", 0));
    engine.Run();
    EXPECT_EQ(engine.FinalValues(id), ReferenceWcc(g));
  }
}

TEST(PolicyInvarianceTest, PartitionerDoesNotChangeResults) {
  const EdgeList& edges = TestEdges();
  const Graph g = Graph::FromEdges(edges);
  const VertexId source = PickSourceVertex(edges);
  for (const PartitionerKind kind : {PartitionerKind::kEvenEdge, PartitionerKind::kHashSource}) {
    PartitionOptions popts;
    popts.num_partitions = 8;
    popts.partitioner = kind;
    popts.core_subgraph = kind == PartitionerKind::kEvenEdge;
    const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
    EngineOptions options;
    options.num_workers = 4;
    LtpEngine engine(&pg, options);
    const JobId id = engine.AddJob(MakeProgram("bfs", source));
    engine.Run();
    const auto expected = ReferenceBfs(g, source);
    const auto actual = engine.FinalValues(id);
    for (size_t v = 0; v < expected.size(); ++v) {
      if (std::isinf(expected[v])) {
        EXPECT_TRUE(std::isinf(actual[v])) << v;
      } else {
        EXPECT_DOUBLE_EQ(actual[v], expected[v]) << v;
      }
    }
  }
}

TEST(PolicyInvarianceTest, CacheCapacityDoesNotChangeResults) {
  const EdgeList& edges = TestEdges();
  const Graph g = Graph::FromEdges(edges);
  PartitionOptions popts;
  popts.num_partitions = 6;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  for (const uint64_t cache_kib : {4ull, 64ull, 4096ull}) {
    EngineOptions options;
    options.num_workers = 2;
    options.hierarchy.cache_capacity_bytes = cache_kib << 10;
    options.hierarchy.cache_segment_bytes = 2ull << 10;
    LtpEngine engine(&pg, options);
    const JobId id = engine.AddJob(MakeProgram("wcc", 0));
    engine.Run();
    EXPECT_EQ(engine.FinalValues(id), ReferenceWcc(g)) << cache_kib;
  }
}

TEST(PolicyInvarianceTest, SchedulerTogglesDoNotChangeResults) {
  const EdgeList& edges = TestEdges();
  const Graph g = Graph::FromEdges(edges);
  PartitionOptions popts;
  popts.num_partitions = 10;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  for (const bool scheduler : {false, true}) {
    for (const double theta : {0.0, 1.0}) {
      EngineOptions options;
      options.num_workers = 4;
      options.use_scheduler = scheduler;
      options.theta_scale = theta;
      LtpEngine engine(&pg, options);
      const JobId id = engine.AddJob(MakeProgram("wcc", 0));
      engine.Run();
      EXPECT_EQ(engine.FinalValues(id), ReferenceWcc(g));
    }
  }
}

}  // namespace
}  // namespace cgraph
