// Cross-cutting integration tests: the full executor x algorithm matrix against the
// references, runtime job arrival, hash partitioning end to end, and the cache-economics
// invariants the paper's evaluation rests on.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <tuple>

#include "src/algorithms/factory.h"
#include "src/algorithms/reference.h"
#include "src/algorithms/wcc.h"
#include "src/baselines/baseline_executor.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/partition/partitioned_graph.h"
#include "tests/testing/graph_fixtures.h"
#include "tests/testing/test_helpers.h"

namespace cgraph {
namespace {

EngineOptions SmallCacheOptions() { return test_support::TestEngineOptions(/*cache_kib=*/48); }

struct MatrixCase {
  std::string executor;  // "ltp" or a baseline system name.
  std::string algorithm;
};

std::string CaseName(const ::testing::TestParamInfo<MatrixCase>& info) {
  std::string name = info.param.executor + "_" + info.param.algorithm;
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

// Runs `algorithm` on `executor` over the fixed test graph and compares to references.
class ExecutorAlgorithmMatrixTest : public ::testing::TestWithParam<MatrixCase> {
 protected:
  static const EdgeList& Edges() {
    static const EdgeList edges = test_support::FixedRmat(9, 6, 99);
    return edges;
  }

  static const PartitionedGraph& Partitioned() {
    static const PartitionedGraph pg = [] {
      PartitionOptions popts;
      popts.num_partitions = 7;
      return PartitionedGraphBuilder::Build(Edges(), popts);
    }();
    return pg;
  }
};

TEST_P(ExecutorAlgorithmMatrixTest, MatchesReference) {
  const auto& [executor_name, algorithm] = GetParam();
  const EdgeList& edges = Edges();
  const Graph g = Graph::FromEdges(edges);
  const VertexId source = PickSourceVertex(edges);

  std::vector<double> values;
  std::vector<double> aux;
  if (executor_name == "ltp") {
    LtpEngine engine(&Partitioned(), SmallCacheOptions());
    const JobId id = engine.AddJob(MakeProgram(algorithm, source));
    engine.Run();
    values = engine.FinalValues(id);
    aux = engine.FinalAux(id);
  } else {
    BaselineOptions options;
    options.engine = SmallCacheOptions();
    for (const auto system :
         {BaselineSystem::kSequential, BaselineSystem::kSeraph, BaselineSystem::kSeraphVt,
          BaselineSystem::kNxgraph, BaselineSystem::kClip}) {
      if (BaselineSystemName(system) == executor_name) {
        options.system = system;
      }
    }
    BaselineExecutor executor(&Partitioned(), options);
    const JobId id = executor.AddJob(MakeProgram(algorithm, source));
    executor.Run();
    values = executor.FinalValues(id);
    aux = executor.FinalAux(id);
  }

  if (algorithm == "pagerank") {
    const auto expected = ReferencePageRank(g, 0.85, 1e-4);
    for (size_t v = 0; v < expected.size(); ++v) {
      // Loose epsilon: the engine and reference may settle within different sub-epsilon
      // remainders of each other.
      EXPECT_NEAR(values[v], expected[v], 2e-3) << v;
    }
  } else if (algorithm == "ppr") {
    const auto expected = ReferencePersonalizedPageRank(g, source, 0.85, 1e-7);
    for (size_t v = 0; v < expected.size(); ++v) {
      EXPECT_NEAR(values[v], expected[v], 2e-5) << v;
    }
  } else if (algorithm == "sssp") {
    const auto expected = ReferenceSssp(g, source);
    for (size_t v = 0; v < expected.size(); ++v) {
      if (std::isinf(expected[v])) {
        EXPECT_TRUE(std::isinf(values[v])) << v;
      } else {
        EXPECT_DOUBLE_EQ(values[v], expected[v]) << v;
      }
    }
  } else if (algorithm == "bfs") {
    const auto expected = ReferenceBfs(g, source);
    for (size_t v = 0; v < expected.size(); ++v) {
      if (std::isinf(expected[v])) {
        EXPECT_TRUE(std::isinf(values[v])) << v;
      } else {
        EXPECT_DOUBLE_EQ(values[v], expected[v]) << v;
      }
    }
  } else if (algorithm == "khop") {
    const auto expected = ReferenceKHop(g, source, 4);
    for (size_t v = 0; v < expected.size(); ++v) {
      if (std::isinf(expected[v])) {
        EXPECT_TRUE(std::isinf(values[v])) << v;
      } else {
        EXPECT_DOUBLE_EQ(values[v], expected[v]) << v;
      }
    }
  } else if (algorithm == "wcc") {
    EXPECT_EQ(values, ReferenceWcc(g));
  } else if (algorithm == "scc") {
    for (double& l : aux) {
      l -= 1.0;
    }
    EXPECT_EQ(CanonicalizeLabels(aux), CanonicalizeLabels(ReferenceScc(g)));
  } else if (algorithm == "kcore") {
    const auto expected = ReferenceKCore(g, 4);
    for (size_t v = 0; v < expected.size(); ++v) {
      EXPECT_EQ(aux[v] == 0.0, expected[v] == 1.0) << v;
    }
  } else {
    FAIL() << "unknown algorithm " << algorithm;
  }
}

std::vector<MatrixCase> MatrixCases() {
  std::vector<MatrixCase> cases;
  for (const char* executor :
       {"ltp", "sequential", "seraph", "seraph-vt", "nxgraph", "clip"}) {
    for (const char* algorithm :
         {"pagerank", "sssp", "scc", "bfs", "wcc", "kcore", "ppr", "khop"}) {
      cases.push_back({executor, algorithm});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Matrix, ExecutorAlgorithmMatrixTest,
                         ::testing::ValuesIn(MatrixCases()), CaseName);

TEST(RuntimeArrivalTest, LateJobComputesCorrectly) {
  const EdgeList edges = GenerateErdosRenyi(300, 2400, 47);
  const Graph g = Graph::FromEdges(edges);
  PartitionOptions popts;
  popts.num_partitions = 6;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);

  LtpEngine engine(&pg, SmallCacheOptions());
  engine.AddJob(MakeProgram("pagerank", 0));
  const JobId late_wcc = engine.ScheduleJob(std::make_unique<WccProgram>(),
                                            /*arrival_step=*/25);
  const RunReport report = engine.Run();
  EXPECT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(engine.FinalValues(late_wcc), ReferenceWcc(g));
}

TEST(RuntimeArrivalTest, ArrivalAfterEveryoneFinished) {
  const EdgeList edges = GenerateRing(64);
  PartitionOptions popts;
  popts.num_partitions = 2;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);

  LtpEngine engine(&pg, SmallCacheOptions());
  engine.AddJob(MakeProgram("bfs", 0));
  // Arrives long after BFS converges; the engine must idle forward and still run it.
  const JobId late = engine.ScheduleJob(std::make_unique<WccProgram>(),
                                        /*arrival_step=*/100000);
  engine.Run();
  const Graph g = Graph::FromEdges(edges);
  EXPECT_EQ(engine.FinalValues(late), ReferenceWcc(g));
}

TEST(RuntimeArrivalTest, ManyStaggeredArrivals) {
  const EdgeList edges = GenerateErdosRenyi(200, 1500, 53);
  const Graph g = Graph::FromEdges(edges);
  PartitionOptions popts;
  popts.num_partitions = 5;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  const VertexId source = PickSourceVertex(edges);

  LtpEngine engine(&pg, SmallCacheOptions());
  engine.AddJob(MakeProgram("pagerank", source));
  std::vector<JobId> arrivals;
  for (uint64_t step : {5u, 10u, 20u, 40u}) {
    arrivals.push_back(engine.ScheduleJob(MakeProgram("bfs", source), step));
  }
  engine.Run();
  const auto expected = ReferenceBfs(g, source);
  for (const JobId id : arrivals) {
    const auto actual = engine.FinalValues(id);
    for (size_t v = 0; v < expected.size(); ++v) {
      if (std::isinf(expected[v])) {
        EXPECT_TRUE(std::isinf(actual[v]));
      } else {
        EXPECT_DOUBLE_EQ(actual[v], expected[v]);
      }
    }
  }
}

TEST(HashPartitioningTest, EndToEndCorrectness) {
  const EdgeList edges = GenerateErdosRenyi(250, 2000, 61);
  const Graph g = Graph::FromEdges(edges);
  PartitionOptions popts;
  popts.num_partitions = 6;
  popts.partitioner = PartitionerKind::kHashSource;
  popts.core_subgraph = false;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  EXPECT_EQ(pg.num_edges(), edges.num_edges());

  LtpEngine engine(&pg, SmallCacheOptions());
  const JobId id = engine.AddJob(std::make_unique<WccProgram>());
  engine.Run();
  EXPECT_EQ(engine.FinalValues(id), ReferenceWcc(g));
}

TEST(HashPartitioningTest, OutEdgesOfAVertexStayTogether) {
  const EdgeList edges = GenerateErdosRenyi(200, 1600, 67);
  PartitionOptions popts;
  popts.num_partitions = 8;
  popts.partitioner = PartitionerKind::kHashSource;
  popts.core_subgraph = false;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  // Every vertex's out-edges live in exactly one partition.
  std::vector<int> out_partition(edges.num_vertices(), -1);
  for (const auto& part : pg.partitions()) {
    for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
      if (part.out_neighbors(v).empty()) {
        continue;
      }
      const VertexId gid = part.vertex(v).global_id;
      EXPECT_TRUE(out_partition[gid] == -1 ||
                  out_partition[gid] == static_cast<int>(part.id()));
      out_partition[gid] = static_cast<int>(part.id());
    }
  }
}

TEST(CacheEconomicsTest, SharingGrowsWithJobCount) {
  // The paper's core claim (Figs. 18/19): CGraph's per-job data traffic falls as more
  // jobs share each load, while an individual-access system's per-job traffic does not.
  const EdgeList edges = test_support::FixedRmat(10, 8, 21);
  PartitionOptions popts;
  popts.num_partitions = 12;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);

  auto cgraph_bytes_per_job = [&](size_t jobs) {
    LtpEngine engine(&pg, SmallCacheOptions());
    for (size_t i = 0; i < jobs; ++i) {
      engine.AddJob(MakeProgram("pagerank", 0));
    }
    const RunReport report = engine.Run();
    return static_cast<double>(report.cache.miss_bytes) / jobs;
  };
  const double one = cgraph_bytes_per_job(1);
  const double four = cgraph_bytes_per_job(4);
  // Structure loads amortize ~4x for identical jobs; private-table traffic (one table
  // per job) cannot, so the per-job total lands well below solo but above total/4.
  EXPECT_LT(four, 0.7 * one);
}

TEST(CacheEconomicsTest, CgraphMissRateDropsWithJobs) {
  const EdgeList edges = test_support::FixedRmat(10, 8, 22);
  PartitionOptions popts;
  popts.num_partitions = 12;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);

  auto miss_rate = [&](size_t jobs) {
    LtpEngine engine(&pg, SmallCacheOptions());
    for (size_t i = 0; i < jobs; ++i) {
      engine.AddJob(MakeProgram("pagerank", 0));
    }
    return engine.Run().cache.miss_rate();
  };
  EXPECT_LT(miss_rate(8), miss_rate(1));
}

}  // namespace
}  // namespace cgraph
