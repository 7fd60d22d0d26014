// BSP <-> async equivalence and diagnostics of the bounded-staleness execution mode
// (docs/execution_modes.md). BSP is the correctness oracle: for every monotonic program
// the async engine must converge to identical final values at any staleness, any worker
// count, with deterministic work counts; non-monotonic programs must run exact BSP
// regardless of the configured mode.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/algorithms/factory.h"
#include "src/algorithms/kcore.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/reference.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/wcc.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/metrics/csv_writer.h"
#include "src/partition/partitioned_graph.h"
#include "tests/testing/graph_fixtures.h"
#include "tests/testing/test_helpers.h"

namespace cgraph {
namespace {

using test_support::GraphCase;
using test_support::StandardGraphCases;

PartitionedGraph Partition(const EdgeList& edges, uint32_t parts = 6) {
  PartitionOptions options;
  options.num_partitions = parts;
  options.core_subgraph = true;
  return PartitionedGraphBuilder::Build(edges, options);
}

EngineOptions AsyncOptions(uint32_t workers, uint32_t staleness) {
  EngineOptions options = test_support::TestEngineOptions();
  options.num_workers = workers;
  options.execution_mode = ExecutionMode::kAsync;
  options.staleness = staleness;
  return options;
}

// Wall time is the one machine-dependent CSV column; modeled columns are deterministic.
std::string DeterministicCsv(RunReport report, const CostModel& model) {
  report.wall_seconds = 0.0;
  for (auto& job : report.jobs) {
    job.wall_seconds = 0.0;
  }
  return RunReportToCsv(report, model);
}

// The traits are load-bearing API: async eligibility (monotonic) and re-drain
// eligibility (path_independent) are declared per program, and a wrong declaration
// silently changes results or work. Pin every program's values.
TEST(ExecutionTraitsTest, MonotonicityDeclarations) {
  for (const char* name : {"sssp", "bfs", "wcc", "kcore", "khop"}) {
    EXPECT_TRUE(MakeProgram(name, 0)->monotonic()) << name;
  }
  for (const char* name : {"pagerank", "ppr", "scc"}) {
    EXPECT_FALSE(MakeProgram(name, 0)->monotonic()) << name;
  }
}

TEST(ExecutionTraitsTest, PathIndependenceDeclarations) {
  // Only WCC floods a path-independent label; every edge-accumulating program must stay
  // out of the eager re-drain (premature scatters of improvable values are wasted work).
  EXPECT_TRUE(MakeProgram("wcc", 0)->path_independent());
  for (const char* name : {"sssp", "bfs", "kcore", "khop", "pagerank", "ppr", "scc"}) {
    EXPECT_FALSE(MakeProgram(name, 0)->path_independent()) << name;
  }
}

// Converged values must be identical to the references (the BSP oracle) for every
// monotonic program, across worker counts and the whole staleness range, on every
// standard graph shape. staleness=0 degenerates to BSP; 8 exceeds most fixtures'
// iteration counts, so the flush-on-drain path must deliver the withheld windows.
class AsyncEquivalenceTest : public ::testing::TestWithParam<size_t> {
 protected:
  static const GraphCase& Case() { return StandardGraphCases()[GetParam()]; }
};

TEST_P(AsyncEquivalenceTest, MonotonicMixMatchesReferences) {
  const GraphCase& c = Case();
  if (c.edges.num_vertices() == 0) {
    return;
  }
  const VertexId source = PickSourceVertex(c.edges);
  const PartitionedGraph pg = Partition(c.edges);
  const Graph g = Graph::FromEdges(c.edges);
  const auto want_dist = ReferenceSssp(g, source);
  const auto want_labels = ReferenceWcc(g);
  const auto want_core = ReferenceKCore(g, 3);  // 1.0 = in core.
  for (const uint32_t workers : {1u, 4u}) {
    for (const uint32_t staleness : {0u, 1u, 8u}) {
      const std::string what =
          c.name + "/w" + std::to_string(workers) + "/s" + std::to_string(staleness);
      LtpEngine engine(&pg, AsyncOptions(workers, staleness));
      const JobId sssp = engine.AddJob(std::make_unique<SsspProgram>(source));
      const JobId wcc = engine.AddJob(std::make_unique<WccProgram>());
      const JobId kcore = engine.AddJob(std::make_unique<KCoreProgram>(3));
      engine.Run();
      test_support::ExpectNearValues(engine.FinalValues(sssp), want_dist, 1e-12,
                                     what + "/sssp");
      test_support::ExpectNearValues(engine.FinalValues(wcc), want_labels, 0.0,
                                     what + "/wcc");
      // k-core converges on membership (aux: 1.0 = peeled); the peel-time residual in
      // `value` is schedule-dependent, so equivalence is on aux, not value.
      const auto aux = engine.FinalAux(kcore);
      ASSERT_EQ(aux.size(), want_core.size()) << what;
      for (size_t v = 0; v < aux.size(); ++v) {
        EXPECT_EQ(aux[v] == 0.0, want_core[v] == 1.0) << what << "/kcore vertex " << v;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, AsyncEquivalenceTest,
                         ::testing::Range<size_t>(0, StandardGraphCases().size()),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return StandardGraphCases()[info.index].name;
                         });

class AsyncRmatTest : public ::testing::Test {
 protected:
  AsyncRmatTest() : edges_(test_support::FixedRmat(10, 8, 1234)), pg_(Partition(edges_, 8)) {}

  RunReport RunMix(const EngineOptions& options, std::vector<JobId>* ids = nullptr) {
    LtpEngine engine(&pg_, options);
    const JobId sssp = engine.AddJob(std::make_unique<SsspProgram>(0));
    const JobId wcc = engine.AddJob(std::make_unique<WccProgram>());
    const JobId kcore = engine.AddJob(std::make_unique<KCoreProgram>(3));
    if (ids != nullptr) {
      *ids = {sssp, wcc, kcore};
    }
    return engine.Run();
  }

  EdgeList edges_;
  PartitionedGraph pg_;
};

// staleness=0 makes every push a sync boundary, so async is *treated as* BSP: same
// modeled CSV byte for byte, and no job carries the async flag.
TEST_F(AsyncRmatTest, StalenessZeroIsByteIdenticalToBsp) {
  EngineOptions bsp = test_support::TestEngineOptions();
  const RunReport bsp_report = RunMix(bsp);
  const RunReport async_report = RunMix(AsyncOptions(4, 0));
  for (const auto& job : async_report.jobs) {
    EXPECT_FALSE(job.async_execution) << job.job_name;
    EXPECT_EQ(job.redrain_computes, 0u) << job.job_name;
    EXPECT_EQ(job.deferred_pushes, 0u) << job.job_name;
  }
  const CostModel model{};
  EXPECT_EQ(DeterministicCsv(bsp_report, model), DeterministicCsv(async_report, model));
}

// The async schedule is defined by partition order, not worker count: re-drain runs
// inline in ascending vertex order and deferral decisions depend only on per-iteration
// frontier state, so every modeled count must be identical across worker counts.
TEST_F(AsyncRmatTest, AsyncCountsDeterministicAcrossWorkers) {
  for (const uint32_t staleness : {1u, 8u}) {
    const RunReport w1 = RunMix(AsyncOptions(1, staleness));
    const RunReport w4 = RunMix(AsyncOptions(4, staleness));
    ASSERT_EQ(w1.jobs.size(), w4.jobs.size());
    for (size_t j = 0; j < w1.jobs.size(); ++j) {
      const std::string what = w1.jobs[j].job_name + "/s" + std::to_string(staleness);
      EXPECT_EQ(w1.jobs[j].iterations, w4.jobs[j].iterations) << what;
      EXPECT_EQ(w1.jobs[j].vertex_computes, w4.jobs[j].vertex_computes) << what;
      EXPECT_EQ(w1.jobs[j].edge_traversals, w4.jobs[j].edge_traversals) << what;
      EXPECT_EQ(w1.jobs[j].push_updates, w4.jobs[j].push_updates) << what;
      EXPECT_EQ(w1.jobs[j].compute_units, w4.jobs[j].compute_units) << what;
      EXPECT_EQ(w1.jobs[j].redrain_computes, w4.jobs[j].redrain_computes) << what;
      EXPECT_EQ(w1.jobs[j].deferred_pushes, w4.jobs[j].deferred_pushes) << what;
    }
  }
}

// A monotonic job that actually ran relaxed must say so; the diagnostics separate the
// two async mechanisms (re-drain is wcc-only via path_independent, deferral is global).
TEST_F(AsyncRmatTest, AsyncDiagnosticsAreReported) {
  const RunReport report = RunMix(AsyncOptions(4, 1));
  uint64_t redrain = 0;
  uint64_t deferred = 0;
  for (const auto& job : report.jobs) {
    EXPECT_TRUE(job.async_execution) << job.job_name;
    if (job.job_name == "wcc") {
      redrain = job.redrain_computes;
    } else {
      EXPECT_EQ(job.redrain_computes, 0u) << job.job_name;
    }
    deferred += job.deferred_pushes;
  }
  EXPECT_GT(redrain, 0u);
  EXPECT_GT(deferred, 0u);
}

// The perf claim the bench gates on, pinned as a canary at test scale: the monotonic mix
// must cost fewer compute units under async than under BSP.
TEST_F(AsyncRmatTest, AsyncReducesComputeUnits) {
  const RunReport bsp = RunMix(test_support::TestEngineOptions());
  const RunReport async_report = RunMix(AsyncOptions(4, 1));
  EXPECT_LT(async_report.TotalComputeUnits(), bsp.TotalComputeUnits());
}

// Non-monotonic programs must ignore the mode entirely: exact BSP schedule, identical
// modeled CSV, no async diagnostics. (The CLI additionally rejects such requests with a
// usage error; the engine-level contract is "silently exact".)
TEST_F(AsyncRmatTest, NonMonotonicProgramsRunExactBsp) {
  EngineOptions bsp_options = test_support::TestEngineOptions();
  RunReport bsp_report;
  RunReport async_report;
  {
    LtpEngine engine(&pg_, bsp_options);
    engine.AddJob(std::make_unique<PageRankProgram>(0.85, 1e-10));
    engine.AddJob(MakeProgram("scc", 0));
    bsp_report = engine.Run();
  }
  {
    LtpEngine engine(&pg_, AsyncOptions(4, 8));
    engine.AddJob(std::make_unique<PageRankProgram>(0.85, 1e-10));
    engine.AddJob(MakeProgram("scc", 0));
    async_report = engine.Run();
  }
  for (const auto& job : async_report.jobs) {
    EXPECT_FALSE(job.async_execution) << job.job_name;
    EXPECT_EQ(job.redrain_computes, 0u) << job.job_name;
    EXPECT_EQ(job.deferred_pushes, 0u) << job.job_name;
  }
  const CostModel model{};
  EXPECT_EQ(DeterministicCsv(bsp_report, model), DeterministicCsv(async_report, model));
}

// A mixed submission: the monotonic jobs relax, the non-monotonic job stays exact, and
// everyone still converges to reference results in the same engine run.
TEST_F(AsyncRmatTest, MixedMonotonicityCoexists) {
  LtpEngine engine(&pg_, AsyncOptions(4, 2));
  const JobId wcc = engine.AddJob(std::make_unique<WccProgram>());
  const JobId pr = engine.AddJob(std::make_unique<PageRankProgram>(0.85, 1e-10));
  const RunReport report = engine.Run();
  EXPECT_TRUE(report.jobs[wcc].async_execution);
  EXPECT_FALSE(report.jobs[pr].async_execution);
  const Graph g = Graph::FromEdges(edges_);
  test_support::ExpectNearValues(engine.FinalValues(wcc), ReferenceWcc(g), 0.0,
                                 "mixed/wcc");
  test_support::ExpectNearValues(engine.FinalValues(pr),
                                 ReferencePageRank(g, 0.85, 1e-10), 1e-6, "mixed/pr");
}

}  // namespace
}  // namespace cgraph
