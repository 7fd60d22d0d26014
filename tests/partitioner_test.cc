// Partitioner-layer suite (docs/partitioning.md): structural invariants every
// vertex-cut strategy must satisfy on every fixture graph, hand-computed quality
// indices, build determinism, and the two engine-level contracts — even_edge modeled
// CSVs byte-identical to the pre-partitioner-layer goldens, and every alternative
// strategy converging to the same final values as the references in bsp and async.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/algorithms/factory.h"
#include "src/algorithms/kcore.h"
#include "src/algorithms/reference.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/wcc.h"
#include "src/core/ltp_engine.h"
#include "src/graph/graph.h"
#include "src/metrics/csv_writer.h"
#include "src/partition/partition_debug.h"
#include "src/partition/partitioner.h"
#include "src/partition/partitioned_graph.h"
#include "tests/testing/graph_fixtures.h"
#include "tests/testing/test_helpers.h"

namespace cgraph {
namespace {

using test_support::FixedRmat;
using test_support::GraphCase;
using test_support::StandardGraphCases;

constexpr PartitionerKind kAllPartitioners[] = {
    PartitionerKind::kEvenEdge, PartitionerKind::kHashSource, PartitionerKind::kGreedy,
    PartitionerKind::kDegree};

PartitionOptions OptionsFor(PartitionerKind kind, uint32_t parts) {
  PartitionOptions options;
  options.num_partitions = parts;
  options.partitioner = kind;
  return options;
}

PartitionedGraph BuildWith(const EdgeList& edges, PartitionerKind kind, uint32_t parts) {
  return PartitionedGraphBuilder::Build(edges, OptionsFor(kind, parts));
}

EdgeList TinyGraph(VertexId n, std::vector<std::pair<VertexId, VertexId>> pairs) {
  EdgeList edges;
  edges.set_num_vertices(n);
  for (const auto& [s, d] : pairs) {
    edges.Add(s, d);
  }
  edges.set_num_vertices(n);  // Keep trailing isolated vertices representable.
  return edges;
}

TEST(PartitionerNamesTest, FactoryMatchesKindAndName) {
  for (const PartitionerKind kind : kAllPartitioners) {
    EXPECT_EQ(MakePartitioner(kind)->kind(), kind);
    EXPECT_EQ(MakePartitioner(kind)->name(), PartitionerKindName(kind));
  }
}

// The property sweep: every strategy, every fixture shape (paths, cycles, stars, grids,
// complete, R-MAT, Erdos-Renyi, disconnected-with-isolated-vertices), partition counts
// from trivial through more-partitions-than-edges. The shared invariant checker asserts
// each layout holds exactly the input edges, elects exactly one master per vertex,
// wires the mirror indices consistently, respects the strategy's capacity bound, and
// stores a quality record that matches recomputation.
TEST(PartitionerInvariantsTest, SweepAllStrategiesFixturesAndCounts) {
  for (const GraphCase& c : StandardGraphCases()) {
    for (const PartitionerKind kind : kAllPartitioners) {
      for (const uint32_t parts : {1u, 2u, 3u, 7u, 16u, 64u}) {
        const PartitionOptions options = OptionsFor(kind, parts);
        const std::unique_ptr<Partitioner> strategy = MakePartitioner(kind);
        const PartitionedGraph pg =
            PartitionedGraphBuilder::Build(c.edges, options, *strategy);
        EXPECT_EQ(pg.quality().partitioner, kind);
        const uint64_t capacity =
            strategy->EdgeCapacity(c.edges.num_edges(), pg.num_partitions(), options);
        const std::vector<std::string> issues =
            CheckPartitionInvariants(c.edges, pg, capacity);
        EXPECT_TRUE(issues.empty())
            << c.name << "/" << PartitionerKindName(kind) << "/p" << parts << ": "
            << (issues.empty() ? "" : issues.front());
      }
    }
  }
}

TEST(PartitionerInvariantsTest, BuildIsDeterministic) {
  const EdgeList edges = FixedRmat(8, 8, 5);
  for (const PartitionerKind kind : kAllPartitioners) {
    const uint64_t first = PartitionLayoutDigest(BuildWith(edges, kind, 7));
    const uint64_t second = PartitionLayoutDigest(BuildWith(edges, kind, 7));
    EXPECT_EQ(first, second) << PartitionerKindName(kind);
  }
}

TEST(PartitionerInvariantsTest, GreedyRespectsCapacityBound) {
  const EdgeList edges = FixedRmat(9, 8, 2);
  const PartitionOptions options = OptionsFor(PartitionerKind::kGreedy, 8);
  const std::unique_ptr<Partitioner> greedy = MakePartitioner(PartitionerKind::kGreedy);
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, options, *greedy);
  const uint64_t capacity =
      greedy->EdgeCapacity(edges.num_edges(), pg.num_partitions(), options);
  ASSERT_GT(capacity, 0u);
  for (const GraphPartition& part : pg.partitions()) {
    EXPECT_LE(part.num_local_edges(), capacity) << "partition " << part.id();
  }
}

TEST(PartitionerInvariantsTest, EvenEdgeChunksDifferByAtMostOne) {
  const EdgeList edges = FixedRmat(8, 8, 11);
  const PartitionedGraph pg = BuildWith(edges, PartitionerKind::kEvenEdge, 7);
  uint64_t lo = edges.num_edges();
  uint64_t hi = 0;
  for (const GraphPartition& part : pg.partitions()) {
    lo = std::min(lo, part.num_local_edges());
    hi = std::max(hi, part.num_local_edges());
  }
  EXPECT_LE(hi - lo, 1u);
}

// The builder must produce the identical layout whether the strategy arrives through
// PartitionOptions::partitioner or the explicit Partitioner& overload.
TEST(PartitionerInvariantsTest, OptionsAndExplicitOverloadAgree) {
  const EdgeList edges = FixedRmat(8, 8, 5);
  for (const PartitionerKind kind : kAllPartitioners) {
    const PartitionOptions options = OptionsFor(kind, 6);
    const uint64_t via_options =
        PartitionLayoutDigest(PartitionedGraphBuilder::Build(edges, options));
    const uint64_t via_overload = PartitionLayoutDigest(
        PartitionedGraphBuilder::Build(edges, options, *MakePartitioner(kind)));
    EXPECT_EQ(via_options, via_overload) << PartitionerKindName(kind);
  }
}

// Hand-computed worked example: 4 vertices, edges (0,1),(0,2),(2,3),(3,0), two
// even_edge chunks of 2. Partition 0 holds {0,1,2}, partition 1 holds {2,3,0};
// masters 0,1,2 -> partition 0 (vertex 2 ties 1-1, first partition wins), 3 -> 1.
// Replicas 6 over 4 vertices; edges (2,3) and (3,0) cross master partitions.
TEST(PartitionQualityTest, HandComputedTinyGraph) {
  const EdgeList edges = TinyGraph(4, {{0, 1}, {0, 2}, {2, 3}, {3, 0}});
  const PartitionedGraph pg = BuildWith(edges, PartitionerKind::kEvenEdge, 2);
  ASSERT_EQ(pg.num_partitions(), 2u);
  const PartitionQuality& q = pg.quality();
  EXPECT_EQ(q.partitioner, PartitionerKind::kEvenEdge);
  EXPECT_DOUBLE_EQ(q.replication_factor, 1.5);
  EXPECT_EQ(q.mirror_count, 2u);
  EXPECT_DOUBLE_EQ(q.edge_cut_fraction, 0.5);
  EXPECT_DOUBLE_EQ(q.edge_balance, 1.0);
  EXPECT_DOUBLE_EQ(q.vertex_balance, 1.0);
  EXPECT_DOUBLE_EQ(pg.replication_factor(), q.replication_factor);
}

// Two disjoint edges in two chunks: a perfectly separable layout scores perfect
// indices — nothing replicates, nothing is cut, both balances exactly 1.
TEST(PartitionQualityTest, HandComputedDisjointEdges) {
  const EdgeList edges = TinyGraph(4, {{0, 1}, {2, 3}});
  const PartitionedGraph pg = BuildWith(edges, PartitionerKind::kEvenEdge, 2);
  ASSERT_EQ(pg.num_partitions(), 2u);
  const PartitionQuality& q = pg.quality();
  EXPECT_DOUBLE_EQ(q.replication_factor, 1.0);
  EXPECT_EQ(q.mirror_count, 0u);
  EXPECT_DOUBLE_EQ(q.edge_cut_fraction, 0.0);
  EXPECT_DOUBLE_EQ(q.edge_balance, 1.0);
  EXPECT_DOUBLE_EQ(q.vertex_balance, 1.0);
}

TEST(PartitionQualityTest, OnePartitionIsPerfect) {
  const GraphCase c = test_support::RandomCase(32, 64, 9);
  for (const PartitionerKind kind : kAllPartitioners) {
    const PartitionedGraph pg = BuildWith(c.edges, kind, 1);
    const PartitionQuality& q = pg.quality();
    EXPECT_DOUBLE_EQ(q.replication_factor, 1.0) << PartitionerKindName(kind);
    EXPECT_EQ(q.mirror_count, 0u);
    EXPECT_DOUBLE_EQ(q.edge_cut_fraction, 0.0);
    EXPECT_DOUBLE_EQ(q.edge_balance, 1.0);
    EXPECT_DOUBLE_EQ(q.vertex_balance, 1.0);
  }
}

TEST(PartitionQualityTest, PartitionCountClampsToEdges) {
  // 3 vertices, 2 edges, 16 requested partitions: the builder clamps to 2, and the
  // invariants (including partitions > vertices per partition) still hold.
  const EdgeList edges = TinyGraph(3, {{0, 1}, {1, 2}});
  for (const PartitionerKind kind : kAllPartitioners) {
    const PartitionedGraph pg = BuildWith(edges, kind, 16);
    EXPECT_LE(pg.num_partitions(), 2u) << PartitionerKindName(kind);
    EXPECT_TRUE(CheckPartitionInvariants(edges, pg).empty());
  }
}

TEST(PartitionQualityTest, EmptyGraphDegenerates) {
  const EdgeList edges;
  for (const PartitionerKind kind : kAllPartitioners) {
    const PartitionedGraph pg = BuildWith(edges, kind, 4);
    EXPECT_EQ(pg.num_partitions(), 1u);
    const PartitionQuality& q = pg.quality();
    EXPECT_DOUBLE_EQ(q.replication_factor, 1.0) << PartitionerKindName(kind);
    EXPECT_EQ(q.mirror_count, 0u);
    EXPECT_DOUBLE_EQ(q.edge_cut_fraction, 0.0);
    EXPECT_DOUBLE_EQ(q.edge_balance, 1.0);
    EXPECT_DOUBLE_EQ(q.vertex_balance, 1.0);
    EXPECT_TRUE(CheckPartitionInvariants(edges, pg).empty());
  }
}

TEST(PartitionQualityTest, SingleEdgeDegenerates) {
  const EdgeList edges = TinyGraph(2, {{0, 1}});
  for (const PartitionerKind kind : kAllPartitioners) {
    const PartitionedGraph pg = BuildWith(edges, kind, 4);
    EXPECT_EQ(pg.num_partitions(), 1u);
    const PartitionQuality& q = pg.quality();
    EXPECT_DOUBLE_EQ(q.replication_factor, 1.0) << PartitionerKindName(kind);
    EXPECT_EQ(q.mirror_count, 0u);
    EXPECT_DOUBLE_EQ(q.edge_cut_fraction, 0.0);
  }
}

// The headline claim the bench SMOKE gate also asserts: on a power-law graph the
// greedy placement replicates strictly less than the equal-chunk default.
TEST(PartitionQualityTest, GreedyReplicatesLessThanEvenEdge) {
  const EdgeList edges = FixedRmat(10, 8, 3);
  const double even = BuildWith(edges, PartitionerKind::kEvenEdge, 8)
                          .quality().replication_factor;
  const double greedy = BuildWith(edges, PartitionerKind::kGreedy, 8)
                            .quality().replication_factor;
  EXPECT_LT(greedy, even);
}

// --- Engine-level contracts. ---

// Reproduces the exact pre-PR CLI workload (--rmat=10,8,3 --jobs=pagerank,sssp,wcc,
// kcore --partitions=8) whose modeled CSV was captured before the partitioner layer
// existed. The default even_edge strategy must reproduce it byte-for-byte — the
// contract that keeps the whole bench trajectory comparable across this refactor.
TEST(EvenEdgeByteIdentityTest, ModeledCsvMatchesPrePartitionerGolden) {
  const EdgeList edges = FixedRmat(10, 8, 3);
  const VertexId source = PickSourceVertex(edges);
  PartitionOptions popts;
  popts.num_partitions = 8;
  const PartitionedGraph pg = PartitionedGraphBuilder::Build(edges, popts);
  for (const uint32_t workers : {1u, 4u}) {
    EngineOptions options;  // CLI defaults, not the cache-starved test options.
    options.num_workers = workers;
    LtpEngine engine(&pg, options);
    for (const char* job : {"pagerank", "sssp", "wcc", "kcore"}) {
      engine.Submit(MakeProgram(job, source));
    }
    engine.RunUntilIdle();
    const std::string csv =
        test_support::StripWallColumn(RunReportToCsv(engine.Report(), CostModel{}));
    const std::string golden = test_support::ReadFileOrDie(
        std::string(CGRAPH_TEST_SRCDIR) + "/tests/golden/even_edge_rmat10_w" +
        std::to_string(workers) + ".csv");
    EXPECT_EQ(csv, golden) << "workers=" << workers;
  }
}

// Every alternative layout must converge to the same answers: the layout moves work
// around, never changes results. Checked against the reference implementations for the
// monotonic trio in both execution modes.
class PartitionerEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<PartitionerKind, ExecutionMode>> {};

TEST_P(PartitionerEquivalenceTest, FinalValuesMatchReferences) {
  const auto [kind, mode] = GetParam();
  const EdgeList edges = FixedRmat(8, 8, 5);
  const VertexId source = PickSourceVertex(edges);
  const Graph g = Graph::FromEdges(edges);
  const auto want_dist = ReferenceSssp(g, source);
  const auto want_labels = ReferenceWcc(g);
  const auto want_core = ReferenceKCore(g, 3);
  const PartitionedGraph pg = BuildWith(edges, kind, 6);
  for (const uint32_t workers : {1u, 4u}) {
    EngineOptions options = test_support::TestEngineOptions();
    options.num_workers = workers;
    options.execution_mode = mode;
    LtpEngine engine(&pg, options);
    const JobId sssp = engine.AddJob(std::make_unique<SsspProgram>(source));
    const JobId wcc = engine.AddJob(std::make_unique<WccProgram>());
    const JobId kcore = engine.AddJob(std::make_unique<KCoreProgram>(3));
    engine.Run();
    const std::string what = std::string(PartitionerKindName(kind)) + "/" +
                             ExecutionModeName(mode) + "/w" + std::to_string(workers);
    test_support::ExpectNearValues(engine.FinalValues(sssp), want_dist, 1e-12,
                                   what + "/sssp");
    test_support::ExpectNearValues(engine.FinalValues(wcc), want_labels, 0.0,
                                   what + "/wcc");
    // k-core equivalence is on membership (aux == 0 <=> in-core); the residual degree
    // in value is peel-order-dependent by design.
    const std::vector<double> aux = engine.FinalAux(kcore);
    ASSERT_EQ(aux.size(), want_core.size()) << what;
    for (VertexId v = 0; v < aux.size(); ++v) {
      EXPECT_EQ(aux[v] == 0.0, want_core[v] == 1.0) << what << "/kcore vertex " << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAlternatives, PartitionerEquivalenceTest,
    ::testing::Combine(::testing::Values(PartitionerKind::kHashSource,
                                         PartitionerKind::kGreedy,
                                         PartitionerKind::kDegree),
                       ::testing::Values(ExecutionMode::kBsp, ExecutionMode::kAsync)),
    [](const auto& info) {
      return std::string(PartitionerKindName(std::get<0>(info.param))) + "_" +
             ExecutionModeName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace cgraph
