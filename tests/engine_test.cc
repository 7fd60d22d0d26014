// End-to-end correctness of the LTP engine: every algorithm, on a family of graph
// shapes, must reproduce the single-threaded reference results. Also covers engine
// behaviours: iteration counting, partition skipping, determinism, ablation toggles.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "src/algorithms/bfs.h"
#include "src/algorithms/factory.h"
#include "src/algorithms/kcore.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/reference.h"
#include "src/algorithms/scc.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/wcc.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/metrics/csv_writer.h"
#include "src/graph/graph.h"
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

class EngineAlgorithmTest : public ::testing::TestWithParam<size_t> {
 protected:
  static const GraphCase& Case() { return StandardGraphCases()[GetParam()]; }
};

TEST_P(EngineAlgorithmTest, PageRankMatchesReference) {
  const GraphCase& c = Case();
  const PartitionedGraph pg = Partition(c.edges);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.AddJob(std::make_unique<PageRankProgram>(0.85, 1e-10));
  engine.Run();
  const auto expected = ReferencePageRank(Graph::FromEdges(c.edges), 0.85, 1e-10);
  test_support::ExpectNearValues(engine.FinalValues(id), expected, 1e-6, c.name + "/pagerank");
}

TEST_P(EngineAlgorithmTest, SsspMatchesDijkstra) {
  const GraphCase& c = Case();
  const VertexId source = PickSourceVertex(c.edges);
  const PartitionedGraph pg = Partition(c.edges);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.AddJob(std::make_unique<SsspProgram>(source));
  engine.Run();
  const auto expected = ReferenceSssp(Graph::FromEdges(c.edges), source);
  test_support::ExpectNearValues(engine.FinalValues(id), expected, 1e-12, c.name + "/sssp");
}

TEST_P(EngineAlgorithmTest, BfsMatchesReference) {
  const GraphCase& c = Case();
  const VertexId source = PickSourceVertex(c.edges);
  const PartitionedGraph pg = Partition(c.edges);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.AddJob(std::make_unique<BfsProgram>(source));
  engine.Run();
  const auto expected = ReferenceBfs(Graph::FromEdges(c.edges), source);
  test_support::ExpectNearValues(engine.FinalValues(id), expected, 0.0, c.name + "/bfs");
}

TEST_P(EngineAlgorithmTest, WccMatchesUnionFind) {
  const GraphCase& c = Case();
  if (c.edges.num_vertices() == 0) {
    return;
  }
  const PartitionedGraph pg = Partition(c.edges);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.AddJob(std::make_unique<WccProgram>());
  engine.Run();
  const auto expected = ReferenceWcc(Graph::FromEdges(c.edges));
  // Min-label propagation converges to the minimum member id — identical to union-by-min.
  test_support::ExpectNearValues(engine.FinalValues(id), expected, 0.0, c.name + "/wcc");
}

TEST_P(EngineAlgorithmTest, SccMatchesTarjan) {
  const GraphCase& c = Case();
  const PartitionedGraph pg = Partition(c.edges);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.AddJob(std::make_unique<SccProgram>());
  engine.Run();
  std::vector<double> labels = engine.FinalAux(id);
  for (double& l : labels) {
    l -= 1.0;  // aux stores component + 1.
  }
  const auto expected = ReferenceScc(Graph::FromEdges(c.edges));
  EXPECT_EQ(CanonicalizeLabels(labels), CanonicalizeLabels(expected)) << c.name << "/scc";
}

TEST_P(EngineAlgorithmTest, KCoreMatchesPeeling) {
  const GraphCase& c = Case();
  const PartitionedGraph pg = Partition(c.edges);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.AddJob(std::make_unique<KCoreProgram>(3));
  engine.Run();
  const auto aux = engine.FinalAux(id);  // 1.0 = peeled.
  const auto expected = ReferenceKCore(Graph::FromEdges(c.edges), 3);  // 1.0 = in core.
  ASSERT_EQ(aux.size(), expected.size());
  for (size_t v = 0; v < aux.size(); ++v) {
    EXPECT_EQ(aux[v] == 0.0, expected[v] == 1.0) << c.name << "/kcore vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(AllGraphs, EngineAlgorithmTest,
                         ::testing::Range<size_t>(0, StandardGraphCases().size()),
                         [](const ::testing::TestParamInfo<size_t>& param_info) {
                           return StandardGraphCases()[param_info.param].name;
                         });

TEST(EngineTest, ConcurrentJobMixAllCorrect) {
  RmatOptions rmat;
  rmat.scale = 10;
  rmat.edge_factor = 8;
  rmat.seed = 5;
  const EdgeList edges = GenerateRmat(rmat);
  const Graph g = Graph::FromEdges(edges);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 12);

  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId pr = engine.AddJob(std::make_unique<PageRankProgram>(0.85, 1e-10));
  const JobId ss = engine.AddJob(std::make_unique<SsspProgram>(source));
  const JobId sc = engine.AddJob(std::make_unique<SccProgram>());
  const JobId bf = engine.AddJob(std::make_unique<BfsProgram>(source));
  const JobId wc = engine.AddJob(std::make_unique<WccProgram>());
  const JobId kc = engine.AddJob(std::make_unique<KCoreProgram>(4));
  const RunReport report = engine.Run();
  EXPECT_EQ(report.jobs.size(), 6u);

  test_support::ExpectNearValues(engine.FinalValues(pr), ReferencePageRank(g, 0.85, 1e-10), 1e-6, "mix/pr");
  test_support::ExpectNearValues(engine.FinalValues(ss), ReferenceSssp(g, source), 1e-12, "mix/sssp");
  test_support::ExpectNearValues(engine.FinalValues(bf), ReferenceBfs(g, source), 0.0, "mix/bfs");
  test_support::ExpectNearValues(engine.FinalValues(wc), ReferenceWcc(g), 0.0, "mix/wcc");
  std::vector<double> scc_labels = engine.FinalAux(sc);
  for (double& l : scc_labels) {
    l -= 1.0;
  }
  EXPECT_EQ(CanonicalizeLabels(scc_labels), CanonicalizeLabels(ReferenceScc(g)));
  const auto kcore_aux = engine.FinalAux(kc);
  const auto kcore_ref = ReferenceKCore(g, 4);
  for (size_t v = 0; v < kcore_aux.size(); ++v) {
    ASSERT_EQ(kcore_aux[v] == 0.0, kcore_ref[v] == 1.0) << v;
  }
}

TEST(EngineTest, SchedulerAblationStillCorrect) {
  const EdgeList edges = GenerateErdosRenyi(300, 2500, 91);
  const Graph g = Graph::FromEdges(edges);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 8);
  EngineOptions options = test_support::TestEngineOptions();
  options.use_scheduler = false;
  options.chunk_grain = UINT32_MAX;  // One task per (job, partition).
  LtpEngine engine(&pg, options);
  const JobId id = engine.AddJob(std::make_unique<SsspProgram>(source));
  engine.Run();
  test_support::ExpectNearValues(engine.FinalValues(id), ReferenceSssp(g, source), 1e-12, "ablation/sssp");
}

// WCC that records whether any vertex of a trigger ran off the driver thread. The first
// driver-side Compute waits up to 200 ms for another thread to join, so a trigger that
// was split into several tasks shows on any multi-core host. It is its own ProgramBase,
// so the probe sits in the Compute that the trigger kernel inlines.
class DriverOnlyWcc : public ProgramBase<DriverOnlyWcc, AccKind::kMin> {
 public:
  explicit DriverOnlyWcc(std::thread::id driver) : driver_(driver) {}
  std::string_view name() const override { return wcc_.name(); }
  VertexState InitialState(const LocalVertexInfo& info) const {
    return wcc_.InitialState(info);
  }
  bool IsActive(const VertexState& state) const { return wcc_.IsActive(state); }

  template <class Ops>
  void Compute(const GraphPartition& partition, LocalVertexId v, std::span<VertexState> states,
               Ops& ops) {
    if (std::this_thread::get_id() != driver_) {
      off_driver_.store(true);
    } else if (!waited_) {
      waited_ = true;
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(200);
      while (!off_driver_.load() && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
    wcc_.Compute(partition, v, states, ops);
  }
  bool off_driver() const { return off_driver_.load(); }

 private:
  WccProgram wcc_;
  std::thread::id driver_;
  bool waited_ = false;  // Only the driver thread reads or writes it.
  std::atomic<bool> off_driver_{false};
};

// A chunk grain of at least the partition size is one task per (job, partition), which
// RunBatch runs inline on the driver. Grains within 63 of 2^32 used to wrap to a one-word
// grain in 32-bit arithmetic, splitting every trigger across the workers instead.
TEST(EngineTest, ChunkGrainNear2To32RunsOneTaskPerJob) {
  const EdgeList edges = GenerateErdosRenyi(2000, 8000, 23);
  const PartitionedGraph pg = Partition(edges, 2);
  EngineOptions options = test_support::TestEngineOptions();
  options.parallel_trigger_threshold = 0;  // Dispatch every trigger through the pool.
  options.chunk_grain = UINT32_MAX;
  LtpEngine engine(&pg, options);
  auto program = std::make_unique<DriverOnlyWcc>(std::this_thread::get_id());
  const DriverOnlyWcc* wcc = program.get();
  const JobId id = engine.AddJob(std::move(program));
  engine.Run();
  EXPECT_FALSE(wcc->off_driver());
  test_support::ExpectNearValues(engine.FinalValues(id), ReferenceWcc(Graph::FromEdges(edges)),
                                 0.0, "one-task/wcc");
}

TEST(EngineTest, SingleWorkerCorrect) {
  const EdgeList edges = GenerateErdosRenyi(200, 1500, 17);
  const Graph g = Graph::FromEdges(edges);
  const PartitionedGraph pg = Partition(edges, 4);
  EngineOptions options = test_support::TestEngineOptions();
  options.num_workers = 1;
  LtpEngine engine(&pg, options);
  const JobId id = engine.AddJob(std::make_unique<WccProgram>());
  engine.Run();
  test_support::ExpectNearValues(engine.FinalValues(id), ReferenceWcc(g), 0.0, "single-worker/wcc");
}

TEST(EngineTest, BfsIterationsTrackFrontierDepth) {
  // On a 40-vertex path partitioned into one partition, BFS from vertex 0 needs about one
  // iteration per hop (intra-partition propagation is one hop per iteration in LTP).
  EdgeList path = GeneratePath(40);
  const PartitionedGraph pg = Partition(path, 1);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.AddJob(std::make_unique<BfsProgram>(0));
  const RunReport report = engine.Run();
  EXPECT_GE(report.jobs[0].iterations, 39u);
  (void)id;
}

TEST(EngineTest, InactivePartitionsAreSkipped) {
  // A star with the hub as BFS source converges in ~2 iterations; PageRank sweeps many
  // more times. BFS must therefore charge far fewer structure bytes than PageRank.
  const EdgeList star = GenerateStar(512);
  const PartitionedGraph pg = Partition(star, 8);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId bfs = engine.AddJob(std::make_unique<BfsProgram>(0));
  const JobId pr = engine.AddJob(std::make_unique<PageRankProgram>());
  const RunReport report = engine.Run();
  EXPECT_LT(report.jobs[bfs].iterations, report.jobs[pr].iterations);
  EXPECT_LT(report.jobs[bfs].charge.total_bytes(), report.jobs[pr].charge.total_bytes());
}

TEST(EngineTest, DeterministicReportsForExactAlgorithms) {
  const EdgeList edges = GenerateErdosRenyi(300, 2500, 23);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 8);
  RunReport first;
  RunReport second;
  for (RunReport* out : {&first, &second}) {
    LtpEngine engine(&pg, test_support::TestEngineOptions());
    engine.AddJob(std::make_unique<BfsProgram>(source));
    engine.AddJob(std::make_unique<WccProgram>());
    *out = engine.Run();
  }
  EXPECT_EQ(first.cache.touches, second.cache.touches);
  EXPECT_EQ(first.cache.misses, second.cache.misses);
  EXPECT_EQ(first.memory.disk_bytes, second.memory.disk_bytes);
  ASSERT_EQ(first.jobs.size(), second.jobs.size());
  for (size_t j = 0; j < first.jobs.size(); ++j) {
    EXPECT_EQ(first.jobs[j].iterations, second.jobs[j].iterations);
    EXPECT_EQ(first.jobs[j].compute_units, second.jobs[j].compute_units);
    EXPECT_EQ(first.jobs[j].charge.total_bytes(), second.jobs[j].charge.total_bytes());
  }
}

TEST(EngineTest, EmptyGraphFinishesImmediately) {
  EdgeList empty;
  const PartitionedGraph pg = Partition(empty, 4);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  engine.AddJob(std::make_unique<WccProgram>());
  const RunReport report = engine.Run();
  EXPECT_EQ(report.jobs[0].vertex_computes, 0u);
}

TEST(EngineTest, SourceOutsideGraphConvergesInstantly) {
  const EdgeList edges = GenerateRing(16);
  const PartitionedGraph pg = Partition(edges, 2);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  const JobId id = engine.AddJob(std::make_unique<SsspProgram>(999));
  const RunReport report = engine.Run();
  EXPECT_EQ(report.jobs[0].vertex_computes, 0u);
  for (double d : engine.FinalValues(id)) {
    EXPECT_TRUE(std::isinf(d));
  }
}

TEST(EngineTest, MaxIterationSafetyValve) {
  const EdgeList ring = GenerateRing(32);
  const PartitionedGraph pg = Partition(ring, 2);
  EngineOptions options = test_support::TestEngineOptions();
  options.max_iterations_per_job = 3;
  LtpEngine engine(&pg, options);
  // PageRank on a ring takes many iterations; the valve must stop it at 3.
  engine.AddJob(std::make_unique<PageRankProgram>(0.85, 1e-15));
  const RunReport report = engine.Run();
  EXPECT_EQ(report.jobs[0].iterations, 3u);
}

TEST(EngineTest, JobStatsArePopulated) {
  const EdgeList edges = GenerateErdosRenyi(200, 1600, 3);
  const PartitionedGraph pg = Partition(edges, 4);
  LtpEngine engine(&pg, test_support::TestEngineOptions());
  engine.AddJob(std::make_unique<PageRankProgram>());
  const RunReport report = engine.Run();
  const JobStats& stats = report.jobs[0];
  EXPECT_EQ(stats.job_name, "pagerank");
  EXPECT_GT(stats.iterations, 0u);
  EXPECT_GT(stats.vertex_computes, 0u);
  EXPECT_GT(stats.edge_traversals, 0u);
  EXPECT_GT(stats.compute_units, 0u);
  EXPECT_GT(stats.charge.total_bytes(), 0u);
  EXPECT_GT(report.cache.touches, 0u);
}

TEST(EngineTest, SnapshotJobsSeeTheirVersions) {
  // Two WCC jobs on different snapshots must compute components of *their* graph.
  EdgeList edges;
  // Two components: {0,1} and {2,3}.
  edges.Add(0, 1);
  edges.Add(1, 0);
  edges.Add(2, 3);
  edges.Add(3, 2);
  PartitionOptions popts;
  popts.num_partitions = 2;
  popts.core_subgraph = false;
  SnapshotStore store(PartitionedGraphBuilder::Build(edges, popts));
  // Rewiring at 100% change ratio alters edges within partitions; job at t=0 must still
  // see the base graph.
  store.CreateSnapshot(10, 1.0, 3);
  LtpEngine engine(&store, test_support::TestEngineOptions());
  const JobId old_job = engine.AddJob(std::make_unique<WccProgram>(), /*submit_time=*/0);
  const JobId new_job = engine.AddJob(std::make_unique<WccProgram>(), /*submit_time=*/10);
  engine.Run();
  const Graph base_graph = Graph::FromEdges(edges);
  test_support::ExpectNearValues(engine.FinalValues(old_job), ReferenceWcc(base_graph), 0.0, "snapshot/old");
  // The new job ran on the rewired graph; just verify it converged to a valid labeling
  // (labels are min ids, so every label <= vertex id).
  for (size_t v = 0; v < 4; ++v) {
    EXPECT_LE(engine.FinalValues(new_job)[v], static_cast<double>(v));
  }
}

// One run of a min/max-accumulator mix under the given dispatch settings, reduced to
// what must not depend on them: the modeled CSV and every job's values and aux.
struct DispatchSettings {
  uint32_t workers = 1;
  uint32_t sweep_threshold = 0;
  uint32_t trigger_threshold = 0;
  uint32_t chunk_grain = 0;
  bool async = false;
};

struct MixOutcome {
  std::string csv;
  std::vector<std::vector<double>> values;  // FinalValues then FinalAux, per job.
  uint64_t deferred_pushes = 0;
};

MixOutcome RunMinMaxMix(const PartitionedGraph& pg, VertexId source,
                        const DispatchSettings& settings) {
  EngineOptions options = test_support::TestEngineOptions();
  options.num_workers = settings.workers;
  options.parallel_sweep_threshold = settings.sweep_threshold;
  options.parallel_trigger_threshold = settings.trigger_threshold;
  options.chunk_grain = settings.chunk_grain;
  if (settings.async) {
    options.execution_mode = ExecutionMode::kAsync;
    options.staleness = 2;
    options.async_defer_divisor = 0;  // Defer every boundary the window allows.
  }
  LtpEngine engine(&pg, options);
  // Min/max-accumulator jobs only: their values do not depend on the trigger's
  // scatter order, so they are exact at any worker count.
  engine.AddJob(std::make_unique<SsspProgram>(source));
  engine.AddJob(std::make_unique<BfsProgram>(source));
  engine.AddJob(std::make_unique<WccProgram>());
  engine.AddJob(std::make_unique<KCoreProgram>(3));
  if (!settings.async) {
    engine.AddJob(std::make_unique<SccProgram>());  // Multi-phase: the kNewPhase path.
  }
  RunReport report = engine.Run();
  MixOutcome outcome;
  for (JobStats& job : report.jobs) {
    job.wall_seconds = 0.0;
    outcome.deferred_pushes += job.deferred_pushes;
  }
  report.wall_seconds = 0.0;
  report.workers = 1;  // The modeled-time columns divide by the worker count.
  outcome.csv = RunReportToCsv(report, CostModel());
  for (JobId id = 0; id < report.jobs.size(); ++id) {
    outcome.values.push_back(engine.FinalValues(id));
    outcome.values.push_back(engine.FinalAux(id));
  }
  return outcome;
}

// Bit-for-bit, so a NaN or a signed zero would show too.
bool SameBits(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size() ||
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Forcing every pooled pass through the pool's batch dispatch (threshold 0: init and
// activity sweeps, mirror collect, push merge and broadcast, async deferred folds and
// flushes) must not change any modeled metric or converged value, and neither may the
// worker count: counts are integer sums reduced on the driver, each destination bucket
// merges in record order, every vertex slot has one writer, and every charge is made
// on the driver in partition order.
TEST(EngineTest, ParallelSweepThresholdZeroMatchesDefault) {
  const EdgeList edges = GenerateErdosRenyi(500, 4000, 37);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 8);
  const EngineOptions defaults = test_support::TestEngineOptions();
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async staleness 2" : "bsp");
    DispatchSettings settings{1, defaults.parallel_sweep_threshold,
                              defaults.parallel_trigger_threshold, defaults.chunk_grain, async};
    const MixOutcome serial = RunMinMaxMix(pg, source, settings);
    if (async) {
      EXPECT_GT(serial.deferred_pushes, 0u);  // The deferred fold and flush really ran.
    }
    settings.workers = 4;
    for (const uint32_t threshold : {0u, defaults.parallel_sweep_threshold}) {
      settings.sweep_threshold = threshold;
      const MixOutcome pooled = RunMinMaxMix(pg, source, settings);
      EXPECT_EQ(pooled.csv, serial.csv) << "threshold " << threshold;
      EXPECT_TRUE(SameBits(pooled.values, serial.values)) << "threshold " << threshold;
    }
  }
}

// Both trigger scatter paths against a one-worker run. A 64-vertex grain with every
// trigger pooled splits each job's sweep over several workers, so its scatters take the
// atomic path; a grain of at least the partition makes every job's sweep one task, so
// the batch's jobs run their plain path side by side. Neither may change the modeled
// CSV or a bit of the min/max programs' values.
TEST(EngineTest, TriggerScatterPathsMatchSerial) {
  const EdgeList edges = GenerateErdosRenyi(4000, 32000, 41);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 8);
  const EngineOptions defaults = test_support::TestEngineOptions();
  for (const bool async : {false, true}) {
    SCOPED_TRACE(async ? "async staleness 2" : "bsp");
    DispatchSettings settings{1, defaults.parallel_sweep_threshold,
                              defaults.parallel_trigger_threshold, defaults.chunk_grain, async};
    const MixOutcome serial = RunMinMaxMix(pg, source, settings);
    settings.workers = 4;
    for (const uint32_t threshold : {0u, defaults.parallel_trigger_threshold}) {
      for (const uint32_t grain : {64u, UINT32_MAX}) {
        settings.trigger_threshold = threshold;
        settings.chunk_grain = grain;
        const MixOutcome pooled = RunMinMaxMix(pg, source, settings);
        EXPECT_EQ(pooled.csv, serial.csv) << "threshold " << threshold << " grain " << grain;
        EXPECT_TRUE(SameBits(pooled.values, serial.values))
            << "threshold " << threshold << " grain " << grain;
      }
    }
  }
}

// The per-step numbers Fig. 1 (bench/paper_figures.cc) samples: the running-job count
// and each partition's N(P). Staggered min-accumulator jobs, exact at any worker count,
// give the same sequence at workers 1 and 4 with every sweep and trigger pooled. N(P)
// never exceeds the running count, and a running job is registered somewhere.
TEST(EngineTest, RunningAndRegisteredCountsPerStepMatchAcrossWorkers) {
  const EdgeList edges = GenerateErdosRenyi(2000, 16000, 43);
  const std::vector<VertexId> sources = PickSourcePool(edges, 4);
  const PartitionedGraph pg = Partition(edges, 8);
  const auto per_step = [&](uint32_t workers) {
    EngineOptions options = test_support::TestEngineOptions();
    options.num_workers = workers;
    options.parallel_sweep_threshold = 0;
    options.parallel_trigger_threshold = 0;
    LtpEngine engine(&pg, options);
    const char* const programs[] = {"sssp", "bfs", "wcc"};
    for (uint32_t i = 0; i < 12; ++i) {
      engine.SubmitAt(MakeProgram(programs[i % 3], sources[i % sources.size()]), 3 * i);
    }
    std::vector<std::vector<uint64_t>> samples;  // {step, running, N(P) per partition}.
    uint32_t peak = 0;
    while (engine.Step()) {
      const uint32_t running = engine.NumRunning();
      std::vector<uint64_t> sample = {engine.current_step(), running};
      uint32_t registered = 0;
      for (PartitionId p = 0; p < pg.num_partitions(); ++p) {
        sample.push_back(engine.RegisteredCount(p));
        EXPECT_LE(engine.RegisteredCount(p), running) << "step " << sample[0] << " P" << p;
        registered += engine.RegisteredCount(p);
      }
      EXPECT_TRUE(running == 0 || registered > 0) << "step " << sample[0];
      peak = std::max(peak, running);
      samples.push_back(std::move(sample));
    }
    EXPECT_GT(peak, 1u);  // The arrivals overlap, so partitions are shared.
    return samples;
  };
  EXPECT_EQ(per_step(1), per_step(4));
}

TEST(EngineTest, ThetaDominanceSchedulerPrefersMoreJobs) {
  const EdgeList edges = GenerateErdosRenyi(200, 1600, 29);
  const PartitionedGraph pg = Partition(edges, 8);
  Scheduler scheduler(pg, /*use_priorities=*/true);
  GlobalTable table(pg.num_partitions(), 4);
  // Partition 3 needed by two jobs, partition 5 by one with maximal D*C.
  table.Register(3, 0);
  table.Register(3, 1);
  table.Register(5, 2);
  scheduler.SetStateChange(3, 0.0);
  scheduler.SetStateChange(5, 1.0);
  EXPECT_EQ(scheduler.PickNext(table), 3u);
}

}  // namespace
}  // namespace cgraph
