// The graph-service daemon: arrival-trace generation, deterministic replay across
// worker counts, query fan-in (coalescing) correctness, queue-wait deadlines with
// shed-on-expiry, bounded-queue backpressure, and the streaming latency reservoir.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/algorithms/factory.h"
#include "src/algorithms/reference.h"
#include "src/core/ltp_engine.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"
#include "src/metrics/latency_reservoir.h"
#include "src/partition/partitioned_graph.h"
#include "src/service/daemon.h"
#include "src/service/request_table.h"
#include "src/service/trace_gen.h"
#include "tests/testing/temp_files.h"
#include "tests/testing/test_helpers.h"

namespace cgraph {
namespace {

PartitionedGraph Partition(const EdgeList& edges, uint32_t parts) {
  PartitionOptions options;
  options.num_partitions = parts;
  options.core_subgraph = true;
  return PartitionedGraphBuilder::Build(edges, options);
}

TraceGenOptions SmallTraceOptions(const EdgeList& edges) {
  TraceGenOptions tgen;
  tgen.num_requests = 60;
  tgen.mean_gap = 3;
  tgen.programs = {"pagerank", "sssp", "bfs", "wcc"};
  tgen.sources = PickSourcePool(edges, 4);
  return tgen;
}

// --- Trace generation --------------------------------------------------------------

TEST(TraceGenTest, SameSeedReproducesTheTraceExactly) {
  const EdgeList edges = GenerateErdosRenyi(120, 900, 3);
  TraceGenOptions tgen = SmallTraceOptions(edges);
  for (ArrivalPattern pattern :
       {ArrivalPattern::kUniform, ArrivalPattern::kBursty, ArrivalPattern::kDiurnal}) {
    tgen.pattern = pattern;
    const auto a = GenerateArrivalTrace(tgen);
    const auto b = GenerateArrivalTrace(tgen);
    ASSERT_EQ(a.size(), b.size()) << ArrivalPatternName(pattern);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].arrival_step, b[i].arrival_step);
      EXPECT_EQ(a[i].program, b[i].program);
      EXPECT_EQ(a[i].source, b[i].source);
    }
    // A different seed must actually change something.
    tgen.seed += 1;
    const auto c = GenerateArrivalTrace(tgen);
    bool differs = false;
    for (size_t i = 0; i < a.size() && !differs; ++i) {
      differs = a[i].arrival_step != c[i].arrival_step || a[i].program != c[i].program ||
                a[i].source != c[i].source;
    }
    EXPECT_TRUE(differs) << ArrivalPatternName(pattern);
    tgen.seed -= 1;
  }
}

TEST(TraceGenTest, ArrivalsAreSortedAndPatternsShapeThem) {
  const EdgeList edges = GenerateErdosRenyi(120, 900, 3);
  TraceGenOptions tgen = SmallTraceOptions(edges);
  tgen.num_requests = 256;
  tgen.burst_size = 16;

  for (ArrivalPattern pattern :
       {ArrivalPattern::kUniform, ArrivalPattern::kBursty, ArrivalPattern::kDiurnal}) {
    tgen.pattern = pattern;
    const auto trace = GenerateArrivalTrace(tgen);
    ASSERT_EQ(trace.size(), tgen.num_requests);
    EXPECT_EQ(trace.front().arrival_step, 0u);
    for (size_t i = 1; i < trace.size(); ++i) {
      EXPECT_LE(trace[i - 1].arrival_step, trace[i].arrival_step);
    }
  }

  // Bursty: every clump of burst_size requests shares one arrival step.
  tgen.pattern = ArrivalPattern::kBursty;
  const auto bursty = GenerateArrivalTrace(tgen);
  for (size_t i = 0; i < bursty.size(); i += tgen.burst_size) {
    for (size_t j = i + 1; j < std::min(i + tgen.burst_size, bursty.size()); ++j) {
      EXPECT_EQ(bursty[j].arrival_step, bursty[i].arrival_step) << i;
    }
  }
  // And the mean rate still roughly matches uniform at the same mean_gap: total span
  // within 2x either way (jitter, but the clump gap carries the whole clump's budget).
  tgen.pattern = ArrivalPattern::kUniform;
  const auto uniform = GenerateArrivalTrace(tgen);
  const double bursty_span = static_cast<double>(bursty.back().arrival_step);
  const double uniform_span = static_cast<double>(uniform.back().arrival_step);
  EXPECT_GT(bursty_span, uniform_span * 0.5);
  EXPECT_LT(bursty_span, uniform_span * 2.0);
}

TEST(TraceGenTest, TraceFileRoundTripsExactly) {
  const EdgeList edges = GenerateErdosRenyi(120, 900, 3);
  TraceGenOptions tgen = SmallTraceOptions(edges);
  tgen.pattern = ArrivalPattern::kBursty;
  const auto trace = GenerateArrivalTrace(tgen);

  const std::string path = test_support::TempPath("service_trace_roundtrip.txt");
  ASSERT_TRUE(SaveTrace(trace, path));
  std::vector<ServiceRequest> loaded;
  ASSERT_TRUE(LoadTrace(path, &loaded).ok());
  std::remove(path.c_str());

  ASSERT_EQ(loaded.size(), trace.size());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(loaded[i].arrival_step, trace[i].arrival_step);
    EXPECT_EQ(loaded[i].program, trace[i].program);
    EXPECT_EQ(loaded[i].source, trace[i].source);
  }
}

TEST(TraceGenTest, LoadTraceNamesTheBadLine) {
  // Line 4 (after a blank line) holds the fault; the requests before it are kept.
  const auto load = [](const std::string& bad, std::vector<ServiceRequest>* out) {
    const test_support::ScopedFile file("service_trace_bad.txt", "0 bfs 1\n\n2 sssp 3\n" + bad);
    const Status status = LoadTrace(file.path(), out, [](const ServiceRequest& req) {
      return req.program == "bfs" || req.program == "sssp"
                 ? Status::Ok()
                 : Status::InvalidArgument("unknown job '" + req.program + "'");
    });
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(status.message().rfind(file.path() + ":4: ", 0), 0u) << status.message();
    return status.message();
  };
  std::vector<ServiceRequest> out;
  EXPECT_NE(load("1 sssp 3\n", &out).find("below the previous line's"), std::string::npos);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1].source, 3u);
  EXPECT_NE(load("-1 bfs 1\n", &out).find("non-negative integer"), std::string::npos);
  EXPECT_NE(load("5 bfs 99999999999\n", &out).find("32-bit vertex id"), std::string::npos);
  EXPECT_NE(load("5 bfs 1 extra\n", &out).find("expected 'arrival_step program source'"),
            std::string::npos);
  EXPECT_NE(load("5 foo 1\n", &out).find("unknown job 'foo'"), std::string::npos);
  EXPECT_EQ(LoadTrace(test_support::TempPath("service_trace_missing.txt"), &out).code(),
            StatusCode::kNotFound);
}

// --- Coalesce keys -----------------------------------------------------------------

TEST(RequestTableTest, CoalesceKeyNormalizesSourceFreePrograms) {
  // Source-free programs merge regardless of the caller's source field...
  EXPECT_EQ(CoalesceKey("pagerank", 3), CoalesceKey("pagerank", 9));
  EXPECT_EQ(CoalesceKey("wcc", 0), CoalesceKey("wcc", 17));
  // ...source-rooted programs only merge on the same root...
  EXPECT_EQ(CoalesceKey("sssp", 5), CoalesceKey("sssp", 5));
  EXPECT_NE(CoalesceKey("sssp", 5), CoalesceKey("sssp", 6));
  // ...and programs never merge across types.
  EXPECT_NE(CoalesceKey("sssp", 5), CoalesceKey("bfs", 5));
  EXPECT_NE(CoalesceKey("pagerank", 0), CoalesceKey("wcc", 0));
}

TEST(RequestTableTest, RegisterFindRetireLifecycle) {
  RequestTable table;
  const std::string key = CoalesceKey("bfs", 7);
  EXPECT_EQ(table.Find(key), kInvalidJob);
  table.Register(key, 3);
  EXPECT_EQ(table.Find(key), 3u);
  // Retire with a stale id is a no-op; with the live id it clears the entry.
  table.Retire(key, 8);
  EXPECT_EQ(table.Find(key), 3u);
  table.Retire(key, 3);
  EXPECT_EQ(table.Find(key), kInvalidJob);
  EXPECT_EQ(table.size(), 0u);
}

// --- Latency reservoir -------------------------------------------------------------

TEST(LatencyReservoirTest, ExactPercentilesWhileWithinCapacity) {
  LatencyReservoir reservoir(128);
  for (int i = 100; i >= 1; --i) {
    reservoir.Add(static_cast<double>(i));  // 1..100, descending insert order.
  }
  EXPECT_TRUE(reservoir.exact());
  EXPECT_EQ(reservoir.count(), 100u);
  EXPECT_DOUBLE_EQ(reservoir.Percentile(50.0), 50.0);
  EXPECT_DOUBLE_EQ(reservoir.Percentile(95.0), 95.0);
  EXPECT_DOUBLE_EQ(reservoir.Percentile(99.0), 99.0);
  EXPECT_DOUBLE_EQ(reservoir.Percentile(100.0), 100.0);
  EXPECT_DOUBLE_EQ(reservoir.Percentile(1.0), 1.0);
  EXPECT_DOUBLE_EQ(reservoir.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(reservoir.Max(), 100.0);
}

TEST(LatencyReservoirTest, SamplingPastCapacityStaysDeterministicAndBounded) {
  LatencyReservoir a(64, /*seed=*/7);
  LatencyReservoir b(64, /*seed=*/7);
  for (int i = 0; i < 10000; ++i) {
    a.Add(static_cast<double>(i % 1000));
    b.Add(static_cast<double>(i % 1000));
  }
  EXPECT_FALSE(a.exact());
  EXPECT_EQ(a.count(), 10000u);
  // Same seed, same stream => identical percentiles; mean/max stay exact regardless.
  EXPECT_DOUBLE_EQ(a.Percentile(50.0), b.Percentile(50.0));
  EXPECT_DOUBLE_EQ(a.Percentile(99.0), b.Percentile(99.0));
  EXPECT_DOUBLE_EQ(a.Mean(), 499.5);
  EXPECT_DOUBLE_EQ(a.Max(), 999.0);
  // The sampled median of a uniform 0..999 stream lands near 500.
  EXPECT_GT(a.Percentile(50.0), 300.0);
  EXPECT_LT(a.Percentile(50.0), 700.0);
}

// --- Daemon end-to-end -------------------------------------------------------------

// Scheduling-step metrics of a replay, with the hardware-dependent fields dropped.
struct ModeledServiceSummary {
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t coalesced = 0;
  uint64_t submitted = 0;
  uint64_t executed = 0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double mean = 0.0;
  uint64_t final_step = 0;
  std::vector<uint64_t> finish_steps;  // Per request, trace order (0 for door sheds).

  static ModeledServiceSummary From(const ServiceReport& report) {
    ModeledServiceSummary s;
    s.completed = report.completed_requests;
    s.shed = report.shed_requests;
    s.coalesced = report.coalesced_requests;
    s.submitted = report.submitted_jobs;
    s.executed = report.executed_jobs;
    s.p50 = report.p50_latency_steps;
    s.p95 = report.p95_latency_steps;
    s.p99 = report.p99_latency_steps;
    s.mean = report.mean_latency_steps;
    s.final_step = report.final_step;
    for (const RequestOutcome& outcome : report.outcomes) {
      s.finish_steps.push_back(outcome.finish_step);
    }
    return s;
  }

  friend bool operator==(const ModeledServiceSummary& x, const ModeledServiceSummary& y) {
    return x.completed == y.completed && x.shed == y.shed && x.coalesced == y.coalesced &&
           x.submitted == y.submitted && x.executed == y.executed && x.p50 == y.p50 &&
           x.p95 == y.p95 && x.p99 == y.p99 && x.mean == y.mean &&
           x.final_step == y.final_step && x.finish_steps == y.finish_steps;
  }
};

TEST(ServiceDriverTest, ReplayIsDeterministicAcrossRunsAndWorkerCounts) {
  const EdgeList edges = GenerateErdosRenyi(200, 1600, 5);
  const PartitionedGraph pg = Partition(edges, 5);
  TraceGenOptions tgen = SmallTraceOptions(edges);
  tgen.pattern = ArrivalPattern::kBursty;
  tgen.num_requests = 80;
  const auto trace = GenerateArrivalTrace(tgen);

  std::vector<ModeledServiceSummary> summaries;
  for (uint32_t workers : {1u, 4u, 1u}) {  // Repeat workers=1 to cover run-to-run too.
    EngineOptions options = test_support::TestEngineOptions();
    options.num_workers = workers;
    options.max_jobs = 4;
    LtpEngine engine(&pg, options);
    ServiceOptions sopts;
    sopts.queue_bound = 16;
    sopts.deadline_steps = 200;
    ServiceDriver driver(&engine, sopts);
    summaries.push_back(ModeledServiceSummary::From(driver.Run(trace)));
  }
  // Latency, admission order, shed decisions, and percentiles are modeled quantities:
  // identical across worker counts and across repeated runs.
  EXPECT_TRUE(summaries[0] == summaries[1]);
  EXPECT_TRUE(summaries[0] == summaries[2]);
  EXPECT_EQ(summaries[0].completed + summaries[0].shed, 80u);
}

TEST(ServiceDriverTest, CoalescedCallersShareOneExecutionAndItsResults) {
  const EdgeList edges = GenerateErdosRenyi(200, 1600, 7);
  const Graph g = Graph::FromEdges(edges);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 5);

  // Five identical BFS requests while the first is still in flight, plus one WCC: the
  // four later BFS callers must attach to the first's job.
  std::vector<ServiceRequest> trace;
  for (int i = 0; i < 5; ++i) {
    trace.push_back({/*arrival_step=*/static_cast<uint64_t>(i), "bfs", source});
  }
  trace.push_back({/*arrival_step=*/2, "wcc", 0});
  std::sort(trace.begin(), trace.end(), [](const auto& a, const auto& b) {
    return a.arrival_step < b.arrival_step;
  });

  LtpEngine engine(&pg, test_support::TestEngineOptions());
  ServiceDriver driver(&engine, ServiceOptions{});
  const ServiceReport report = driver.Run(trace);

  EXPECT_EQ(report.completed_requests, 6u);
  EXPECT_EQ(report.coalesced_requests, 4u);
  EXPECT_EQ(report.submitted_jobs, 2u);  // One BFS execution + one WCC.
  EXPECT_EQ(report.executed_jobs, 2u);
  EXPECT_NEAR(report.dedup_ratio, 4.0 / 6.0, 1e-12);

  // All five BFS callers observe the same job and its finish step (the WCC request
  // interleaves somewhere in the sorted trace, so match outcomes by program)...
  JobId bfs_job = kInvalidJob;
  uint64_t bfs_finish = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (trace[i].program != "bfs") {
      continue;
    }
    const RequestOutcome& outcome = report.outcomes[i];
    EXPECT_FALSE(outcome.shed);
    if (bfs_job == kInvalidJob) {
      bfs_job = outcome.job;
      bfs_finish = outcome.finish_step;
      EXPECT_FALSE(outcome.coalesced);
    } else {
      EXPECT_EQ(outcome.job, bfs_job);
      EXPECT_TRUE(outcome.coalesced);
      EXPECT_EQ(outcome.finish_step, bfs_finish);
    }
  }
  // ...the engine really ran it once, with the fan-in recorded on the job's stats...
  EXPECT_EQ(engine.job(bfs_job).stats().coalesced_callers, 4u);
  // ...and the shared readback is the correct converged answer for every caller.
  test_support::ExpectNearValues(engine.FinalValues(bfs_job), ReferenceBfs(g, source),
                                 0.0, "fanin/bfs");
}

TEST(ServiceDriverTest, DisablingCoalescingRunsEveryRequestAlone) {
  const EdgeList edges = GenerateErdosRenyi(150, 1200, 9);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 4);

  std::vector<ServiceRequest> trace;
  for (int i = 0; i < 4; ++i) {
    trace.push_back({0, "bfs", source});
  }

  LtpEngine engine(&pg, test_support::TestEngineOptions());
  ServiceOptions sopts;
  sopts.coalesce = false;
  ServiceDriver driver(&engine, sopts);
  const ServiceReport report = driver.Run(trace);

  EXPECT_EQ(report.coalesced_requests, 0u);
  EXPECT_EQ(report.submitted_jobs, 4u);
  EXPECT_EQ(report.executed_jobs, 4u);
  EXPECT_EQ(report.completed_requests, 4u);
  EXPECT_DOUBLE_EQ(report.dedup_ratio, 0.0);
  // Four distinct jobs, not one shared.
  std::set<JobId> jobs;
  for (const RequestOutcome& outcome : report.outcomes) {
    jobs.insert(outcome.job);
  }
  EXPECT_EQ(jobs.size(), 4u);
}

TEST(ServiceDriverTest, DeadlineShedsOnlyQueuedJobsAndRecordsThem) {
  const EdgeList edges = GenerateErdosRenyi(200, 1600, 11);
  const PartitionedGraph pg = Partition(edges, 5);

  // One slot, three slow jobs at once, a deadline shorter than any execution: the first
  // job runs (deadlines never touch running jobs); the other two expire in the queue.
  std::vector<ServiceRequest> trace;
  trace.push_back({0, "pagerank", 0});
  trace.push_back({0, "wcc", 0});
  trace.push_back({0, "scc", 0});

  EngineOptions options = test_support::TestEngineOptions();
  options.max_jobs = 1;
  LtpEngine engine(&pg, options);
  ServiceOptions sopts;
  sopts.coalesce = false;
  sopts.deadline_steps = 3;
  ServiceDriver driver(&engine, sopts);
  const ServiceReport report = driver.Run(trace);

  EXPECT_EQ(report.completed_requests, 1u);
  EXPECT_EQ(report.shed_requests, 2u);
  EXPECT_EQ(report.shed_jobs, 2u);
  EXPECT_EQ(report.executed_jobs, 1u);
  EXPECT_FALSE(report.outcomes[0].shed);
  EXPECT_TRUE(report.outcomes[1].shed);
  EXPECT_TRUE(report.outcomes[2].shed);
  // Shed jobs are marked on their engine-side stats and did zero work.
  for (size_t i = 1; i < 3; ++i) {
    const JobStats& stats = engine.job(report.outcomes[i].job).stats();
    EXPECT_TRUE(stats.shed);
    EXPECT_EQ(stats.iterations, 0u);
    EXPECT_EQ(stats.compute_units, 0u);
  }
}

TEST(ServiceDriverTest, QueueBoundShedsAtTheDoorWithoutCreatingJobs) {
  const EdgeList edges = GenerateErdosRenyi(200, 1600, 13);
  const PartitionedGraph pg = Partition(edges, 5);

  // Twelve simultaneous distinct arrivals against a queue bound of 3. All twelve land
  // before the first scheduling step, so none has been admitted yet when the bound is
  // checked: exactly 3 enter the queue and the other 9 shed at the door.
  const std::vector<VertexId> sources = PickSourcePool(edges, 12);
  ASSERT_EQ(sources.size(), 12u);
  std::vector<ServiceRequest> trace;
  for (VertexId s : sources) {
    trace.push_back({0, "bfs", s});
  }

  EngineOptions options = test_support::TestEngineOptions();
  options.max_jobs = 1;
  LtpEngine engine(&pg, options);
  ServiceOptions sopts;
  sopts.coalesce = false;
  sopts.queue_bound = 3;
  ServiceDriver driver(&engine, sopts);
  const ServiceReport report = driver.Run(trace);

  EXPECT_EQ(report.submitted_jobs, 3u);
  EXPECT_EQ(report.executed_jobs, 3u);
  EXPECT_EQ(report.completed_requests, 3u);
  EXPECT_EQ(report.shed_requests, 9u);
  EXPECT_EQ(report.shed_jobs, 0u);  // Door sheds never became jobs.
  EXPECT_EQ(engine.num_jobs(), 3u);
  for (size_t i = 3; i < 12; ++i) {
    EXPECT_TRUE(report.outcomes[i].shed) << i;
    EXPECT_EQ(report.outcomes[i].job, kInvalidJob) << i;
  }
  // Coalesce-attaches bypass the bound: a 13th request identical to an in-flight one
  // would still be served — covered by the fan-in test; here every request is distinct.
}

TEST(ServiceDriverTest, PassthroughReplayMatchesDirectEngineExecution) {
  const EdgeList edges = GenerateErdosRenyi(200, 1600, 15);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 5);

  std::vector<ServiceRequest> trace;
  trace.push_back({0, "pagerank", source});
  trace.push_back({4, "sssp", source});
  trace.push_back({9, "bfs", source});

  // Daemon with every service policy off: unbounded queue, no deadlines, no fan-in.
  LtpEngine daemon_engine(&pg, test_support::TestEngineOptions());
  ServiceOptions sopts;
  sopts.queue_bound = 0;
  sopts.deadline_steps = 0;
  sopts.coalesce = false;
  ServiceDriver driver(&daemon_engine, sopts);
  driver.Run(trace);
  const RunReport daemon_report = daemon_engine.Report();

  // The same arrivals driven through the engine directly.
  LtpEngine direct(&pg, test_support::TestEngineOptions());
  for (const ServiceRequest& req : trace) {
    direct.SubmitAt(MakeProgram(req.program, req.source), req.arrival_step);
  }
  direct.RunUntilIdle();
  const RunReport direct_report = direct.Report();

  // The daemon is a pure driver: modeled execution is identical to direct replay.
  ASSERT_EQ(daemon_report.jobs.size(), direct_report.jobs.size());
  for (size_t j = 0; j < direct_report.jobs.size(); ++j) {
    EXPECT_EQ(daemon_report.jobs[j].iterations, direct_report.jobs[j].iterations) << j;
    EXPECT_EQ(daemon_report.jobs[j].compute_units, direct_report.jobs[j].compute_units)
        << j;
    EXPECT_EQ(daemon_report.jobs[j].charge.total_bytes(),
              direct_report.jobs[j].charge.total_bytes())
        << j;
  }
  EXPECT_EQ(daemon_report.cache.touches, direct_report.cache.touches);
  EXPECT_EQ(daemon_report.cache.misses, direct_report.cache.misses);
  EXPECT_EQ(daemon_report.memory.disk_bytes, direct_report.memory.disk_bytes);
}

TEST(ServiceDriverTest, LargeMixedTraceDrainsCompletely) {
  const EdgeList edges = GenerateErdosRenyi(150, 1200, 17);
  const PartitionedGraph pg = Partition(edges, 4);
  TraceGenOptions tgen = SmallTraceOptions(edges);
  tgen.pattern = ArrivalPattern::kDiurnal;
  tgen.num_requests = 300;
  tgen.mean_gap = 2;
  const auto trace = GenerateArrivalTrace(tgen);

  EngineOptions options = test_support::TestEngineOptions();
  options.max_jobs = 8;
  LtpEngine engine(&pg, options);
  ServiceOptions sopts;
  sopts.queue_bound = 32;
  sopts.deadline_steps = 500;
  ServiceDriver driver(&engine, sopts);
  const ServiceReport report = driver.Run(trace);

  // Every request is accounted for exactly once, and the fan-in actually fired on a
  // 4-program x 4-source mix.
  EXPECT_EQ(report.total_requests, 300u);
  EXPECT_EQ(report.completed_requests + report.shed_requests, 300u);
  EXPECT_GT(report.coalesced_requests, 0u);
  EXPECT_GT(report.dedup_ratio, 0.0);
  EXPECT_GT(report.executed_jobs, 0u);
  EXPECT_LE(report.p50_latency_steps, report.p95_latency_steps);
  EXPECT_LE(report.p95_latency_steps, report.p99_latency_steps);
  EXPECT_LE(report.p99_latency_steps, report.max_latency_steps);
  // Completed-request latencies all came from real finish steps.
  for (const RequestOutcome& outcome : report.outcomes) {
    if (!outcome.shed) {
      EXPECT_GE(outcome.finish_step, outcome.arrival_step);
    }
  }
}

}  // namespace
}  // namespace cgraph
