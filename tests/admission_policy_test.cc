// Job-level admission policies (two-level scheduling): FIFO/overlap pick semantics,
// aging-bounded starvation-freedom, degenerate-case equivalence with FIFO, and
// determinism of overlap admission across runs and worker counts, and the footprint
// invariant (a job's admission footprint is exactly what its admission activates).

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/algorithms/bfs.h"
#include "src/algorithms/factory.h"
#include "src/algorithms/kcore.h"
#include "src/algorithms/khop.h"
#include "src/algorithms/pagerank.h"
#include "src/algorithms/personalized_pagerank.h"
#include "src/algorithms/scc.h"
#include "src/algorithms/sssp.h"
#include "src/algorithms/wcc.h"
#include "src/core/admission_policy.h"
#include "src/core/job_manager.h"
#include "src/core/ltp_engine.h"
#include "src/core/scheduler.h"
#include "src/runtime/thread_pool.h"
#include "src/graph/generators.h"
#include "src/metrics/csv_writer.h"
#include "src/partition/partitioned_graph.h"
#include "tests/testing/test_helpers.h"

namespace cgraph {
namespace {

using Candidate = AdmissionPolicy::Candidate;

// --- Policy unit tests (synthetic global table) --------------------------------------

// A table with `registered` partitions occupied by one running job.
GlobalTable TableWithRegistered(uint32_t num_partitions,
                                const std::vector<PartitionId>& registered) {
  GlobalTable table(num_partitions, /*max_jobs=*/4);
  for (PartitionId p : registered) {
    table.Register(p, /*j=*/0);
  }
  return table;
}

TEST(AdmissionPolicyTest, FifoAlwaysPicksTheFront) {
  const GlobalTable table = TableWithRegistered(4, {0, 1});
  FifoAdmission fifo;
  const std::vector<uint32_t> a = {0, 0, 5, 5};  // Would lose on overlap...
  const std::vector<uint32_t> b = {7, 7, 0, 0};  // ...to this one.
  const std::vector<Candidate> due = {{0, 0, &a}, {1, 0, &b}};
  const auto pick = fifo.Pick(due, table, /*step=*/100);
  EXPECT_EQ(pick.index, 0u);
  EXPECT_EQ(pick.overlap, 0.0);
}

TEST(AdmissionPolicyTest, OverlapScoreIsSharedFractionOfFootprint) {
  const GlobalTable table = TableWithRegistered(4, {0, 1});
  const std::vector<uint32_t> full = {3, 9, 2, 1};     // Needs all 4, 2 registered.
  const std::vector<uint32_t> local = {0, 8, 0, 0};    // Needs only a registered one.
  const std::vector<uint32_t> disjoint = {0, 0, 0, 6}; // Needs only an idle one.
  const std::vector<uint32_t> empty = {0, 0, 0, 0};
  EXPECT_DOUBLE_EQ(OverlapAdmission::OverlapScore(full, table), 0.5);
  EXPECT_DOUBLE_EQ(OverlapAdmission::OverlapScore(local, table), 1.0);
  EXPECT_DOUBLE_EQ(OverlapAdmission::OverlapScore(disjoint, table), 0.0);
  EXPECT_DOUBLE_EQ(OverlapAdmission::OverlapScore(empty, table), 0.0);
}

TEST(AdmissionPolicyTest, OverlapPrefersTheSharedFootprint) {
  const GlobalTable table = TableWithRegistered(4, {0, 1});
  OverlapAdmission overlap(/*aging=*/1.0 / 256.0);
  const std::vector<uint32_t> disjoint = {0, 0, 4, 4};
  const std::vector<uint32_t> shared = {4, 4, 0, 0};
  // The FIFO-older candidate needs idle partitions; the younger one rides the running set.
  const std::vector<Candidate> due = {{0, 10, &disjoint}, {1, 12, &shared}};
  const auto pick = overlap.Pick(due, table, /*step=*/12);
  EXPECT_EQ(pick.index, 1u);
  EXPECT_DOUBLE_EQ(pick.overlap, 1.0);
}

TEST(AdmissionPolicyTest, OverlapTiesBreakTowardFifoOrder) {
  const GlobalTable table = TableWithRegistered(4, {0});
  OverlapAdmission overlap(/*aging=*/1.0 / 256.0);
  const std::vector<uint32_t> fp = {1, 0, 0, 0};
  // Identical footprints and arrival steps: the earliest submission must win.
  const std::vector<Candidate> due = {{3, 5, &fp}, {4, 5, &fp}, {5, 5, &fp}};
  EXPECT_EQ(overlap.Pick(due, table, /*step=*/9).index, 0u);
}

TEST(AdmissionPolicyTest, AgingOvertakesBoundedOverlapAdvantage) {
  const GlobalTable table = TableWithRegistered(4, {0, 1});
  const double aging = 1.0 / 256.0;
  OverlapAdmission overlap(aging);
  const std::vector<uint32_t> never_overlaps = {0, 0, 0, 9};
  const std::vector<uint32_t> always_overlaps = {9, 0, 0, 0};
  // A fresh full-overlap candidate outranks the zero-overlap oldie only while the age
  // gap is under 1/aging steps; from 256 waited steps on, the oldie must win (ties
  // break toward it as the FIFO-older candidate).
  for (const uint64_t waited : {0ull, 100ull, 255ull}) {
    const std::vector<Candidate> due = {{0, 0, &never_overlaps}, {1, waited, &always_overlaps}};
    EXPECT_EQ(overlap.Pick(due, table, waited).index, 1u) << waited;
  }
  for (const uint64_t waited : {256ull, 300ull, 100000ull}) {
    const std::vector<Candidate> due = {{0, 0, &never_overlaps}, {1, waited, &always_overlaps}};
    EXPECT_EQ(overlap.Pick(due, table, waited).index, 0u) << waited;
  }
}

TEST(AdmissionPolicyTest, HostileArrivalStreamCannotStarveADueJob) {
  const GlobalTable table = TableWithRegistered(8, {0, 1, 2, 3});
  const double aging = 1.0 / 64.0;
  OverlapAdmission overlap(aging);
  const std::vector<uint32_t> victim_fp = {0, 0, 0, 0, 1, 1, 1, 1};  // Overlap 0 forever.
  const std::vector<uint32_t> hostile_fp = {1, 1, 1, 1, 0, 0, 0, 0}; // Overlap 1 forever.
  // Every round a slot frees, a brand-new full-overlap job is already waiting. The
  // victim must still be admitted within 1/aging steps of becoming due.
  uint64_t step = 0;
  bool victim_admitted = false;
  for (; step < 200; ++step) {
    const std::vector<Candidate> due = {{0, 0, &victim_fp}, {1 + static_cast<JobId>(step), step, &hostile_fp}};
    if (overlap.Pick(due, table, step).index == 0) {
      victim_admitted = true;
      break;
    }
  }
  EXPECT_TRUE(victim_admitted);
  EXPECT_LE(step, static_cast<uint64_t>(1.0 / aging) + 1);
}

TEST(AdmissionPolicyTest, KindNames) {
  EXPECT_EQ(AdmissionPolicyKindName(AdmissionPolicyKind::kFifo), "fifo");
  EXPECT_EQ(AdmissionPolicyKindName(AdmissionPolicyKind::kOverlap), "overlap");
}

// --- Engine-level tests --------------------------------------------------------------

PartitionedGraph Partition(const EdgeList& edges, uint32_t parts) {
  PartitionOptions options;
  options.num_partitions = parts;
  options.core_subgraph = true;
  return PartitionedGraphBuilder::Build(edges, options);
}

// Report CSV with the legitimately varying columns normalized: wall clock zeroed and the
// worker count pinned (modeled-time columns divide by it), so reports from engines run
// at different worker counts are comparable on the modeled schedule alone.
std::string NormalizedCsv(const LtpEngine& engine) {
  RunReport report = engine.Report();
  for (JobStats& job : report.jobs) {
    job.wall_seconds = 0.0;
  }
  report.wall_seconds = 0.0;
  report.workers = 1;
  return RunReportToCsv(report, CostModel{});
}

TEST(AdmissionPolicyEngineTest, DegenerateSingleJobMatchesFifoByteForByte) {
  const EdgeList edges = GenerateErdosRenyi(250, 2000, 31);
  const PartitionedGraph pg = Partition(edges, 6);

  // One job, never queued: overlap admission has a single zero-overlap candidate, so the
  // whole schedule — and hence the report CSV — must match FIFO exactly.
  auto run = [&pg](AdmissionPolicyKind kind) {
    EngineOptions options = test_support::TestEngineOptions();
    options.admission_policy = kind;
    LtpEngine engine(&pg, options);
    engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
    engine.RunUntilIdle();
    EXPECT_EQ(engine.job(0).stats().wait_steps, 0u);
    EXPECT_EQ(engine.job(0).stats().admit_overlap, 0.0);
    return NormalizedCsv(engine);
  };
  EXPECT_EQ(run(AdmissionPolicyKind::kFifo), run(AdmissionPolicyKind::kOverlap));
}

TEST(AdmissionPolicyEngineTest, UncontendedSubmissionsMatchFifoByteForByte) {
  const EdgeList edges = GenerateErdosRenyi(250, 2000, 37);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 6);

  // Every submission finds a free slot (jobs <= max_jobs), so each admission decision
  // sees exactly one candidate and overlap cannot reorder anything.
  auto run = [&](AdmissionPolicyKind kind) {
    EngineOptions options = test_support::TestEngineOptions();
    options.admission_policy = kind;
    LtpEngine engine(&pg, options);
    engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
    engine.Submit(std::make_unique<SsspProgram>(source));
    engine.Submit(std::make_unique<WccProgram>());
    engine.SubmitAt(std::make_unique<BfsProgram>(source), /*arrival_step=*/7);
    engine.RunUntilIdle();
    return NormalizedCsv(engine);
  };
  EXPECT_EQ(run(AdmissionPolicyKind::kFifo), run(AdmissionPolicyKind::kOverlap));
}

TEST(AdmissionPolicyEngineTest, QueuedOverlapAdmissionRecordsStats) {
  const EdgeList edges = GenerateErdosRenyi(300, 2400, 41);
  const PartitionedGraph pg = Partition(edges, 6);

  EngineOptions options = test_support::TestEngineOptions();
  options.admission_policy = AdmissionPolicyKind::kOverlap;
  options.max_jobs = 1;  // Force queueing behind the running job.
  LtpEngine engine(&pg, options);
  engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
  const LtpEngine::JobHandle queued = engine.Submit(std::make_unique<WccProgram>());
  engine.RunUntilIdle();
  EXPECT_TRUE(queued.done());
  // The waiter was admitted strictly after its arrival (it waited for the slot) and the
  // first job never waited.
  EXPECT_EQ(engine.job(0).stats().wait_steps, 0u);
  EXPECT_GT(queued.stats().wait_steps, 0u);
  // With max_jobs == 1 the slot only frees when nothing is running, so the recorded
  // overlap at admit time is necessarily zero — the degenerate case. A lone due
  // candidate is admitted without scoring, and the stats must say so: the zero is
  // "never scored", not "scored zero".
  EXPECT_EQ(queued.stats().admit_overlap, 0.0);
  EXPECT_FALSE(queued.stats().admit_scored);
  EXPECT_FALSE(engine.job(0).stats().admit_scored);
}

TEST(AdmissionPolicyEngineTest, ScoredFlagMarksOnlyContendedDecisions) {
  const EdgeList edges = GenerateErdosRenyi(300, 2400, 59);
  const PartitionedGraph pg = Partition(edges, 6);

  EngineOptions options = test_support::TestEngineOptions();
  options.admission_policy = AdmissionPolicyKind::kOverlap;
  options.max_jobs = 1;  // Everything queues behind the first job.
  LtpEngine engine(&pg, options);
  engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
  // Two waiters are due when the slot frees: that decision has competitors, so its
  // winner is scored; the loser is admitted later as a lone candidate — unscored.
  const LtpEngine::JobHandle a = engine.Submit(std::make_unique<WccProgram>());
  const LtpEngine::JobHandle b = engine.Submit(std::make_unique<WccProgram>());
  engine.RunUntilIdle();
  EXPECT_FALSE(engine.job(0).stats().admit_scored);  // Admitted into an empty engine.
  EXPECT_TRUE(a.stats().admit_scored);               // Won a contended decision.
  EXPECT_FALSE(b.stats().admit_scored);              // Lone candidate at its admission.
}

TEST(AdmissionPolicyEngineTest, StarvationFreeUnderStaggeredOverlappingArrivals) {
  const EdgeList edges = GenerateErdosRenyi(300, 2400, 43);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 6);

  EngineOptions options = test_support::TestEngineOptions();
  options.admission_policy = AdmissionPolicyKind::kOverlap;
  options.admission_aging = 0.5;  // Overtake window: 2 steps.
  options.max_jobs = 2;
  LtpEngine engine(&pg, options);
  engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
  engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
  // The victim queues first; overlapping traversals keep arriving behind it, all outside
  // the 1/aging overtake window of the victim's arrival.
  const LtpEngine::JobHandle victim = engine.Submit(std::make_unique<WccProgram>());
  std::vector<LtpEngine::JobHandle> hostiles;
  for (uint64_t arrival = 5; arrival <= 30; arrival += 5) {
    hostiles.push_back(engine.SubmitAt(std::make_unique<BfsProgram>(source), arrival));
  }
  engine.RunUntilIdle();
  EXPECT_TRUE(victim.done());
  // Admission step = arrival + wait. The victim (runnable first, outside everyone's
  // overtake window) must have been admitted no later than any later arrival (two
  // admissions can land on the same step when consecutive slots free).
  const uint64_t victim_admit = victim.stats().wait_steps;  // Arrival step 0.
  for (size_t i = 0; i < hostiles.size(); ++i) {
    const uint64_t arrival = 5 * (i + 1);
    EXPECT_LE(victim_admit, arrival + hostiles[i].stats().wait_steps) << i;
  }
}

TEST(AdmissionPolicyEngineTest, OverlapAdmissionIsDeterministicAcrossRunsAndWorkers) {
  const EdgeList edges = GenerateErdosRenyi(400, 3600, 47);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 8);

  // A contended staggered mix: admission decisions must depend only on modeled state,
  // so the whole report — and every per-job admission stat — is identical across
  // repeated runs and worker counts.
  auto run = [&](uint32_t workers) {
    EngineOptions options = test_support::TestEngineOptions();
    options.admission_policy = AdmissionPolicyKind::kOverlap;
    options.max_jobs = 2;
    options.num_workers = workers;
    LtpEngine engine(&pg, options);
    engine.Submit(std::make_unique<PageRankProgram>(0.85, 1e-10));
    engine.Submit(std::make_unique<WccProgram>());
    engine.SubmitAt(std::make_unique<BfsProgram>(source), 5);
    engine.SubmitAt(std::make_unique<WccProgram>(), 10);
    engine.SubmitAt(std::make_unique<SsspProgram>(source), 15);
    engine.RunUntilIdle();
    std::vector<std::pair<uint64_t, double>> admissions;
    for (JobId id = 0; id < engine.num_jobs(); ++id) {
      admissions.emplace_back(engine.job(id).stats().wait_steps,
                              engine.job(id).stats().admit_overlap);
    }
    return std::make_pair(NormalizedCsv(engine), admissions);
  };
  const auto baseline = run(1);
  EXPECT_EQ(baseline, run(1)) << "same worker count, repeated run";
  EXPECT_EQ(baseline, run(4)) << "different worker count";
}

// A program's admission footprint recomputed from its public hooks: per partition, the
// vertices whose fresh state (InitialState, delta_next at the Acc identity) the concrete
// program's InitiallyActive accepts.
template <class Program>
std::vector<uint32_t> FreshFootprint(const Program& program, const PartitionedGraph& pg) {
  std::vector<uint32_t> counts(pg.num_partitions(), 0);
  for (PartitionId p = 0; p < pg.num_partitions(); ++p) {
    const GraphPartition& part = pg.partition(p);
    for (LocalVertexId v = 0; v < part.num_local_vertices(); ++v) {
      VertexState fresh = program.InitialState(part.vertex(v));
      fresh.delta_next = AccIdentity(program.acc_kind());
      counts[p] += program.InitiallyActive(part.vertex(v), fresh) ? 1 : 0;
    }
  }
  return counts;
}

// The footprint is the input to overlap admission, so it must match what InitJob
// activates. All eight programs are due at once for one slot: the first decision is
// contended and computes every footprint. Then each admitted job's registrations are
// compared with its footprint. Partitions above the sweep grain are split into chunks,
// and with sweep threshold 0 at four workers the count and init kernels run pooled.
TEST(AdmissionPolicyEngineTest, FootprintIsWhatAdmissionActivates) {
  const EdgeList edges = GenerateErdosRenyi(20000, 60000, 61);
  const VertexId source = PickSourceVertex(edges);
  const PartitionedGraph pg = Partition(edges, 3);
  for (const uint32_t workers : {1u, 4u}) {
    SCOPED_TRACE(workers);
    EngineOptions options = test_support::TestEngineOptions();
    options.admission_policy = AdmissionPolicyKind::kOverlap;
    options.max_jobs = 1;
    options.num_workers = workers;
    options.parallel_sweep_threshold = 0;
    GlobalTable table(pg.num_partitions(), options.max_jobs);
    Scheduler scheduler(pg, /*use_priorities=*/true);
    ThreadPool pool(workers);
    JobManager manager(pg, &table, &scheduler, &pool, options);
    ScopedThreadRole role(g_driver_role);

    std::vector<std::vector<uint32_t>> expected;
    const auto submit = [&](auto program) {
      expected.push_back(FreshFootprint(*program, pg));
      manager.Submit(std::move(program), /*submit_time=*/0, /*arrival_step=*/0);
    };
    submit(std::make_unique<PageRankProgram>(0.85, 1e-4));
    submit(std::make_unique<SsspProgram>(source));
    submit(std::make_unique<SccProgram>());
    submit(std::make_unique<BfsProgram>(source));
    submit(std::make_unique<WccProgram>());
    submit(std::make_unique<KCoreProgram>(4));  // Shadows InitiallyActive.
    submit(std::make_unique<PersonalizedPageRankProgram>(source));
    submit(std::make_unique<KHopProgram>(source, 3));
    manager.AdmitDue(0);

    size_t admitted = 0;
    while (Job* job = manager.JobAtSlot(0)) {
      ASSERT_EQ(job->footprint().size(), pg.num_partitions());
      for (PartitionId p = 0; p < pg.num_partitions(); ++p) {
        EXPECT_EQ(job->footprint()[p] > 0, table.IsRegistered(p, job->slot()))
            << job->stats().job_name << " partition " << p;
      }
      manager.FinishJob(*job);  // Admits the next waiter into the freed slot.
      ++admitted;
    }
    EXPECT_EQ(admitted, expected.size());
    EXPECT_TRUE(manager.AllIdle());
    for (JobId id = 0; id < manager.num_jobs(); ++id) {
      EXPECT_EQ(manager.job(id).footprint(), expected[id]) << manager.job(id).stats().job_name;
    }
  }
}

}  // namespace
}  // namespace cgraph
