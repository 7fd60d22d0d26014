#include "benchmark/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "src/algorithms/factory.h"
#include "src/algorithms/reference.h"
#include "src/common/timer.h"
#include "src/core/ltp_engine.h"
#include "src/graph/graph.h"
#include "src/metrics/cost_model.h"

namespace cgraph_bench {
namespace {

using cgraph::AdmissionPolicyKind;
using cgraph::EdgeList;
using cgraph::ExecutionMode;
using cgraph::JobId;
using cgraph::LtpEngine;
using cgraph::VertexId;

constexpr uint32_t kK = 4;  // k of kcore/khop jobs (MakeProgram's default).

// Programs whose result does not depend on the source vertex.
bool IgnoresSource(const std::string& program) {
  return program == "pagerank" || program == "wcc" || program == "scc" ||
         program == "kcore";
}

// Folds a job's values and aux into `h` (FNV-1a over their bit patterns). PageRank and
// PPR are left out: with more than one worker their mass is summed in a run-dependent
// order, so only the reference comparison, with its tolerance, applies to them.
uint64_t Digest(uint64_t h, const std::string& program, const std::vector<double>& values,
                const std::vector<double>& aux) {
  if (program == "pagerank" || program == "ppr") {
    return h;
  }
  for (const std::vector<double>* v : {&values, &aux}) {
    for (const double x : *v) {
      uint64_t bits = 0;
      std::memcpy(&bits, &x, sizeof(bits));
      h = (h ^ bits) * 1099511628211ull;
    }
  }
  return h;
}
constexpr uint64_t kDigestSeed = 14695981039346656037ull;

bool SameDistances(const std::vector<double>& actual, const std::vector<double>& expected) {
  for (size_t v = 0; v < expected.size(); ++v) {
    if (std::isinf(expected[v]) ? !std::isinf(actual[v]) : actual[v] != expected[v]) {
      return false;
    }
  }
  return true;
}

bool Near(const std::vector<double>& actual, const std::vector<double>& expected,
          double tolerance) {
  for (size_t v = 0; v < expected.size(); ++v) {
    if (!(std::fabs(actual[v] - expected[v]) <= tolerance)) {
      return false;
    }
  }
  return true;
}

// Sums the modeled per-job counters every round must reproduce exactly. The makespan is
// modeled at the workload's own worker count, so a round at another count matches too.
Exact ExactOf(const Workload& w, cgraph::RunReport report, uint64_t steps,
              uint64_t digest) {
  Exact e;
  e.steps = steps;
  e.compute_units = report.TotalComputeUnits();
  for (const cgraph::JobStats& s : report.jobs) {
    e.wait_steps += s.wait_steps;
  }
  report.workers = w.engine.num_workers;
  e.modeled_makespan = report.ModeledMakespan(cgraph::CostModel{});
  e.values_digest = digest;
  return e;
}

RoundResult RunJobRound(const Workload& w, const cgraph::PartitionedGraph& graph,
                        const cgraph::EngineOptions& options, const References& refs,
                        Tracer* tracer) {
  RoundResult r;
  LtpEngine engine(&graph, options);
  const std::vector<JobSpec>& jobs = w.jobs;  // Sorted by arrival step.
  const size_t n = jobs.size();
  std::vector<LtpEngine::JobHandle> handles;
  handles.reserve(n);
  std::vector<double> due(n, 0.0);
  std::vector<bool> done(n, false);
  size_t num_due = 0;
  size_t num_done = 0;
  while (num_due < n && jobs[num_due].arrival_step == 0) {
    ++num_due;  // Due at round start.
  }

  cgraph::WallTimer clock;
  r.span = tracer != nullptr ? tracer->Open("bench.round", kNone) : kNone;
  for (size_t i = 0; i < n; ++i) {
    const JobSpec& job = jobs[i];
    handles.push_back(Traced(tracer, "core.submit", r.span, static_cast<int64_t>(i), [&] {
      auto program = cgraph::MakeProgram(job.program, job.source, kK);
      return job.arrival_step == 0 ? engine.Submit(std::move(program))
                                   : engine.SubmitAt(std::move(program), job.arrival_step);
    }));
  }
  for (bool more = true; more;) {
    // Arrivals the coming step admits are due now. With every due job finished the
    // engine is idle, and Step() fast-forwards to the next arrival.
    uint64_t due_step = engine.current_step();
    if (num_due < n && num_done == num_due) {
      due_step = std::max(due_step, jobs[num_due].arrival_step);
    }
    if (num_due < n && jobs[num_due].arrival_step <= due_step) {
      const double now = clock.ElapsedSeconds();
      for (; num_due < n && jobs[num_due].arrival_step <= due_step; ++num_due) {
        due[num_due] = now;
      }
    }
    more = Traced(tracer, "core.step", r.span, kNone, [&] { return engine.Step(); });
    double now = -1.0;
    for (size_t i = 0; i < num_due; ++i) {
      if (!done[i] && handles[i].done()) {
        if (now < 0.0) {
          now = clock.ElapsedSeconds();
        }
        done[i] = true;
        ++num_done;
        r.latency_s.push_back(now - due[i]);
      }
    }
  }
  r.wall_s = clock.ElapsedSeconds();
  if (tracer != nullptr) {
    tracer->Close(r.span);
  }

  // Output checks, outside the timed window.
  r.report = engine.Report();
  r.attempted = n;
  uint64_t digest = kDigestSeed;
  for (size_t i = 0; i < n; ++i) {
    const cgraph::JobStats& s = handles[i].stats();
    if (!done[i] || s.failed || s.cancelled || s.shed) {
      ++r.failed;
      continue;
    }
    const std::vector<double> values = engine.FinalValues(handles[i].id());
    const std::vector<double> aux = engine.FinalAux(handles[i].id());
    digest = Digest(digest, jobs[i].program, values, aux);
    if (!refs.Matches(jobs[i].program, jobs[i].source, values, aux)) {
      ++r.failed;
    }
  }
  r.exact = ExactOf(w, r.report, engine.current_step(), digest);
  return r;
}

RoundResult RunServiceRound(const Workload& w, const cgraph::PartitionedGraph& graph,
                            const cgraph::EngineOptions& options, const References& refs,
                            Tracer* tracer) {
  RoundResult r;
  LtpEngine engine(&graph, options);
  cgraph::ServiceDriver driver(&engine, w.service_options);

  cgraph::WallTimer clock;
  r.span = tracer != nullptr ? tracer->Open("bench.round", kNone) : kNone;
  r.service =
      Traced(tracer, "service.run", r.span, kNone, [&] { return driver.Run(w.trace); });
  r.wall_s = clock.ElapsedSeconds();
  if (tracer != nullptr) {
    tracer->Close(r.span);
  }

  // Output checks: every executed job against the reference of its (program, source).
  r.report = engine.Report();
  const std::vector<cgraph::RequestOutcome>& outcomes = r.service.outcomes;
  std::vector<bool> right(engine.num_jobs(), false);  // Completed and matching.
  uint64_t digest = kDigestSeed;
  // The first request of each job names its (program, source); checking in job-id
  // order keeps the digest independent of request order.
  std::vector<size_t> request_of(engine.num_jobs(), outcomes.size());
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const JobId id = outcomes[i].job;
    if (id != cgraph::kInvalidJob && request_of[id] == outcomes.size()) {
      request_of[id] = i;
    }
  }
  for (JobId id = 0; id < engine.num_jobs(); ++id) {
    const cgraph::JobStats& s = engine.job(id).stats();
    if (request_of[id] == outcomes.size() || !engine.job(id).finished() || s.failed ||
        s.cancelled || s.shed) {
      continue;
    }
    const cgraph::ServiceRequest& req = w.trace[request_of[id]];
    const std::vector<double> values = engine.FinalValues(id);
    const std::vector<double> aux = engine.FinalAux(id);
    digest = Digest(digest, req.program, values, aux);
    right[id] = refs.Matches(req.program, req.source, values, aux);
  }

  // ServiceDriver::Run owns the step loop, so no clock read can mark a request's
  // completion. Request latency is exact in steps; its wall figure is derived, charging
  // each step the replay's mean wall time per step.
  const uint64_t steps = engine.current_step();
  const double s_per_step = r.wall_s / static_cast<double>(std::max<uint64_t>(1, steps));
  for (const cgraph::RequestOutcome& o : outcomes) {
    ++r.attempted;
    if (o.shed || o.failed || o.job == cgraph::kInvalidJob || !right[o.job]) {
      ++r.failed;
      continue;
    }
    r.latency_s.push_back(static_cast<double>(o.finish_step - o.arrival_step) * s_per_step);
  }
  r.exact = ExactOf(w, r.report, steps, digest);
  r.exact.latency_p50_steps = r.service.p50_latency_steps;
  r.exact.latency_p99_steps = r.service.p99_latency_steps;
  r.service.outcomes.clear();
  return r;
}

}  // namespace

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.rmat.seed = seed;
  w.engine.num_workers = 3;
  if (name == "batch_mix" || name == "async_monotonic") {
    w.rmat.scale = 16;
    w.rmat.edge_factor = 16;
    w.partition.num_partitions = 64;
    if (name == "async_monotonic") {
      w.engine.execution_mode = ExecutionMode::kAsync;
      w.engine.staleness = 1;
    }
  } else if (name == "staggered_admission") {
    w.rmat.scale = 15;
    w.rmat.edge_factor = 16;
    w.partition.num_partitions = 32;
    w.engine.num_workers = 1;
    w.engine.admission_policy = AdmissionPolicyKind::kOverlap;
    w.engine.max_jobs = 4;
  } else if (name == "service_bursty") {
    w.rmat.scale = 14;
    w.rmat.edge_factor = 8;
    w.partition.num_partitions = 16;
    w.service = true;
    w.service_options.queue_bound = 64;
    w.service_options.coalesce = true;
    w.service_options.k = kK;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

void AddJobs(const EdgeList& edges, Workload* w) {
  const std::vector<VertexId> pool = cgraph::PickSourcePool(edges, 8);
  const VertexId s0 = pool[0];
  const VertexId s1 = pool[std::min<size_t>(1, pool.size() - 1)];
  if (w->name == "batch_mix") {
    for (const char* p : {"pagerank", "sssp", "scc", "bfs", "wcc", "kcore", "ppr", "khop"}) {
      w->jobs.push_back({p, s0, 0});
    }
  } else if (w->name == "async_monotonic") {
    w->jobs = {{"sssp", s0, 0}, {"sssp", s1, 0}, {"bfs", s0, 0},  {"bfs", s1, 0},
               {"wcc", s0, 0},  {"kcore", s0, 0}, {"khop", s0, 0}, {"khop", s1, 0}};
  } else if (w->name == "staggered_admission") {
    // 25 arrivals, one every 40 steps: localized traversals rooted across the source
    // pool, with two full-graph PageRanks and one PPR among them.
    static const char* kTraversals[] = {"bfs", "sssp", "khop"};
    for (uint64_t i = 0; i < 25; ++i) {
      const char* program = (i == 0 || i == 12) ? "pagerank"
                            : i == 6            ? "ppr"
                                                : kTraversals[i % 3];
      w->jobs.push_back({program, pool[i % pool.size()], 40 * i});
    }
  } else if (w->service) {
    cgraph::TraceGenOptions t;
    t.num_requests = 2000;
    t.pattern = cgraph::ArrivalPattern::kBursty;
    t.seed = w->rmat.seed;
    t.mean_gap = 2;
    t.burst_size = 32;
    t.programs = {"pagerank", "sssp", "wcc", "bfs"};
    t.sources = pool;
    w->trace = cgraph::GenerateArrivalTrace(t);
  }
}

References::Key References::KeyOf(const std::string& program, VertexId source) {
  return {program, IgnoresSource(program) ? 0 : source};
}

References::References(const EdgeList& edges, const Workload& w) {
  const cgraph::Graph g = cgraph::Graph::FromEdges(edges);
  auto add = [&](const std::string& program, VertexId source) {
    const Key key = KeyOf(program, source);
    if (expected_.contains(key)) {
      return;
    }
    std::vector<double> ref;
    if (program == "pagerank") {
      ref = cgraph::ReferencePageRank(g, 0.85, 1e-4);
    } else if (program == "ppr") {
      ref = cgraph::ReferencePersonalizedPageRank(g, source, 0.85, 1e-7);
    } else if (program == "sssp") {
      ref = cgraph::ReferenceSssp(g, source);
    } else if (program == "bfs") {
      ref = cgraph::ReferenceBfs(g, source);
    } else if (program == "khop") {
      ref = cgraph::ReferenceKHop(g, source, kK);
    } else if (program == "wcc") {
      ref = cgraph::ReferenceWcc(g);
    } else if (program == "scc") {
      ref = cgraph::CanonicalizeLabels(cgraph::ReferenceScc(g));
    } else if (program == "kcore") {
      ref = cgraph::ReferenceKCore(g, kK);
    }
    expected_.emplace(key, std::move(ref));
  };
  for (const JobSpec& job : w.jobs) {
    add(job.program, job.source);
  }
  for (const cgraph::ServiceRequest& req : w.trace) {
    add(req.program, req.source);
  }
}

bool References::Matches(const std::string& program, VertexId source,
                         const std::vector<double>& values,
                         const std::vector<double>& aux) const {
  const auto it = expected_.find(KeyOf(program, source));
  if (it == expected_.end()) {
    return false;
  }
  const std::vector<double>& expected = it->second;
  if (values.size() != expected.size() || aux.size() != expected.size()) {
    return false;
  }
  // Tolerances of tests/integration_test.cc: the engine and the reference may settle
  // within different sub-epsilon remainders of the PageRank family's fixed point.
  if (program == "pagerank") {
    return Near(values, expected, 2e-3);
  }
  if (program == "ppr") {
    return Near(values, expected, 2e-5);
  }
  if (program == "sssp" || program == "bfs" || program == "khop") {
    return SameDistances(values, expected);
  }
  if (program == "wcc") {
    return values == expected;
  }
  if (program == "scc") {
    std::vector<double> labels = aux;
    for (double& l : labels) {
      l -= 1.0;
    }
    return cgraph::CanonicalizeLabels(labels) == expected;
  }
  if (program == "kcore") {
    for (size_t v = 0; v < expected.size(); ++v) {
      if ((aux[v] == 0.0) != (expected[v] == 1.0)) {
        return false;
      }
    }
    return true;
  }
  return false;
}

RoundResult RunRound(const Workload& w, const cgraph::PartitionedGraph& graph,
                     uint32_t workers, const References& refs, Tracer* tracer) {
  cgraph::EngineOptions options = w.engine;
  options.num_workers = workers;
  return w.service ? RunServiceRound(w, graph, options, refs, tracer)
                   : RunJobRound(w, graph, options, refs, tracer);
}

}  // namespace cgraph_bench
